"""Telemetry registry: counters, gauges, histograms, timelines.

:class:`TelemetryRegistry` is a plain in-process metrics store; it knows
nothing about the serving stack.  :class:`BusTelemetry` is the adapter.
Counts live with their owners (allocator, manager view, engine); at every
:class:`~repro.core.events.StepCompleted` on its bus the adapter pulls
the stepping engine's :meth:`~repro.engine.engine.LLMEngine.counters_by_owner`
and folds each owner's change since its previous sample:

* the Section 5.4 five-step decision histogram (``alloc/step/<n>``
  counters keyed by :data:`~repro.core.two_level.ALLOCATION_STEPS`),
  carves, and cached/freed releases,
* eviction provenance -- small vs. large level, and balanced
  (recency-keyed) vs. aligned (prefix-length tie-break) priority
  (Section 5.1),
* preemption reasons (``victim`` vs. ``self``), prefix-cache token
  counters, host-offload spill volume.

From the bus records themselves it adds:

* request lifecycle tallies and the engine step count,
* routing decisions (``routing/policy/<name>``, ``routing/replica/<id>``,
  expected hit tokens) when attached to a serving replica's bus,
* quota moves published by a :class:`~repro.core.resizer.PoolResizer`,
* the memory / waste / fragmentation timeline sampled from each step's
  :class:`~repro.engine.metrics.MemorySnapshot` (the Figure 16 axes), on
  the *simulated* clock,
* per-phase wall-time histograms from ``StepRecord.phases`` when the
  engine ran with a tracer attached.

Attaching telemetry never touches engine code; :meth:`BusTelemetry.close`
takes a final sample and detaches, so reused buses do not accumulate dead
handlers.
"""

from __future__ import annotations

from math import ceil, inf
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.events import (
    Event,
    EventBus,
    QuotaResized,
    RequestAdmitted,
    RequestFailed,
    RequestFinished,
    RequestQueued,
    RequestRouted,
    StepCompleted,
)
from ..core.two_level import EVICT_GROUP_PREFIX

__all__ = [
    "CounterDeltas",
    "Histogram",
    "TelemetryRegistry",
    "BusTelemetry",
    "LATENCY_BUCKETS_S",
]

#: Log-spaced upper bounds (seconds) for wall-time histograms: 1us .. 1s.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6,
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1,
    1.0,
)


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``bounds`` are inclusive upper bucket bounds, strictly increasing;
    one implicit overflow bucket catches everything above the last bound.
    Percentiles are nearest-rank over buckets, so they are exact for
    values on bucket bounds and otherwise report the bound of the bucket
    holding the rank (plus the true max for the overflow bucket).
    """

    __slots__ = ("bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, bounds: Sequence[float]) -> None:
        ordered = tuple(bounds)
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(ordered, ordered[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {ordered}")
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = inf
        self.vmax = -inf

    def observe(self, value: float) -> None:
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # bisect over the fixed bounds
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile approximated at bucket granularity."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, ceil(q * self.count))
        running = 0
        for idx, n in enumerate(self.counts):
            running += n
            if running >= rank:
                if idx < len(self.bounds):
                    return min(self.bounds[idx], self.vmax)
                return self.vmax
        return self.vmax

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "buckets": {
                "bounds": list(self.bounds),
                "counts": list(self.counts),
            },
        }


class _Timeline:
    """Bounded (time, value) series with stride-doubling decimation.

    When the point budget fills, every other retained point is dropped
    and the sampling stride doubles, so arbitrarily long runs keep a
    uniform, bounded sketch of the full timeline.
    """

    __slots__ = ("cap", "stride", "points", "_skip", "last")

    def __init__(self, cap: int = 2048) -> None:
        self.cap = cap
        self.stride = 1
        self.points: List[Tuple[float, float]] = []
        self._skip = 0
        self.last: Optional[Tuple[float, float]] = None

    def record(self, t: float, value: float) -> None:
        self.last = (t, value)
        self._skip += 1
        if self._skip < self.stride:
            return
        self._skip = 0
        self.points.append((t, value))
        if len(self.points) >= self.cap:
            self.points = self.points[::2]
            self.stride *= 2

    def snapshot(self) -> Dict[str, Any]:
        return {
            "points": len(self.points),
            "stride": self.stride,
            "last": list(self.last) if self.last is not None else None,
            "series": [list(p) for p in self.points],
        }


class TelemetryRegistry:
    """Named counters, gauges, histograms, and timelines.

    Instruments are created on first use; names are free-form but the
    convention is ``area/detail`` (``alloc/step/2``, ``phase/schedule``,
    ``mem/used``) so reports group naturally.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timelines: Dict[str, _Timeline] = {}

    # -- instruments ----------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS_S
    ) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(bounds)
        return hist

    def observe(
        self, name: str, value: float, bounds: Sequence[float] = LATENCY_BUCKETS_S
    ) -> None:
        self.histogram(name, bounds).observe(value)

    def timeline(self, name: str, cap: int = 2048) -> _Timeline:
        series = self._timelines.get(name)
        if series is None:
            series = self._timelines[name] = _Timeline(cap)
        return series

    def record_point(self, name: str, t: float, value: float) -> None:
        self.timeline(name).record(t, value)

    # -- export ---------------------------------------------------------

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    @property
    def timelines(self) -> Dict[str, "_Timeline"]:
        return dict(self._timelines)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every instrument."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
            "timelines": {
                name: t.snapshot() for name, t in sorted(self._timelines.items())
            },
        }


#: Memory-snapshot fields mirrored onto gauges and the sim-clock timeline.
_MEM_FIELDS = ("used", "evictable", "waste", "free")


class CounterDeltas:
    """Owners' cumulative counters turned into per-sample deltas.

    Remembers, per owner, the counts it last read; :meth:`sample` yields
    each key whose count the owner reports with its change since then.
    Keys are per *owner* (allocator, manager view, engine), never per
    engine: engines over one shared pool name the same allocator, so its
    counts are folded once however many of them step.  An owner seen for
    the first time contributes everything since its construction.
    """

    __slots__ = ("_last", "_engines")

    def __init__(self) -> None:
        self._last: Dict[Any, Dict[str, int]] = {}
        self._engines: Dict[Any, None] = {}

    def sample(self, engine: Any) -> Iterator[Tuple[str, int]]:
        """``(key, delta)`` for every count ``engine``'s owners report."""
        self._engines[engine] = None
        last = self._last
        for owner, counts in engine.counters_by_owner():
            before = last.get(owner, {})
            last[owner] = counts
            for key, value in counts.items():
                yield key, value - before.get(key, 0)

    def sample_all(self) -> Iterator[Tuple[str, int]]:
        """Sample every engine seen so far (a closing read)."""
        for engine in list(self._engines):
            yield from self.sample(engine)


class BusTelemetry:
    """Feeds a :class:`TelemetryRegistry` from one bus and the counters
    of the engines stepping on it.

    Subscribes on construction; call :meth:`close` when the run is over
    -- it folds whatever the owners counted after the last step, and
    unsubscribes so engines reusing a shared bus do not keep feeding a
    registry nobody reads.
    """

    _EVENT_TYPES = (
        QuotaResized,
        RequestQueued,
        RequestAdmitted,
        RequestFinished,
        RequestFailed,
        RequestRouted,
        StepCompleted,
    )

    def __init__(
        self, events: EventBus, registry: Optional[TelemetryRegistry] = None
    ) -> None:
        self.events = events
        self.registry = registry if registry is not None else TelemetryRegistry()
        self._closed = False
        self._deltas = CounterDeltas()
        events.subscribe(self._on_event, self._EVENT_TYPES)

    def close(self) -> None:
        """Take a final counter sample and unsubscribe (idempotent)."""
        if not self._closed:
            self._fold(self._deltas.sample_all())
            self.events.unsubscribe(self._on_event)
            self._closed = True

    # ------------------------------------------------------------------

    def _fold(self, deltas: Iterator[Tuple[str, int]]) -> None:
        counters = self.registry.counters
        for key, delta in deltas:
            # A key the owner reports exists in the registry even at zero
            # (a prefix lookup that hit nothing still reports hit_tokens).
            # Per-group eviction counts feed PressureMonitor instead.
            if (delta or key not in counters) and not key.startswith(
                EVICT_GROUP_PREFIX
            ):
                counters[key] = counters.get(key, 0) + delta

    def _on_event(self, event: Event) -> None:
        reg = self.registry
        if isinstance(event, StepCompleted):
            self._on_step(event)
        elif isinstance(event, QuotaResized):
            # One event per resize decision (control plane, not per page),
            # so the f-string group key is off the per-page hot path.
            reg.inc("resize/quota_resized")
            reg.inc(f"resize/group/{event.group_id}/resizes")
            reg.inc("resize/reclaimed_large", event.reclaimed)
            if event.new_quota is not None:
                reg.set_gauge(
                    f"resize/group/{event.group_id}/quota", float(event.new_quota)
                )
        elif isinstance(event, RequestQueued):
            reg.inc("requests/queued")
        elif isinstance(event, RequestAdmitted):
            reg.inc("requests/admitted")
        elif isinstance(event, RequestFinished):
            reg.inc("requests/finished")
        elif isinstance(event, RequestFailed):
            reg.inc("requests/failed")
        elif isinstance(event, RequestRouted):
            # One event per request dispatch (not per page), so the
            # f-string keys are off the per-page hot path.
            reg.inc("routing/requests")
            reg.inc(f"routing/policy/{event.policy}")
            reg.inc(f"routing/replica/{event.replica_id}")
            reg.inc("routing/expected_hit_tokens", event.expected_hit_tokens)

    def _on_step(self, event: StepCompleted) -> None:
        reg = self.registry
        reg.inc("engine/steps")
        if event.engine is not None:
            self._fold(self._deltas.sample(event.engine))
        record = event.record
        if record is None:
            return
        memory = getattr(record, "memory", None)
        if memory is not None:
            values = {
                "used": memory.used_bytes,
                "evictable": memory.evictable_bytes,
                "waste": memory.waste_bytes,
                "free": memory.free_bytes,
            }
            for field in _MEM_FIELDS:
                reg.set_gauge(f"mem/{field}", values[field])
                reg.record_point(f"mem/{field}", event.time, values[field])
        phases = getattr(record, "phases", None)
        if phases:
            for phase, seconds in phases.items():
                reg.observe(f"phase/{phase}", seconds)
