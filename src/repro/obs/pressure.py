"""Pool-pressure monitor: bus records + pool counters -> pressure gauges.

:class:`PressureMonitor` is the sensing half of the ROADMAP's elastic
pool-repartitioning item.  It folds the pressure-bearing signals --
admission blocks (:class:`~repro.core.events.AdmissionBlocked`),
preemptions (:class:`~repro.core.events.RequestPreempted`), pool
evictions per victim group (pulled from the allocator's counters through
the stepping engine's
:meth:`~repro.engine.engine.LLMEngine.counters_by_owner`), and the
per-step waste/occupancy snapshot -- into gauges, counters, and sim-clock
timelines a ``PoolResizer`` (or a human reading ``cluster-report``) can
act on.

Per-step rates are folded as exponentially-weighted moving averages at
every :class:`~repro.core.events.StepCompleted`, so the gauges answer
"how hard is this replica's pool being squeezed *right now*", not "how
many evictions ever happened".  The composite ``pressure/score`` in
``[0, 1]`` is the max of the block-rate, preemption-rate, and
non-reclaimable-occupancy terms: any one of them saturating means the
pool is the bottleneck.

Like :class:`~repro.obs.registry.BusTelemetry`, attaching the monitor
never touches engine code; evictions are keyed per allocator, so engines
sharing one pool on one bus never count it twice.  :meth:`close` folds
the evictions counted after the last step and detaches, so reused buses
do not keep feeding a dead registry.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ..core.events import (
    AdmissionBlocked,
    Event,
    EventBus,
    QuotaResized,
    RequestPreempted,
    StepCompleted,
)
from ..core.two_level import EVICT_GROUP_PREFIX
from .registry import CounterDeltas, TelemetryRegistry

__all__ = ["PressureMonitor"]

#: EWMA weight for per-step rates: ~the last ``1/alpha`` steps dominate.
_EWMA_ALPHA = 0.2



class PressureMonitor:
    """Fold pressure signals into registry gauges/timelines.

    Subscribes on construction.  Counters (monotonic):

    * ``pressure/admission_blocked`` -- failed admission probes,
    * ``pressure/evictions`` / ``pressure/group/<gid>/evictions``,
    * ``pressure/preemptions``.

    Gauges (folded per step):

    * ``pressure/blocked_rate`` / ``pressure/eviction_rate`` /
      ``pressure/preemption_rate`` -- EWMA events-per-step,
    * ``pressure/group/<gid>/eviction_rate`` -- per-group EWMA,
    * ``pressure/queue_depth`` -- waiting requests behind a blocked head,
    * ``pressure/waste_frac`` / ``pressure/occupancy`` -- from the step's
      :class:`~repro.engine.metrics.MemorySnapshot` (needs
      ``record_memory``); occupancy counts only non-reclaimable bytes,
      mirroring :class:`~repro.serving.replica.ReplicaLoad.pressure`,
    * ``pressure/score`` -- composite in ``[0, 1]``.

    ``pressure/score`` and ``pressure/waste_frac`` are also recorded as
    sim-clock timelines, so the squeeze is plottable next to the ``mem/*``
    tracks in the merged cluster trace.
    """

    _EVENT_TYPES = (
        AdmissionBlocked,
        QuotaResized,
        RequestPreempted,
        StepCompleted,
    )

    def __init__(
        self, events: EventBus, registry: Optional[TelemetryRegistry] = None
    ) -> None:
        self.events = events
        self.registry = registry if registry is not None else TelemetryRegistry()
        self._closed = False
        # Current-step accumulators, zeroed at every StepCompleted.
        self._blocks = 0
        self._evictions = 0
        self._preemptions = 0
        self._group_window: Dict[str, int] = {}
        # EWMA state per rate name (and per group id).
        self._rates: Dict[str, float] = {}
        self._group_rates: Dict[str, float] = {}
        # Memoized counter/gauge key strings per group id, so a step pays
        # no f-string per group.
        self._group_count_keys: Dict[str, str] = {}
        self._group_rate_keys: Dict[str, str] = {}
        self._group_quota_keys: Dict[str, str] = {}
        self.score = 0.0
        # Latest simulated-clock step time, so resize timeline points land
        # next to the pressure/score track even though QuotaResized itself
        # carries no timestamp.
        self._time = 0.0
        self._deltas = CounterDeltas()
        events.subscribe(self._on_event, self._EVENT_TYPES)

    def close(self) -> None:
        """Fold evictions counted since the last step, then unsubscribe
        (idempotent)."""
        if not self._closed:
            self._count_evictions(self._deltas.sample_all())
            self.events.unsubscribe(self._on_event)
            self._closed = True

    # ------------------------------------------------------------------

    def gauges(self) -> Dict[str, float]:
        """The registry's ``pressure/*`` gauges (reporting convenience)."""
        out = {}
        for name, value in self.registry.gauges.items():
            if name.startswith("pressure/"):
                out[name] = value
        return out

    def group_eviction_rates(self) -> Dict[str, float]:
        """Per-group EWMA eviction rates (events/step), a fresh copy.

        The per-group pressure component a bound
        :class:`~repro.core.resizer.PoolResizer` folds into its demand
        weights; O(#groups) per call, control-plane only.
        """
        return dict(self._group_rates)

    # ------------------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        reg = self.registry
        if isinstance(event, AdmissionBlocked):
            self._blocks += 1
            reg.inc("pressure/admission_blocked")
            reg.set_gauge("pressure/queue_depth", float(event.queue_depth))
        elif isinstance(event, RequestPreempted):
            self._preemptions += 1
            reg.inc("pressure/preemptions")
        elif isinstance(event, QuotaResized):
            # One record per resize decision (control plane): the quota
            # staircase lands on the sim-clock timeline next to
            # pressure/score, so Chrome traces show each counter step.
            gid = event.group_id
            key = self._group_quota_keys.get(gid)
            if key is None:
                key = self._group_quota_keys[gid] = f"pressure/group/{gid}/quota"
            reg.inc("pressure/quota_resized")
            if event.new_quota is not None:
                reg.set_gauge(key, float(event.new_quota))
                reg.record_point(key, self._time, float(event.new_quota))
        elif isinstance(event, StepCompleted):
            self._on_step(event)

    def _count_evictions(self, deltas: Iterator[Tuple[str, int]]) -> None:
        """Fold the allocators' per-group eviction deltas (both levels)."""
        reg = self.registry
        for key, delta in deltas:
            if not delta or not key.startswith(EVICT_GROUP_PREFIX):
                continue
            gid = key[len(EVICT_GROUP_PREFIX):]
            count_key = self._group_count_keys.get(gid)
            if count_key is None:
                count_key = self._group_count_keys[gid] = f"pressure/group/{gid}/evictions"
                self._group_rate_keys[gid] = f"pressure/group/{gid}/eviction_rate"
                self._group_rates[gid] = 0.0
            self._evictions += delta
            reg.inc("pressure/evictions", delta)
            reg.inc(count_key, delta)
            self._group_window[gid] = self._group_window.get(gid, 0) + delta

    def _on_step(self, event: StepCompleted) -> None:
        reg = self.registry
        self._time = event.time
        if event.engine is not None:
            self._count_evictions(self._deltas.sample(event.engine))
        blocked = self._fold("blocked_rate", self._blocks)
        self._fold("eviction_rate", self._evictions)
        preempted = self._fold("preemption_rate", self._preemptions)
        self._blocks = self._evictions = self._preemptions = 0
        for gid in self._group_rates:
            prev = self._group_rates[gid]
            cur = prev + _EWMA_ALPHA * (self._group_window.get(gid, 0) - prev)
            self._group_rates[gid] = cur
            reg.set_gauge(self._group_rate_keys[gid], cur)
        self._group_window.clear()

        occupancy = 0.0
        record = event.record
        memory = getattr(record, "memory", None)
        if memory is not None:
            total = (
                memory.used_bytes + memory.evictable_bytes
                + memory.waste_bytes + memory.free_bytes
            )
            if total > 0:
                waste_frac = memory.waste_bytes / total
                # Evictable bytes are reclaimable headroom, not occupancy
                # (same convention as ReplicaLoad.pressure).
                occupancy = 1.0 - (memory.free_bytes + memory.evictable_bytes) / total
                reg.set_gauge("pressure/waste_frac", waste_frac)
                reg.set_gauge("pressure/occupancy", occupancy)
                reg.record_point("pressure/waste_frac", event.time, waste_frac)

        score = blocked
        if preempted > score:
            score = preempted
        if occupancy > score:
            score = occupancy
        if score > 1.0:
            score = 1.0
        self.score = score
        reg.set_gauge("pressure/score", score)
        reg.record_point("pressure/score", event.time, score)

    def _fold(self, name: str, window: int) -> float:
        prev = self._rates.get(name, 0.0)
        cur = prev + _EWMA_ALPHA * (window - prev)
        self._rates[name] = cur
        self.registry.set_gauge(f"pressure/{name}", cur)
        return cur
