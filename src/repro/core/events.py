"""The engine's record bus: ordered lifecycle records, nothing counted.

:class:`EventBus` carries the records a consumer needs *in order* --
request lifecycle, routing decisions, quota moves, step completions --
not running counts.  Counts live with their owners and are pulled:
:class:`~repro.core.two_level.TwoLevelAllocator` keeps the §5.4 step mix,
carves, evictions and releases, the KV manager keeps its prefix-lookup
and offload tallies, and the engine keeps its step list and preemption
counts; :meth:`~repro.engine.engine.LLMEngine.counters` is the one read
surface.  What travels on the bus:

* the engine's request lifecycle (:class:`RequestQueued`,
  :class:`RequestAdmitted`, :class:`AdmissionBlocked`,
  :class:`RequestPreempted`, :class:`RequestFinished`,
  :class:`RequestFailed`) and one :class:`StepCompleted` per engine step,
  which carries the emitting engine so counter consumers know whose
  owners to sample;
* the router's :class:`RequestRouted`, on the chosen replica's bus;
* the resizer's :class:`QuotaResized`, one per quota move.

Consumers subscribe callbacks (optionally filtered by event type); the bus
keeps nothing itself, and every emit site is guarded by
:meth:`EventBus.has_subscribers`, so a record nobody subscribes to is
never even constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Type

__all__ = [
    "EventBus",
    "Event",
    "QuotaResized",
    "RequestQueued",
    "RequestAdmitted",
    "AdmissionBlocked",
    "RequestPreempted",
    "RequestFinished",
    "RequestFailed",
    "RequestRouted",
    "StepCompleted",
]


@dataclass(frozen=True)
class Event:
    """Marker base class for all bus records."""


@dataclass(frozen=True)
class QuotaResized(Event):
    """A group's soft large-page quota changed (elastic repartitioning).

    Emitted by :class:`~repro.core.resizer.PoolResizer` exactly once per
    quota move, after :meth:`~repro.core.two_level.TwoLevelAllocator.set_quota`
    ran any deflation reclaim.  ``reclaimed`` counts the fully-evictable /
    unpinned large pages the deflation freed back to the LCM pool (each
    also counted as a large-page eviction by the allocator);
    ``num_owned`` is the group's ownership
    *after* the resize, which may still exceed ``new_quota`` -- quotas are
    soft, and pages pinned by USED small pages are never reclaimed.
    """

    group_id: str
    old_quota: Optional[int]
    new_quota: Optional[int]
    num_owned: int
    reclaimed: int


@dataclass(frozen=True)
class RequestQueued(Event):
    """A request entered the waiting queue (arrival or preemption)."""

    request_id: str
    arrival_time: float


@dataclass(frozen=True)
class RequestAdmitted(Event):
    """The scheduler admitted a waiting request into the running set."""

    request_id: str
    time: float
    cached_tokens: int = 0


@dataclass(frozen=True)
class AdmissionBlocked(Event):
    """The waiting-queue head's admission probe failed; the queue stalls.

    Emitted by the engine at most once per *actual* failed probe (the
    :class:`~repro.engine.scheduler.AdmissionGate` memo suppresses provably
    redundant re-probes, so each record marks a step where pool pressure
    genuinely blocked admission).  ``queue_depth`` counts the waiting
    requests stuck behind the blocked head -- together with eviction
    provenance, preemptions, and the waste timeline this is the pressure
    input the ROADMAP's ``PoolResizer`` acts on.
    """

    request_id: str
    time: float
    queue_depth: int
    num_running: int


@dataclass(frozen=True)
class RequestPreempted(Event):
    """A running request was preempted by recomputation.

    ``reason`` is ``"victim"`` (evicted to make room for another request)
    or ``"self"`` (its own allocation failed with nobody left to evict).
    """

    request_id: str
    time: float
    reason: str = "victim"


@dataclass(frozen=True)
class RequestFinished(Event):
    request_id: str
    time: float


@dataclass(frozen=True)
class RequestFailed(Event):
    """A request can never fit on the GPU (permanent admission failure)."""

    request_id: str
    time: float


@dataclass(frozen=True)
class RequestRouted(Event):
    """One routing decision, emitted on the *chosen* replica's bus.

    Defined here rather than in :mod:`repro.serving.router` so replicas
    (which the router imports) can subscribe to it without a circular
    import; the router re-exports it for its callers.
    """

    request_id: str
    replica_id: str
    policy: str
    expected_hit_tokens: int


@dataclass(frozen=True)
class StepCompleted(Event):
    """One engine step finished.

    ``record`` is the full :class:`~repro.engine.metrics.StepRecord` and
    ``engine`` the emitting :class:`~repro.engine.engine.LLMEngine`, whose
    :meth:`~repro.engine.engine.LLMEngine.counters_by_owner` counter
    consumers sample (both typed ``Any`` to keep the core layer free of
    engine imports).
    """

    index: int
    time: float
    num_preemptions: int
    record: Any = field(default=None, compare=False)
    engine: Any = field(default=None, compare=False)


_Handler = Callable[[Event], None]


class EventBus:
    """Synchronous pub/sub dispatcher.

    The bus stores nothing: :meth:`emit` calls every subscriber whose type
    filter matches, and :meth:`has_subscribers` returns ``False`` for event
    types nobody listens to.  Emit call sites guard event construction with
    that check (the "event-bus fast path"), so emission on an unobserved
    bus is close to free.  Consumers that want history subscribe a
    recorder (``bus.subscribe(seen.append, [RequestQueued])``).
    """

    def __init__(self) -> None:
        self._subscribers: List[Tuple[Optional[Tuple[Type[Event], ...]], _Handler]] = []
        # Per-event-type interest cache for has_subscribers(); invalidated
        # on every subscribe/unsubscribe so lookups stay O(1) amortised.
        self._interest: Dict[Type[Event], bool] = {}

    def has_subscribers(self, event_type: Type[Event]) -> bool:
        """Would an emitted ``event_type`` reach any subscriber right now?

        Call sites use this to skip constructing event dataclasses nobody
        would see::

            if events is not None and events.has_subscribers(RequestQueued):
                events.emit(RequestQueued(...))
        """
        cached = self._interest.get(event_type)
        if cached is None:
            cached = any(
                types is None or issubclass(event_type, types)
                for types, _ in self._subscribers
            )
            self._interest[event_type] = cached
        return cached

    def emit(self, event: Event) -> None:
        """Publish ``event`` to every matching handler."""
        for types, handler in self._subscribers:
            if types is None or isinstance(event, types):
                handler(event)

    def subscribe(
        self,
        handler: _Handler,
        event_types: Optional[Iterable[Type[Event]]] = None,
    ) -> _Handler:
        """Register ``handler`` for all events (or only ``event_types``).

        Returns the handler so it can be passed to :meth:`unsubscribe`.
        """
        types = tuple(event_types) if event_types is not None else None
        self._subscribers.append((types, handler))
        self._interest.clear()
        return handler

    def unsubscribe(self, handler: _Handler) -> bool:
        """Remove every subscription of ``handler``; return whether any existed.

        Matches by equality, not identity: ``obj.method`` builds a fresh
        bound-method object on every attribute access, so an identity test
        would never match the object stored at subscribe time.
        """
        before = len(self._subscribers)
        self._subscribers = [(t, h) for t, h in self._subscribers if h != handler]
        self._interest.clear()
        return len(self._subscribers) < before
