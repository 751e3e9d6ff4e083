"""One serving replica: engine + manager + a private event bus.

A :class:`Replica` is the unit the router balances over -- a full
:class:`~repro.engine.engine.LLMEngine` over its own KV-cache manager,
publishing lifecycle and routing records onto its *own*
:class:`~repro.core.events.EventBus`.  Per-replica counts (prefix hits,
preemptions, pool evictions) are pulled from their owners, so they stay
exact even when managers share an allocator.  Each replica models one
GPU, so replica clocks advance independently;
:class:`~repro.serving.cluster.ServingCluster` owns the cross-replica
event ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..baselines import make_manager
from ..core.events import EventBus
from ..core.resizer import PoolResizer
from ..engine.engine import LLMEngine
from ..engine.metrics import EngineMetrics
from ..engine.request import Request
from ..engine.scheduler import SchedulerConfig
from ..models.config import ModelSpec
from ..obs.pressure import PressureMonitor
from ..obs.registry import BusTelemetry, TelemetryRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..platforms.gpu import GPU

__all__ = ["Replica", "ReplicaLoad"]


@dataclass(frozen=True)
class ReplicaLoad:
    """Point-in-time pressure signals the router balances on.

    ``available_bytes`` counts free *plus* evictable pool bytes: cached
    prefixes are reclaimable headroom, not occupancy, so a replica full of
    evictable cache is as admittable as an empty one.
    """

    num_running: int
    num_waiting: int
    available_bytes: int
    total_bytes: int

    @property
    def queue_depth(self) -> int:
        return self.num_running + self.num_waiting

    @property
    def pressure(self) -> float:
        """Fraction of the pool not reclaimable right now (0 = idle)."""
        if self.total_bytes <= 0:
            return 0.0
        return 1.0 - self.available_bytes / self.total_bytes


class Replica:
    """One engine instance addressable by the router.

    Args:
        replica_id: Stable name used in routing events and summaries.
        model: Architecture served by this replica.
        gpu: Platform envelope (drives the engine's cost model).
        kv_bytes: KV-cache region size for this replica's manager.
        system: Registered manager system (``"jenga"``, ``"vllm"``, ...).
        manager: Pre-built manager, overriding ``system``/``kv_bytes``
            construction -- how shared-allocator co-tenant replicas are
            assembled (build views via ``build_shared_managers`` first).
        events: Per-replica bus; a private bus is created when omitted.
        tracer: Per-replica span tracer handed to the engine.  ``None``
            keeps the zero-overhead :data:`~repro.obs.tracer.NULL_TRACER`
            default -- tracing must be opted into per replica.
        telemetry: Attach a per-replica
            :class:`~repro.obs.registry.BusTelemetry` feeding
            ``self.registry``.
        pressure: Attach a per-replica
            :class:`~repro.obs.pressure.PressureMonitor` feeding the same
            registry.
        registry: Registry the monitors write to; a private one is created
            when omitted and any monitor is requested.
        resizing: Name of a registered
            :class:`~repro.core.resizer.ResizePolicy` (``"static"`` /
            ``"proportional"`` / ``"hysteresis"``); attaches a per-replica
            :class:`~repro.core.resizer.PoolResizer` closing the pressure
            feedback loop.  Requires ``pressure=True`` (the control
            signal) and a manager exposing a two-level ``allocator`` (the
            actuated surface).  ``None`` (default) attaches nothing.
        resize_interval: Simulated steps between resize passes.
    """

    def __init__(
        self,
        replica_id: str,
        model: ModelSpec,
        gpu: GPU,
        kv_bytes: int = 0,
        system: str = "jenga",
        config: Optional[SchedulerConfig] = None,
        enable_prefix_caching: bool = True,
        tokens_per_page: int = 16,
        seed: int = 0,
        manager=None,
        events: Optional[EventBus] = None,
        tracer: Optional[Tracer] = None,
        telemetry: bool = False,
        pressure: bool = False,
        registry: Optional[TelemetryRegistry] = None,
        resizing: Optional[str] = None,
        resize_interval: int = 32,
    ) -> None:
        self.replica_id = replica_id
        self.model = model
        if manager is None:
            if kv_bytes <= 0:
                raise ValueError("kv_bytes is required when no manager is given")
            manager = make_manager(
                system, model, kv_bytes,
                tokens_per_page=tokens_per_page,
                enable_prefix_caching=enable_prefix_caching,
                seed=seed,
            )
        self.manager = manager
        self.events = events if events is not None else EventBus()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Monitors subscribe *before* the engine is built so they see
        # every record it publishes; they share one registry so cluster
        # reports read a single per-replica snapshot.
        self.registry: Optional[TelemetryRegistry] = registry
        if (telemetry or pressure) and self.registry is None:
            self.registry = TelemetryRegistry()
        self.telemetry: Optional[BusTelemetry] = (
            BusTelemetry(self.events, self.registry) if telemetry else None
        )
        self.pressure: Optional[PressureMonitor] = (
            PressureMonitor(self.events, self.registry) if pressure else None
        )
        self.engine = LLMEngine(
            model, gpu, manager, config=config, events=self.events,
            tracer=self.tracer,
        )
        # The resizer subscribes after the monitors so each StepCompleted
        # reaches it with the pressure EWMAs already folded for that step.
        self.resizer: Optional[PoolResizer] = None
        if resizing is not None:
            if self.pressure is None:
                raise ValueError("resizing requires pressure=True (the control signal)")
            self.resizer = PoolResizer(
                manager.allocator, self.pressure, self.events,
                policy=resizing, interval=resize_interval,
            )

    # ------------------------------------------------------------------

    @property
    def clock(self) -> float:
        return self.engine.clock

    def submit(self, request: Request) -> None:
        self.engine.add_request(request)

    def step(self):
        """Advance this replica by one engine step (None when idle)."""
        return self.engine.step()

    def load(self) -> ReplicaLoad:
        stats = self.manager.stats()
        return ReplicaLoad(
            num_running=len(self.engine.running),
            num_waiting=len(self.engine.waiting),
            available_bytes=stats.free_bytes + stats.evictable_bytes,
            total_bytes=stats.total_bytes,
        )

    def ready_time(self) -> Optional[float]:
        """Simulated time at which this replica can next do work.

        Its own clock while requests run; the next queued arrival while
        only waiting; ``None`` when fully idle (nothing to step).
        """
        if self.engine.running:
            return self.engine.clock
        next_arrival = self.engine.waiting.next_arrival()
        if next_arrival is None:
            return None
        return max(self.engine.clock, next_arrival)

    def metrics(self) -> EngineMetrics:
        return self.engine.metrics()

    def close(self) -> None:
        """Detach every subscriber this replica attached (idempotent).

        Reused buses must not keep feeding a dead registry; the monitors
        take their final counter sample on the way out.
        """
        if self.resizer is not None:
            self.resizer.close()
        if self.telemetry is not None:
            self.telemetry.close()
        if self.pressure is not None:
            self.pressure.close()

    def __repr__(self) -> str:
        return f"Replica({self.replica_id!r}, clock={self.engine.clock:.1f})"
