"""PressureMonitor: event folding, engine integration, guarded emission."""

from repro.baselines import make_manager
from repro.core.events import (
    AdmissionBlocked,
    EventBus,
    PageEvicted,
    RequestPreempted,
    StepCompleted,
)
import repro.engine.engine as engine_module
from repro.engine import LLMEngine, Request, SchedulerConfig
from repro.engine.metrics import MemorySnapshot, StepRecord
from repro.engine.scheduler import profile_config
from repro.models import GIB, get_model
from repro.obs import PressureMonitor, TelemetryRegistry
from repro.platforms import H100
from repro.workloads import token_block

MODEL = get_model("llama3.2-1b")


def step_event(index=0, t=1.0, memory=None):
    record = StepRecord(
        index=index, start_time=t, duration=0.01, decode_batch=1,
        prefill_tokens=0, num_running=1, num_waiting=0, num_preemptions=0,
        memory=memory,
    )
    return StepCompleted(index=index, time=t, num_preemptions=0, record=record)


class TestPressureMonitorUnit:
    def test_admission_blocks_feed_counter_and_rate(self):
        bus = EventBus()
        monitor = PressureMonitor(bus)
        assert bus.has_subscribers(AdmissionBlocked)
        bus.emit(AdmissionBlocked("r0", 1.0, queue_depth=3, num_running=2))
        bus.emit(AdmissionBlocked("r0", 1.1, queue_depth=4, num_running=2))
        bus.emit(step_event(t=1.2))
        reg = monitor.registry
        assert reg.counters["pressure/admission_blocked"] == 2
        assert reg.gauges["pressure/queue_depth"] == 4.0
        assert reg.gauges["pressure/blocked_rate"] > 0.0
        assert monitor.score > 0.0
        assert reg.gauges["pressure/score"] == monitor.score

    def test_per_group_eviction_rates(self):
        bus = EventBus()
        monitor = PressureMonitor(bus)
        for _ in range(3):
            bus.emit(PageEvicted("full", 1, "small"))
        bus.emit(PageEvicted("win", 2, "large"))
        bus.emit(step_event())
        reg = monitor.registry
        assert reg.counters["pressure/evictions"] == 4
        assert reg.counters["pressure/group/full/evictions"] == 3
        assert reg.counters["pressure/group/win/evictions"] == 1
        assert (reg.gauges["pressure/group/full/eviction_rate"]
                > reg.gauges["pressure/group/win/eviction_rate"] > 0.0)

    def test_rates_decay_over_quiet_steps(self):
        bus = EventBus()
        monitor = PressureMonitor(bus)
        bus.emit(AdmissionBlocked("r0", 1.0, queue_depth=1, num_running=1))
        bus.emit(step_event(index=0, t=1.0))
        busy = monitor.registry.gauges["pressure/blocked_rate"]
        for i in range(1, 20):
            bus.emit(step_event(index=i, t=1.0 + i))
        quiet = monitor.registry.gauges["pressure/blocked_rate"]
        assert 0.0 < quiet < busy

    def test_memory_snapshot_feeds_waste_and_occupancy(self):
        bus = EventBus()
        monitor = PressureMonitor(bus)
        memory = MemorySnapshot(
            used_by_group={"g": 6000}, evictable_bytes=1000,
            waste_bytes=1000, free_bytes=2000,
        )
        bus.emit(step_event(memory=memory))
        reg = monitor.registry
        assert reg.gauges["pressure/waste_frac"] == 0.1
        # occupancy excludes free + evictable (reclaimable headroom)
        assert reg.gauges["pressure/occupancy"] == 0.7
        assert monitor.score == 0.7  # occupancy dominates with no blocks
        timeline = reg.timelines["pressure/score"]
        assert timeline.last == (1.0, 0.7)

    def test_preemptions_feed_score(self):
        bus = EventBus()
        monitor = PressureMonitor(bus)
        for _ in range(10):
            bus.emit(RequestPreempted("r0", 1.0))
        bus.emit(step_event())
        reg = monitor.registry
        assert reg.counters["pressure/preemptions"] == 10
        assert 0.0 < monitor.score <= 1.0

    def test_score_clipped_to_one(self):
        bus = EventBus()
        monitor = PressureMonitor(bus)
        for i in range(50):
            for _ in range(20):
                bus.emit(AdmissionBlocked("r", float(i), 1, 1))
            bus.emit(step_event(index=i, t=float(i)))
        assert monitor.score == 1.0

    def test_close_is_idempotent_and_detaches(self):
        bus = EventBus()
        monitor = PressureMonitor(bus)
        bus.emit(AdmissionBlocked("r0", 1.0, 1, 1))
        monitor.close()
        monitor.close()
        assert not bus.has_subscribers(AdmissionBlocked)
        bus.emit(AdmissionBlocked("r1", 2.0, 1, 1))  # goes nowhere
        assert monitor.registry.counters["pressure/admission_blocked"] == 1

    def test_shared_registry_adopted(self):
        reg = TelemetryRegistry()
        bus = EventBus()
        monitor = PressureMonitor(bus, registry=reg)
        assert monitor.registry is reg


class TestEngineEmission:
    def _pressured_engine(self, events):
        # ~96 MiB with ~42 MiB per request: roughly two fit, the rest of
        # the waiting queue blocks at admission.
        manager = make_manager("jenga", MODEL, 96 * 1024 * 1024)
        return LLMEngine(
            MODEL, H100, manager,
            config=profile_config("vllm", record_memory=True), events=events,
        )

    def _requests(self, n=12):
        return [
            Request.text(f"p{i}", token_block(0, "press", i, 300), 32)
            for i in range(n)
        ]

    def test_blocked_admission_emits_event(self):
        bus = EventBus()
        blocked = []
        bus.subscribe(blocked.append, [AdmissionBlocked])
        monitor = PressureMonitor(bus)
        engine = self._pressured_engine(bus)
        engine.add_requests(self._requests())
        metrics = engine.run(max_steps=20_000)
        engine.close()
        monitor.close()
        assert len(metrics.requests) == 12
        reg = monitor.registry
        assert reg.counters["pressure/admission_blocked"] > 0
        assert len(blocked) == reg.counters["pressure/admission_blocked"]
        # record_memory=True populated the waste/occupancy gauges too.
        assert "pressure/occupancy" in reg.gauges
        assert len(reg.timelines["pressure/score"].points) > 0

    def test_no_subscriber_means_no_event_constructed(self, monkeypatch):
        built = []

        class CountingBlocked(AdmissionBlocked):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_module, "AdmissionBlocked", CountingBlocked)
        bus = EventBus()  # nobody listening for AdmissionBlocked
        engine = self._pressured_engine(bus)
        engine.add_requests(self._requests())
        engine.run(max_steps=20_000)
        engine.close()
        assert built == []

    def test_gate_suppresses_redundant_block_events(self):
        # The AdmissionGate memo skips provably redundant re-probes, so
        # blocked events must be far rarer than engine steps.
        bus = EventBus()
        monitor = PressureMonitor(bus)
        engine = self._pressured_engine(bus)
        engine.add_requests(self._requests())
        metrics = engine.run(max_steps=20_000)
        engine.close()
        monitor.close()
        blocked = monitor.registry.counters["pressure/admission_blocked"]
        assert 0 < blocked < len(metrics.steps)
