"""Span tracer: null fast path, nesting, phase accounting, Chrome export."""

import json

import pytest

from repro.engine import LLMEngine, Request, SchedulerConfig
from repro.models import GIB, get_model
from repro.obs import (
    NULL_TRACER,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.registry import TelemetryRegistry
from repro.platforms import H100
from repro.workloads import token_block


class FakeClock:
    """Deterministic monotonic clock; tests advance it explicitly."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def tick(self, dt: float) -> None:
        self.t += dt


def make_tracer(**kwargs):
    clock = FakeClock()
    return Tracer(clock=clock, **kwargs), clock


class TestNullFastPath:
    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_disabled_primitives_record_nothing(self):
        tracer = Tracer(capacity=0, enabled=False)
        tracer.begin_span("schedule")
        tracer.instant("marker")
        tracer.counter("depth", 3)
        tracer.step_begin(0)
        assert tracer.step_end() is None
        assert tracer.end_span() is None
        assert len(tracer) == 0
        assert tracer.spans == []
        assert tracer.open_depth == 0

    def test_disabled_span_contextmanager_is_inert(self):
        tracer = Tracer(capacity=0, enabled=False)
        with tracer.span("schedule"):
            pass
        assert len(tracer) == 0

    def test_null_tracer_ring_stays_empty_under_load(self):
        for _ in range(100):
            NULL_TRACER.instant("spam")
        assert len(NULL_TRACER) == 0


class TestSpans:
    def test_single_span_duration(self):
        tracer, clock = make_tracer()
        tracer.begin_span("schedule")
        clock.tick(2.0)
        span = tracer.end_span()
        assert span is not None
        assert span.name == "schedule"
        assert span.start == 0.0
        assert span.duration == 2.0
        assert span.kind == "X"
        assert span.depth == 0

    def test_nesting_depth_and_monotonic_timestamps(self):
        tracer, clock = make_tracer()
        tracer.begin_span("outer")
        clock.tick(1.0)
        tracer.begin_span("inner")
        clock.tick(1.0)
        tracer.end_span()
        clock.tick(1.0)
        tracer.end_span()
        inner, outer = tracer.spans
        assert (inner.name, inner.depth) == ("inner", 1)
        assert (outer.name, outer.depth) == ("outer", 0)
        assert inner.start >= outer.start
        assert outer.duration == 3.0
        assert inner.duration == 1.0
        ends = [s.start + s.duration for s in tracer.spans]
        assert ends == sorted(ends)  # record order is end order

    def test_exclusive_time_pauses_parent(self):
        tracer, clock = make_tracer()
        tracer.step_begin(0)
        clock.tick(1.0)
        tracer.begin_span("schedule")
        clock.tick(2.0)  # schedule self-time
        tracer.begin_span("allocate")
        clock.tick(4.0)  # allocate self-time, not schedule's
        tracer.end_span()
        clock.tick(1.0)  # schedule self-time again
        tracer.end_span()
        phases = tracer.step_end()
        assert phases == {"schedule": 3.0, "allocate": 4.0}

    def test_phases_sum_at_most_step_duration(self):
        tracer, clock = make_tracer()
        tracer.step_begin(0)
        clock.tick(0.5)  # step overhead outside any phase
        tracer.begin_span("schedule")
        clock.tick(2.0)
        tracer.end_span()
        clock.tick(0.5)
        phases = tracer.step_end()
        step_span = tracer.spans[-1]
        assert step_span.name == "step"
        assert sum(phases.values()) <= step_span.duration
        assert step_span.duration == 3.0

    def test_step_totals_reset_between_steps(self):
        tracer, clock = make_tracer()
        for index in range(2):
            tracer.step_begin(index)
            tracer.begin_span("schedule")
            clock.tick(1.0)
            tracer.end_span()
            assert tracer.step_end() == {"schedule": 1.0}

    def test_span_contextmanager_closes_on_error(self):
        tracer, clock = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("schedule"):
                clock.tick(1.0)
                raise RuntimeError("boom")
        assert tracer.open_depth == 0
        assert tracer.spans[-1].duration == 1.0

    def test_capacity_is_a_ring(self):
        tracer, clock = make_tracer(capacity=4)
        for i in range(10):
            tracer.instant(f"i{i}")
        assert len(tracer) == 4
        assert [s.name for s in tracer.spans] == ["i6", "i7", "i8", "i9"]

    def test_instant_and_counter_kinds(self):
        tracer, _ = make_tracer()
        tracer.instant("queue/push", cat="scheduler", args={"depth": 3})
        tracer.counter("engine/running", 7)
        instant, counter = tracer.spans
        assert (instant.kind, instant.duration) == ("i", 0.0)
        assert counter.kind == "C"
        assert counter.args == {"value": 7}

    def test_clear_keeps_open_spans(self):
        tracer, clock = make_tracer()
        tracer.begin_span("outer")
        tracer.instant("marker")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.open_depth == 1
        clock.tick(1.0)
        assert tracer.end_span() is not None


class TestChromeExport:
    def _populated(self):
        tracer, clock = make_tracer()
        tracer.step_begin(0)
        clock.tick(0.001)
        tracer.begin_span("schedule")
        clock.tick(0.002)
        tracer.end_span()
        tracer.instant("queue/push", cat="scheduler", args={"depth": 1})
        tracer.counter("engine/running", 2)
        tracer.step_end()
        return tracer

    def test_round_trips_through_json(self):
        payload = chrome_trace(self._populated())
        decoded = json.loads(json.dumps(payload))
        assert decoded == payload
        assert decoded["displayTimeUnit"] == "ms"

    def test_valid_phases_and_timestamps(self):
        payload = chrome_trace(self._populated())
        count = validate_chrome_trace(payload)
        assert count == len(payload["traceEvents"])
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert phases == {"M", "X", "i", "C"}
        for event in payload["traceEvents"]:
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
                assert event["ts"] >= 0.0

    def test_memory_timeline_on_separate_pid(self):
        registry = TelemetryRegistry()
        registry.record_point("mem/used", 1.5, 4096.0)
        payload = chrome_trace(self._populated(), registry)
        validate_chrome_trace(payload)
        mem = [e for e in payload["traceEvents"] if e["name"] == "mem/used"]
        assert mem and all(e["pid"] == 1 and e["ph"] == "C" for e in mem)
        walls = [e for e in payload["traceEvents"] if e.get("cat") == "phase"]
        assert walls and all(e["pid"] == 0 for e in walls)

    def test_write_validates_and_is_loadable(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), self._populated())
        with open(path) as f:
            decoded = json.load(f)
        assert validate_chrome_trace(decoded) > 0

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z", "name": "x"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0,
                                  "ts": -1.0, "dur": 0.0}]}
            )


class TestEngineIntegration:
    def _traced_engine(self):
        model = get_model("llama3-8b")
        from repro.baselines import make_manager

        manager = make_manager("jenga", model, 2 * GIB)
        tracer = Tracer()
        engine = LLMEngine(
            model, H100, manager, config=SchedulerConfig(), tracer=tracer
        )
        requests = [
            Request.text(f"t{i}", token_block(0, "t", i, 64), 8)
            for i in range(4)
        ]
        engine.add_requests(requests)
        return engine, tracer

    def test_step_records_carry_phases(self):
        engine, tracer = self._traced_engine()
        metrics = engine.run()
        assert metrics.steps, "no steps ran"
        for record in metrics.steps:
            assert record.phases is not None
            assert "schedule" in record.phases
            assert all(v >= 0.0 for v in record.phases.values())
        assert tracer.open_depth == 0

    def test_phase_sums_bounded_by_step_spans(self):
        engine, tracer = self._traced_engine()
        metrics = engine.run()
        step_spans = [s for s in tracer.spans if s.cat == "step"]
        assert len(step_spans) == len(metrics.steps)
        slack = 1e-9  # float accumulation across pause/resume marks
        for record, span in zip(metrics.steps, step_spans):
            assert sum(record.phases.values()) <= span.duration + slack

    def test_untraced_engine_records_no_phases(self):
        model = get_model("llama3-8b")
        from repro.baselines import make_manager

        manager = make_manager("jenga", model, 2 * GIB)
        engine = LLMEngine(model, H100, manager, config=SchedulerConfig())
        engine.add_requests(
            [Request.text("t0", token_block(0, "t", 0, 64), 4)]
        )
        metrics = engine.run()
        assert all(r.phases is None for r in metrics.steps)
        assert len(engine.tracer) == 0  # NULL_TRACER stayed empty

    def test_traced_trace_exports_valid(self, tmp_path):
        engine, tracer = self._traced_engine()
        engine.run()
        path = tmp_path / "engine_trace.json"
        write_chrome_trace(str(path), tracer)
        with open(path) as f:
            assert validate_chrome_trace(json.load(f)) > 0
