"""The traced pass: spans and counters at each layer boundary.

Nothing here reaches inside the program.  Spans are recorded from the
benchmark's side of each public call:

* a delegating proxy around every ``KVCacheManager`` (``kv.<method>``);
* instance wrappers around ``LLMEngine.step`` (``engine.step``),
  ``Router.route`` (``router.route``) and ``ServingCluster.step``
  (``cluster.step``);
* a :class:`~repro.obs.registry.BusTelemetry` subscriber per engine bus,
  an ``AdmissionBlocked`` counter, and ``manager.stats()`` sampled after
  every engine step.

Each span carries a name, start, end, parent span and request id.  Self
time (duration minus the children's durations) is accumulated online for
every span; the first ``EXPORT_CAP`` spans are kept for the Chrome trace.
"""

from __future__ import annotations

import json
import os
from array import array
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

from repro.core.events import AdmissionBlocked
from repro.obs.export import validate_chrome_trace
from repro.core.math_utils import percentile
from repro.obs.registry import BusTelemetry, TelemetryRegistry

#: Manager protocol methods timed by the proxy.
KV_METHODS = (
    "begin_request", "can_admit", "allocate_up_to", "commit", "release",
    "allocate_vision", "consume_vision",
)

#: Spans kept for the Chrome trace; later ones only feed the statistics.
EXPORT_CAP = 50_000


class SpanRecorder:
    """In-memory span store with online per-name duration/self-time."""

    def __init__(self) -> None:
        self.epoch = perf_counter()
        self._stack: List[list] = []
        self._next_id = 0
        self.durations: Dict[str, array] = {}
        self.self_times: Dict[str, array] = {}
        self.spans: List[tuple] = []

    def begin(self, name: str, request_id: Optional[str] = None) -> None:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([name, request_id, 0.0, span_id, parent, perf_counter()])

    def end(self) -> None:
        end = perf_counter()
        name, request_id, child, span_id, parent, start = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        if name not in self.durations:
            self.durations[name] = array("d")
            self.self_times[name] = array("d")
        self.durations[name].append(duration)
        self.self_times[name].append(duration - child)
        if len(self.spans) < EXPORT_CAP:
            self.spans.append((name, start, end, span_id, parent, request_id))

    def chrome_trace(self) -> dict:
        events: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "perfbench (wall clock)"},
        }]
        for name, start, end, span_id, parent, request_id in self.spans:
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (start - self.epoch) * 1e6, "dur": (end - start) * 1e6,
                "pid": 0, "tid": 0,
                "args": {"span": span_id, "parent": parent, "request": request_id},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def self_time_table(self) -> List[str]:
        total = sum(sum(v) for v in self.self_times.values()) or 1.0
        lines = [f"{'span':<22} {'calls':>9} {'total_ms':>11} {'self_ms':>11} {'self%':>6}"]
        for name in sorted(self.self_times, key=lambda n: -sum(self.self_times[n])):
            own = sum(self.self_times[name])
            lines.append(
                f"{name:<22} {len(self.durations[name]):>9} "
                f"{sum(self.durations[name]) * 1e3:>11.1f} {own * 1e3:>11.1f} "
                f"{100.0 * own / total:>6.1f}"
            )
        return lines


class KVProxy:
    """Delegating proxy timing the manager protocol calls the engine makes."""

    def __init__(self, manager, recorder: SpanRecorder, outcomes: Dict[str, List[int]]) -> None:
        self._manager = manager
        for method in KV_METHODS:
            setattr(self, method, self._timed(method, getattr(manager, method),
                                              recorder, outcomes))

    @staticmethod
    def _timed(method: str, fn, recorder: SpanRecorder, outcomes: Dict[str, List[int]]):
        name = f"kv.{method}"
        begin, end = recorder.begin, recorder.end
        counts = outcomes.setdefault(method, [0, 0])  # [calls returning falsy, calls]

        def call(seq, *args, **kwargs):
            begin(name, seq.request_id)
            try:
                result = fn(seq, *args, **kwargs)
            finally:
                end()
            counts[1] += 1
            if result is False:
                counts[0] += 1
            return result

        return call

    def __getattr__(self, attr):
        return getattr(self._manager, attr)


class Tracing:
    """Hooks of a traced pass (see :class:`workloads.NoTrace`)."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.outcomes: Dict[str, List[int]] = {}
        self.registries: List[TelemetryRegistry] = []
        self.telemetry: List[BusTelemetry] = []
        self.admission_blocked = 0
        self.managers: list = []
        self.mem: Dict[str, array] = {k: array("d") for k in ("used", "waste", "evictable")}

    def manager(self, manager):
        proxy = KVProxy(manager, self.recorder, self.outcomes)
        self.managers.append(manager)
        return proxy

    def engine(self, engine) -> None:
        registry = TelemetryRegistry()
        self.registries.append(registry)
        self.telemetry.append(BusTelemetry(engine.events, registry))
        engine.events.subscribe(self._on_blocked, [AdmissionBlocked])
        engine.step = self._wrap(engine.step, "engine.step")

    def router(self, router) -> None:
        begin, end = self.recorder.begin, self.recorder.end
        route = router.route

        def traced_route(request):
            begin("router.route", request.request_id)
            try:
                return route(request)
            finally:
                end()

        router.route = traced_route

    def cluster_step(self, fn):
        return self._wrap(fn, "cluster.step")

    def after_step(self) -> None:
        mem = self.mem
        for manager in self.managers:
            stats = manager.stats()
            total = stats.total_bytes
            mem["used"].append(stats.used_bytes / total)
            mem["waste"].append(stats.waste_bytes / total)
            mem["evictable"].append(stats.evictable_bytes / total)

    def close(self) -> None:
        for telemetry in self.telemetry:
            telemetry.close()

    def _on_blocked(self, event) -> None:
        self.admission_blocked += 1

    def _wrap(self, fn, name: str):
        begin, end = self.recorder.begin, self.recorder.end

        def traced():
            begin(name)
            try:
                return fn()
            finally:
                end()

        return traced

    def counters(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for registry in self.registries:
            for key, value in registry.snapshot()["counters"].items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def write_trace(self, path: str) -> int:
        payload = self.recorder.chrome_trace()
        count = validate_chrome_trace(payload)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(payload, f)
        return count


def layer_metrics(tracing: Tracing, p, sim: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass ``p`` (a ``workloads.Pass``)."""
    rec = tracing.recorder
    counters = tracing.counters()
    sent = max(1, len(p.sent))
    out: Dict[str, float] = {}

    route = rec.durations.get("router.route", array("d"))
    out["router.route.p50_us"] = percentile(route, 0.5) * 1e6
    out["router.route.p99_us"] = percentile(route, 0.99) * 1e6
    if p.router is not None:
        counts = p.router.routed_counts
        holders = sum(1 for r in p.sent if r.cached_prompt_tokens > 0)
        out["router.holder_frac"] = holders / sent
        out["router.imbalance"] = max(counts) / (sum(counts) / len(counts))
    else:
        out["router.holder_frac"] = 0.0
        out["router.imbalance"] = 0.0
    out["cluster.dispatch_lag_max_s"] = p.dispatch_lag_max

    step_self = rec.self_times.get("engine.step", array("d"))
    out["engine.step_self.p50_us"] = percentile(step_self, 0.5) * 1e6
    out["engine.step_self.p99_us"] = percentile(step_self, 0.99) * 1e6
    waits = [r.first_scheduled_time - r.arrival_time for r in p.sent
             if r.first_scheduled_time is not None]
    out["engine.queue_wait.p50_s"] = percentile(waits, 0.5)
    out["engine.queue_wait.p99_s"] = percentile(waits, 0.99)
    steps = [s for e in p.engines for s in e.steps]
    out["engine.decode_batch.mean"] = sum(s.decode_batch for s in steps) / max(1, len(steps))
    preempted = sum(v for k, v in counters.items() if k.startswith("preempt/"))
    out["engine.preemptions_per_req"] = preempted / sent
    out["engine.admission_blocked_per_req"] = tracing.admission_blocked / sent

    prefill = [s.duration for s in steps if s.prefill_tokens > 0]
    decode = [s.duration for s in steps if s.prefill_tokens == 0]
    out["cost_model.prefill_step.p50_ms"] = percentile(prefill, 0.5) * 1e3
    out["cost_model.decode_step.p50_ms"] = percentile(decode, 0.5) * 1e3

    for method in KV_METHODS:
        durations = rec.durations.get(f"kv.{method}", array("d"))
        out[f"kv.{method}.calls"] = len(durations)
        out[f"kv.{method}.p50_us"] = percentile(durations, 0.5) * 1e6
        out[f"kv.{method}.p99_us"] = percentile(durations, 0.99) * 1e6
        out[f"kv.{method}.total_ms"] = sum(durations) * 1e3
    refused, calls = tracing.outcomes.get("can_admit", [0, 0])
    out["kv.can_admit.refused_frac"] = refused / max(1, calls)
    failed, calls = tracing.outcomes.get("allocate_up_to", [0, 0])
    out["kv.allocate_up_to.fail_frac"] = failed / max(1, calls)

    pages = counters.get("alloc/pages", 0)
    out["alloc.pages_per_req"] = pages / sent
    out["alloc.large_carved"] = counters.get("alloc/large_carved", 0)
    for n in range(1, 6):
        out[f"alloc.step{n}_frac"] = counters.get(f"alloc/step/{n}", 0) / max(1, pages)
    for key in ("used", "waste", "evictable"):
        values = tracing.mem[key]
        out[f"mem.{key}_frac.p50"] = median(values) if len(values) else 0.0

    evicted = sum(v for k, v in counters.items()
                  if k.startswith("evict/") and not k.startswith("evict/priority/"))
    out["evict.pages_per_req"] = evicted / sent
    out["evict.aligned_frac"] = counters.get("evict/priority/aligned", 0) / max(1, evicted)

    out["prefix.hit_token_frac"] = (
        counters.get("prefix/hit_tokens", 0) / max(1, counters.get("prefix/lookup_tokens", 0))
    )
    prompt = sum(m.prompt_len for m in p.finished)
    out["prefix.prompt_cached_frac"] = (
        sum(m.cached_prompt_tokens for m in p.finished) / max(1, prompt)
    )
    released = counters.get("release/cached", 0) + counters.get("release/freed", 0)
    out["prefix.release_cached_frac"] = counters.get("release/cached", 0) / max(1, released)

    for key in ("ttft_p90_s", "ttft_p99_s", "slo_attainment", "max_rate_rps", "failed_frac"):
        out[f"client.{key}"] = sim.get(key, 0.0)
    return out
