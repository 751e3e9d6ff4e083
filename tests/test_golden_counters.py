"""Golden telemetry counters: four small fixed-seed runs, exact equality.

The ``BusTelemetry`` (and, where attached, ``PressureMonitor``) counter
snapshot of each run below is committed in
``tests/data/golden_counters.json``.  The runs cover a private pool under
eviction and preemption (gemma2 + ShareGPT), a cross-attention vision
model (llama3.2-vision + MMMU-pro), two tenants sharing one pool on one
bus with a resizer closing the pressure loop (the case where per-engine
sampling would double-count pool evictions), and a two-replica cluster
behind the cache-aware router.  Any change in what the counters report
-- a step miscounted, a rollback counted as an allocation, a shared pool
folded twice -- shows up as an exact mismatch.

Regenerate (only when a change is meant to alter the counts) with::

    PYTHONPATH=src python -m tests.test_golden_counters
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict

import pytest

from repro.baselines import make_manager
from repro.core.events import EventBus
from repro.core.resizer import PoolResizer
from repro.engine import LLMEngine
from repro.engine.multi_model import MultiModelEngine
from repro.engine.scheduler import profile_config
from repro.models import get_model
from repro.obs.pressure import PressureMonitor
from repro.obs.registry import BusTelemetry, TelemetryRegistry
from repro.platforms import H100, L4
from repro.platforms.gpu import kv_budget
from repro.workloads import mmmu_pro, sharegpt

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_counters.json")


def _engine_run(model_name: str, gpu, requests, kv_divisor: int) -> Dict[str, int]:
    model = get_model(model_name)
    kv = kv_budget(model, gpu).kv_bytes // kv_divisor
    bus = EventBus()
    telemetry = BusTelemetry(bus)
    engine = LLMEngine(
        model, gpu, make_manager("jenga", model, kv),
        config=profile_config("vllm", record_memory=True), events=bus,
    )
    engine.add_requests(requests(model))
    engine.run(max_steps=20_000)
    telemetry.close()
    return dict(telemetry.registry.counters)


def gemma2_sharegpt() -> Dict[str, int]:
    return _engine_run("gemma2-9b", L4, lambda m: sharegpt(24, seed=3), 4)


def vision_mmmu() -> Dict[str, int]:
    return _engine_run(
        "llama3.2-vision-11b", H100, lambda m: mmmu_pro(10, m, seed=3), 48
    )


def shared_pool_one_bus() -> Dict[str, int]:
    from repro.bench.alloc import elastic_requests

    model = get_model("gemma2-2b")
    bus = EventBus()
    registry = TelemetryRegistry()
    telemetry = BusTelemetry(bus, registry)
    monitor = PressureMonitor(bus, registry)
    engine = MultiModelEngine(
        {"a": model, "b": model}, L4, kv_budget(model, L4).kv_bytes // 16,
        shared=True, events=bus,
        config=profile_config("vllm", record_memory=True),
    )
    resizer = PoolResizer(
        engine.engines["a"].manager.allocator, monitor, bus,
        policy="proportional", interval=8,
    )
    for tenant, batch in elastic_requests(4, 6, output_tokens=48, seed=5).items():
        engine.add_requests(tenant, batch)
    engine.run(max_steps=20_000)
    resizer.close()
    monitor.close()
    telemetry.close()
    return dict(registry.counters)


def two_replica_cluster() -> Dict[str, int]:
    from repro.bench.alloc import fanout_requests
    from repro.serving import ServingCluster

    model = get_model("gemma2-9b")
    cluster = ServingCluster.build(
        model, L4, kv_budget(model, L4).kv_bytes // 12, 2,
        policy="cache_aware", config=profile_config("vllm", record_memory=True),
        seed=2, telemetry=True, pressure=True,
    )
    cluster.submit(fanout_requests(4, num_families=3, seed=2))
    cluster.run()
    cluster.close()
    merged: Dict[str, int] = {}
    for replica in cluster.replicas:
        for key, value in replica.registry.counters.items():
            merged[key] = merged.get(key, 0) + value
    return merged


RUNS: Dict[str, Callable[[], Dict[str, int]]] = {
    "gemma2_sharegpt": gemma2_sharegpt,
    "vision_mmmu": vision_mmmu,
    "shared_pool_one_bus": shared_pool_one_bus,
    "two_replica_cluster": two_replica_cluster,
}


def _golden() -> Dict[str, Dict[str, int]]:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_counters_match_golden(name):
    assert RUNS[name]() == _golden()[name]


def test_golden_runs_exercise_the_counted_paths():
    # Guard against a golden file that pins only zeros: each run must hit
    # the paths its counters describe.
    golden = _golden()
    assert golden["gemma2_sharegpt"].get("evict/large", 0) > 0
    assert golden["gemma2_sharegpt"].get("preempt/victim", 0) > 0
    assert golden["vision_mmmu"].get("alloc/pages", 0) > 0
    assert golden["shared_pool_one_bus"].get("resize/quota_resized", 0) > 0
    assert golden["vision_mmmu"].get("evict/small", 0) > 0
    assert golden["shared_pool_one_bus"].get("pressure/evictions", 0) > 0
    assert golden["shared_pool_one_bus"].get("resize/reclaimed_large", 0) > 0
    assert golden["two_replica_cluster"].get("prefix/hit_tokens", 0) > 0
    assert golden["two_replica_cluster"].get("routing/requests", 0) > 0


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as f:
        json.dump({name: run() for name, run in sorted(RUNS.items())},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")
