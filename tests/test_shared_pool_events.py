"""Shared-allocator counters: one pool, many views, nothing counted twice.

Several :class:`~repro.core.kv_manager.JengaKVCacheManager` views share
one :class:`~repro.core.two_level.TwoLevelAllocator`.  The pool's counts
(allocations per §5.4 step, carves, evictions, releases) live in that one
allocator; each view keeps only its own prefix-lookup and offload counts.
Consumers key their deltas by owner, so an engine's telemetry sees the
whole pool (every view's allocations) plus its own view, and two engines
on one bus never fold the pool twice.  Admission likewise reads the one
allocator's pool version, so cross-engine churn can never stale it.
"""

import pytest

from repro.core.events import EventBus
from repro.core.kv_manager import JengaKVCacheManager
from repro.core.layer_policy import FULL_ATTENTION, GroupSpec, make_policy
from repro.core.sequence import TEXT, SequenceSpec
from repro.core.two_level import TwoLevelAllocator
from repro.engine.multi_model import MultiModelEngine
from repro.engine.scheduler import profile_config
from repro.models import get_model
from repro.obs.registry import BusTelemetry
from repro.platforms import L4
from repro.platforms.gpu import kv_budget
from repro.workloads import sharegpt

_TEXT = frozenset({TEXT})

# 4 tokens/page x 64 bytes/token = 256-byte pages; both groups identical so
# one small page == one large page and the shared pool is easy to reason
# about: ``total_bytes / 256`` pages up for grabs between the two views.
_PAGE_TOKENS = 4
_PAGE_BYTES = 256
_NUM_PAGES = 64


def _specs(prefix):
    gid = f"{prefix}/full"
    return {
        gid: GroupSpec(
            gid, FULL_ATTENTION, 1, 64, tokens_per_page=_PAGE_TOKENS,
            accepted_tags=_TEXT,
        )
    }


def _shared_pair():
    """Two manager views over one shared pool (build_shared_managers shape)."""
    specs_a, specs_b = _specs("a"), _specs("b")
    all_specs = {**specs_a, **specs_b}
    policies = {g: make_policy(s) for g, s in all_specs.items()}
    allocator = TwoLevelAllocator(
        _PAGE_BYTES * _NUM_PAGES, all_specs, policies, enable_prefix_caching=True
    )
    total = _PAGE_BYTES * _NUM_PAGES
    ma = JengaKVCacheManager(specs_a, total, shared_allocator=allocator)
    mb = JengaKVCacheManager(specs_b, total, shared_allocator=allocator)
    return allocator, ma, mb


def _fill_through(manager, request_id, tokens):
    """Hold ``tokens`` worth of pages through ``manager`` (USED, not evictable)."""
    seq = SequenceSpec.text_only(request_id, [hash((request_id, t)) & 0x7FFFFFFF
                                              for t in range(tokens)])
    manager.begin_request(seq)
    assert manager.allocate_up_to(seq, tokens)
    manager.commit(seq, tokens, now=0.0, phase="prefill")
    return seq


def run_two_tenants(events=None):
    """Two gemma2-2b tenants loading one shared pool at once, with a
    ``BusTelemetry`` on each engine's private bus (or on ``events``, if
    both engines share it); returns the engine and each bus's counters."""
    model = get_model("gemma2-2b")
    multi = MultiModelEngine(
        {"a": model, "b": model}, L4, kv_budget(model, L4).kv_bytes // 16,
        shared=True, config=profile_config("vllm"), events=events,
    )
    buses = [events] if events is not None else [
        e.events for e in multi.engines.values()
    ]
    telemetry = [BusTelemetry(bus) for bus in buses]
    multi.add_requests("a", sharegpt(8, seed=1))
    multi.add_requests("b", sharegpt(8, seed=2))
    multi.run(max_steps=20_000)
    for t in telemetry:
        t.close()
    return multi, [t.registry.counters for t in telemetry]


class TestBusStealingRegression:
    def test_can_admit_matches_uncached_after_cross_engine_churn(self):
        """Two views over one pool, cross-view churn in between probes:
        the cached and uncached admission verdicts must agree, because
        every view reads the shared allocator's live counters."""
        _, ma, mb = _shared_pair()
        # Against the empty pool, a probe needing the whole pool is
        # (exactly) admissible.
        probe = SequenceSpec.text_only(
            "probe", list(range(_NUM_PAGES * _PAGE_TOKENS))
        )
        assert mb.can_admit(probe) is True
        assert mb.can_admit(probe) == mb.can_admit_uncached(probe)

        # Half the pool becomes USED through view A; B re-probes.
        _fill_through(ma, "filler-a", _NUM_PAGES // 2 * _PAGE_TOKENS)
        assert mb.can_admit(probe) == mb.can_admit_uncached(probe)
        assert mb.can_admit_uncached(probe) is False

    def test_sibling_buses_receive_pool_events(self):
        """Two engines over one pool, each on its own bus: telemetry on
        either bus reads the whole pool (both tenants' traffic), because
        both views name the one allocator as their pool owner, while its
        prefix counts are its own view's."""
        multi, (counters_a, counters_b) = run_two_tenants()
        allocator = multi.engines["a"].manager.allocator
        views = {name: e.manager for name, e in multi.engines.items()}
        assert views["a"].counter_sources()[1] is views["b"].counter_sources()[1]
        pool = allocator.counters()
        assert pool["evict/large"] > 0
        for counters, name in ((counters_a, "a"), (counters_b, "b")):
            for key in ("alloc/pages", "alloc/large_carved", "evict/large",
                        "release/freed"):
                assert counters[key] == pool[key]
            assert counters["prefix/lookups"] == views[name].counters()["prefix/lookups"]

    def test_manager_level_events_stay_per_view(self):
        """Prefix lookups are per-view traffic: they are counted by the
        view that ran them, and a sibling's counters do not move."""
        _, ma, mb = _shared_pair()
        seq = _fill_through(ma, "lookup-a", 8 * _PAGE_TOKENS)
        ma.release(seq, cacheable=True)
        again = SequenceSpec.text_only(
            "lookup-a2", [hash(("lookup-a", t)) & 0x7FFFFFFF for t in range(8 * _PAGE_TOKENS)]
        )
        ma.begin_request(again)
        ma.release(again, cacheable=True)
        assert ma.counters()["prefix/lookups"] == 2
        assert ma.counters()["prefix/hit_tokens"] > 0
        assert mb.counters() == {}


class TestSharedPoolTelemetry:
    def test_one_bus_folds_the_shared_pool_once(self):
        multi, (counters,) = run_two_tenants(events=EventBus())
        pool = multi.engines["a"].manager.allocator.counters()
        assert counters["alloc/pages"] == pool["alloc/pages"]
        assert counters["evict/large"] == pool["evict/large"]
        views = [e.manager.counters() for e in multi.engines.values()]
        assert counters["prefix/lookups"] == sum(v["prefix/lookups"] for v in views)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
