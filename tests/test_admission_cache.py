"""Admission tests: pool version, demand memo, cached/uncached cross-check.

``can_admit`` reads the pool side live from the allocator's counters and
memoizes only the per-request demand (``repro.core.admission``);
``can_admit_uncached`` is the recompute-everything cross-check.  The
engine skips re-probing a blocked head while the allocator's monotone
``pool_version`` (``admission_version()``) is unchanged.  These tests pin
down:

* the version contract -- every pool state change (allocation, release,
  prefix-hit reactivation, eviction, cache-index displacement, a quota
  change) bumps the version, and nothing else does, bus traffic included;
  every pool record is delivered only after its version bump;
* the hypothesis property that an unchanged version means unchanged
  ``can_admit_uncached`` verdicts under randomized churn, on a private
  allocator and on two views of a shared one;
* the prefix-hit and displacement regressions -- both state changes move
  no page through allocate/release, and both once left admission stale;
* the hypothesis property ``can_admit(...) == can_admit_uncached(...)``
  at every step of randomized allocate/commit/release/append churn;
* the engine's blocked-probe gate -- skipping a re-probe while the
  version is unchanged must not change scheduling outcomes, and must
  actually eliminate the per-step prefix-lookup rescans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import (
    EventBus,
    LargePageCarved,
    PageAllocated,
    PageEvicted,
    PageEvictedToHost,
    PageReleased,
    PagesAllocated,
    PrefixHit,
    QuotaResized,
    RequestAdmitted,
    RequestQueued,
    StepCompleted,
)
from repro.core.kv_manager import JengaKVCacheManager
from repro.core.layer_policy import FULL_ATTENTION, GroupSpec, SLIDING_WINDOW, make_policy
from repro.core.sequence import TEXT, SequenceSpec
from repro.core.two_level import TwoLevelAllocator
from repro.engine import LLMEngine, Request, SchedulerConfig
from repro.engine.scheduler import AdmissionGate
from repro.models import get_model
from repro.platforms import H100
from repro.serving import Replica
from repro.workloads import token_block

T = frozenset({TEXT})

POOL_EVENTS = (
    PageAllocated, PagesAllocated, LargePageCarved, PageEvicted, PageReleased,
    QuotaResized,
)


def hetero_specs(tpp=4, window=8):
    return {
        "full": GroupSpec("full", FULL_ATTENTION, 2, 64, tokens_per_page=tpp,
                          accepted_tags=T),
        "win": GroupSpec("win", SLIDING_WINDOW, 2, 64, tokens_per_page=tpp,
                         window=window, accepted_tags=T),
    }


def full_only_specs():
    return {
        "full": GroupSpec("full", FULL_ATTENTION, 2, 64, tokens_per_page=4,
                          accepted_tags=T),
    }


def make_manager(total=64 * 4 * 64, caching=True, specs=None):
    return JengaKVCacheManager(
        specs or hetero_specs(), total, enable_prefix_caching=caching
    )


def shared_views(total=48 * 4 * 64):
    """Two manager views (``full`` and ``win``) over one shared allocator."""
    specs = hetero_specs()
    policies = {g: make_policy(s) for g, s in specs.items()}
    allocator = TwoLevelAllocator(total, specs, policies, enable_prefix_caching=True)
    return [
        JengaKVCacheManager({g: specs[g]}, total, shared_allocator=allocator)
        for g in ("full", "win")
    ]


def staged_pool():
    """16 single-page large pages: 4 cached-evictable, 4 USED, 8 free."""
    mgr = make_manager(total=16 * 4 * 64, specs=full_only_specs())
    donor = SequenceSpec.text_only("donor", list(range(16)))
    mgr.begin_request(donor)
    assert mgr.allocate_up_to(donor, 16)
    mgr.commit(donor, 16, now=1.0, phase="prefill")
    mgr.release(donor, cacheable=True)
    holder = SequenceSpec.text_only("holder", list(range(500, 516)))
    mgr.begin_request(holder)
    assert mgr.allocate_up_to(holder, 16)
    mgr.commit(holder, 16, now=2.0, phase="prefill")
    return mgr, holder


def pages_in(mgr, state):
    return [p for p in mgr.allocator.groups["full"].pages.values()
            if p.state.name == state]


def _fill_free(mgr, holder):
    assert mgr.allocator.allocate_pages("full", "filler", 8) is not None


def _set_quota_to_owned(mgr, holder):
    mgr.allocator.set_quota("full", mgr.allocator.large_pages_owned("full"))


def _displace(mgr, holder, fresh):
    mgr.allocator.register_block_hash(
        "full", fresh, pages_in(mgr, "EVICTABLE")[0].block_hash
    )


def _allocate_one(mgr, holder, ctx):
    assert mgr.allocator.allocate_page("full", "x") is not None


#: (id, prepare(mgr, holder) -> ctx, act(mgr, holder, ctx), published
#: records) -- each act is one pool state change; the records are the
#: ones it publishes (prefix-hit reactivation publishes none).
POOL_MUTATIONS = [
    ("allocate_page", None, _allocate_one,
     ["LargePageCarved", "PageAllocated"]),
    ("allocate_pages", None,
     lambda m, h, c: m.allocator.allocate_pages("full", "x", 2),
     ["LargePageCarved", "LargePageCarved", "PagesAllocated"]),
    ("release_to_cache", None,
     lambda m, h, c: m.release(h, cacheable=True), ["PageReleased"] * 4),
    ("release_to_free", None,
     lambda m, h, c: m.release(h, cacheable=False), ["PageReleased"] * 4),
    ("acquire_cached", None,
     lambda m, h, c: m.allocator.acquire_cached(
         "full", pages_in(m, "EVICTABLE")[0].block_hash, "x"),
     []),
    ("large_eviction", _fill_free, _allocate_one,
     ["PageEvicted:large", "LargePageCarved", "PageAllocated"]),
    ("small_eviction", _set_quota_to_owned, _allocate_one,
     ["PageEvicted:small", "PageAllocated"]),
    ("cache_index_displacement",
     lambda m, h: m.allocator.allocate_page("full", "x"), _displace,
     ["PageReleased"]),
    ("quota_change", None,
     lambda m, h, c: m.allocator.set_quota("full", 10), ["QuotaResized"]),
]


def _shape(event):
    name = type(event).__name__
    return f"{name}:{event.level}" if isinstance(event, PageEvicted) else name


def _fill_all(mgr, holder):
    # 8 free pages plus the 4 evictable ones: every page is now USED.
    assert mgr.allocator.allocate_pages("full", "filler", 12) is not None


def _allocate_fails(mgr, holder):
    assert mgr.allocator.allocate_page("full", "x") is None


def _extra_reference(mgr, holder):
    page = pages_in(mgr, "USED")[0]
    assert mgr.allocator.acquire_cached("full", page.block_hash, "x") is page


def _touch(mgr, holder):
    page = pages_in(mgr, "EVICTABLE")[0]
    page.last_access = 9.0
    mgr.allocator.touch_evictable("full", page)


def _publishers(event_cls):
    """The POOL_MUTATIONS entries whose act publishes ``event_cls``."""
    name = event_cls.__name__
    return [m for m in POOL_MUTATIONS
            if any(shape.split(":")[0] == name for shape in m[3])]


def _emit_pool_records(mgr, holder):
    # Hand-emitted pool records are just bus traffic: no state moved.
    for event in (
        PageReleased("full", 1, True), PageAllocated("full", "r", 1, 1),
        QuotaResized("full", 8, 4, 6, 2),
    ):
        mgr.events.emit(event)


NON_POOL_EVENTS = [
    PrefixHit("r", 0, 4),
    PageEvictedToHost("full", 123, 256),
    RequestQueued("r", 0.0),
    RequestAdmitted("r", 0.0),
    StepCompleted(0, 0.0, 0),
]


PROBE = SequenceSpec.text_only("probe", list(range(1000, 1024)))

#: (id, prepare, act) -- none of these changes pool state.
NON_MUTATIONS = [
    ("probe", None,
     lambda m, h: (m.can_admit(PROBE), m.can_admit_uncached(PROBE))),
    ("prefix_miss", None,
     lambda m, h: m.begin_request(SequenceSpec.text_only("miss", [7] * 12))),
    ("extra_reference", None, _extra_reference),
    ("touch_evictable", None, _touch),
    ("allocation_on_full_pool", _fill_all, _allocate_fails),
    ("same_quota", lambda m, h: m.allocator.set_quota("full", 10),
     lambda m, h: m.allocator.set_quota("full", 10)),
    ("hand_emitted_pool_records", None, _emit_pool_records),
]


class TestInvalidation:
    @pytest.mark.parametrize(
        "prepare,act,expected", [m[1:] for m in POOL_MUTATIONS],
        ids=[m[0] for m in POOL_MUTATIONS],
    )
    def test_pool_mutation_bumps_version(self, prepare, act, expected):
        mgr, holder = staged_pool()
        ctx = prepare(mgr, holder) if prepare is not None else None
        seen = []
        mgr.events.subscribe(seen.append, POOL_EVENTS)
        version = mgr.admission_version()
        act(mgr, holder, ctx)
        assert mgr.admission_version() > version
        assert sorted(map(_shape, seen)) == sorted(expected)
        mgr.allocator.check_invariants()

    @pytest.mark.parametrize(
        "prepare,act", [m[1:] for m in NON_MUTATIONS],
        ids=[m[0] for m in NON_MUTATIONS],
    )
    def test_non_mutation_keeps_version(self, prepare, act):
        mgr, holder = staged_pool()
        if prepare is not None:
            prepare(mgr, holder)
        version = mgr.admission_version()
        act(mgr, holder)
        assert mgr.admission_version() == version

    @pytest.mark.parametrize("event_cls", POOL_EVENTS, ids=lambda c: c.__name__)
    def test_invalidating_event_dirties_snapshot(self, event_cls):
        """Every pool record reaches its subscribers only after the version
        moved, so a consumer that re-probes admission on delivery never
        sees the pre-change pool side."""
        publishers = _publishers(event_cls)
        assert publishers
        for _, prepare, act, _ in publishers:
            mgr, holder = staged_pool()
            ctx = prepare(mgr, holder) if prepare is not None else None
            version = mgr.admission_version()
            seen = []
            mgr.events.subscribe(
                lambda e: seen.append(mgr.admission_version()), (event_cls,)
            )
            act(mgr, holder, ctx)
            assert seen and min(seen) > version

    @pytest.mark.parametrize(
        "event", NON_POOL_EVENTS, ids=lambda e: type(e).__name__
    )
    def test_non_invalidating_event_leaves_snapshot_clean(self, event):
        mgr, _ = staged_pool()
        version = mgr.admission_version()
        verdict = mgr.can_admit(PROBE)
        mgr.events.emit(event)
        assert mgr.admission_version() == version
        assert mgr.can_admit(PROBE) == verdict

    def test_bind_events_keeps_version_source(self):
        """Rebinding the bus neither moves the version nor detaches it:
        the allocator owns the counter, so there is nothing to re-home."""
        mgr = make_manager()
        version = mgr.admission_version()
        mgr.bind_events(EventBus())
        assert mgr.admission_version() == version
        assert mgr.allocator.allocate_page("full", "r") is not None
        assert mgr.admission_version() > version

    def test_real_allocation_invalidates_through_the_allocator(self):
        mgr = make_manager()
        probe = SequenceSpec.text_only("probe", list(range(24)))
        mgr.can_admit(probe)
        version = mgr.admission_version()
        seq = SequenceSpec.text_only("r1", list(range(16)))
        mgr.begin_request(seq)
        assert mgr.admission_version() == version  # a miss moves nothing
        assert mgr.allocate_up_to(seq, 16)
        assert mgr.admission_version() > version

    def test_batched_allocation_invalidates_like_singles(self):
        """One batched call must move the version and leave admission in
        the same state as the n single-page calls it replaces."""
        singles = make_manager()
        batched = make_manager()
        probe = SequenceSpec.text_only("probe", list(range(24)))
        assert singles.can_admit(probe) == batched.can_admit(probe)
        before = (singles.admission_version(), batched.admission_version())
        for _ in range(3):
            assert singles.allocator.allocate_page("full", "r") is not None
        pages = batched.allocator.allocate_pages("full", "r", 3)
        assert pages is not None and len(pages) == 3
        assert singles.admission_version() > before[0]
        assert batched.admission_version() > before[1]
        assert singles.can_admit(probe) == batched.can_admit(probe)
        assert (singles.allocator.stats().free_bytes
                == batched.allocator.stats().free_bytes)


class TestDemandMemo:
    def test_probe_hits_memo_until_length_changes(self):
        mgr = make_manager()
        cache = mgr._admission
        seq = SequenceSpec.text_only("r1", list(range(20)))
        mgr.can_admit(seq)
        misses = cache.num_demand_misses
        hits = cache.num_demand_hits
        for _ in range(4):
            mgr.can_admit(seq)
        assert cache.num_demand_misses == misses
        assert cache.num_demand_hits == hits + 4
        seq.append(999)  # new computed-length bucket
        mgr.can_admit(seq)
        assert cache.num_demand_misses == misses + 1

    def test_memo_capacity_is_bounded(self):
        mgr = make_manager()
        cache = mgr._admission
        cap = cache.DEMAND_CAPACITY
        for i in range(cap + 10):
            mgr.can_admit(SequenceSpec.text_only(f"r{i}", [1, 2, 3]))
        assert len(cache._demand) <= cap


class TestStaleBoundRegression:
    def test_prefix_hit_reacquire_updates_admission_bounds(self):
        """Prefix-hit reactivation (EVICTABLE -> USED) must invalidate.

        ``acquire_cached`` pulls pages out of the evictor without any
        allocation; a cached pool view that missed the transition kept
        counting the reacquired pages as reclaimable and ``can_admit``
        said yes to prompts the pool could no longer host.
        """
        specs = {
            "full": GroupSpec("full", FULL_ATTENTION, 2, 64, tokens_per_page=4,
                              accepted_tags=T),
        }
        # Exactly 16 small pages; the donor fills all of them.
        mgr = make_manager(total=16 * 4 * 64, specs=specs)
        donor = SequenceSpec.text_only("donor", list(range(64)))
        mgr.begin_request(donor)
        assert mgr.allocate_up_to(donor, 64)
        mgr.commit(donor, 64, now=1.0, phase="prefill")
        mgr.release(donor, cacheable=True)  # whole pool now evictable

        probe = SequenceSpec.text_only("probe", list(range(1000, 1048)))
        # The evictable pool covers the demand.
        assert mgr.can_admit(probe) is True
        version = mgr.admission_version()
        assert mgr.can_admit(probe) == mgr.can_admit_uncached(probe)

        # Same-prefix request reacquires the cached pages: no allocation,
        # no release -- only the EVICTABLE -> USED transition.  The hit is
        # capped at len - 1 (one token must still be computed), so 15 of
        # the 16 pages flip to USED.
        reuser = SequenceSpec.text_only("reuser", list(range(64)))
        hit = mgr.begin_request(reuser)
        assert hit == 60
        assert mgr.admission_version() > version
        assert mgr.can_admit_uncached(probe) is False
        assert mgr.can_admit(probe) == mgr.can_admit_uncached(probe)

    def test_cache_index_displacement_updates_admission_bounds(self):
        """Displacing a stale cached copy frees it outright; the freed
        page must move the pool version or the admission gate keeps a
        verdict built on the old free/evictable split.

        A twin request recomputes a block the cache already holds (the
        hit cap leaves the donor's last block unacquired), and its commit
        re-registers the same hash -- the index displacement frees the
        donor's old evictable copy without passing through release_page.
        """
        specs = {
            "full": GroupSpec("full", FULL_ATTENTION, 2, 64, tokens_per_page=4,
                              accepted_tags=T),
        }
        mgr = make_manager(total=16 * 4 * 64, specs=specs)
        donor = SequenceSpec.text_only("donor", list(range(8)))
        mgr.begin_request(donor)
        assert mgr.allocate_up_to(donor, 8)
        mgr.commit(donor, 8, now=1.0, phase="prefill")
        mgr.release(donor, cacheable=True)  # both blocks cached+evictable

        # The twin hits only block 0 (hit capped at len - 1 = 7 tokens)
        # and recomputes block 1 on a fresh page.
        twin = SequenceSpec.text_only("twin", list(range(8)))
        assert mgr.begin_request(twin) == 4
        assert mgr.allocate_up_to(twin, 8)

        # Read the version after the allocation churn, so the only state
        # change left in commit() is the displacement.
        probe = SequenceSpec.text_only("probe", list(range(1000, 1016)))
        mgr.can_admit(probe)
        version = mgr.admission_version()
        mgr.commit(twin, 8, now=2.0, phase="prefill")
        assert mgr.admission_version() > version  # the freed page counted
        assert mgr.can_admit(probe) == mgr.can_admit_uncached(probe)
        mgr.allocator.check_invariants()


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.sampled_from(
                    ["begin", "grow", "release_cached", "release_free", "append"]
                ),
            ),
            max_size=40,
        ),
        watermark=st.integers(min_value=0, max_value=8),
    )
    def test_cached_equals_uncached_under_churn(self, ops, watermark):
        mgr = make_manager(total=48 * 4 * 64)  # small pool: verdicts flip
        seqs = {}
        for i in range(6):
            # Half the requests share a prefix so churn produces real
            # prefix-cache hits (acquire_cached paths included).
            base = list(range(32)) if i % 2 == 0 else list(range(100 * i, 100 * i + 24))
            seqs[i] = SequenceSpec.text_only(f"r{i}", base + [1000 + i])
        active = set()
        now = 1.0

        def check_all():
            for seq in seqs.values():
                for chunk in (64, 8192):
                    assert mgr.can_admit(seq, watermark, chunk) == \
                        mgr.can_admit_uncached(seq, watermark, chunk)

        for i, op in ops:
            seq = seqs[i]
            if op == "begin" and i not in active:
                mgr.begin_request(seq)
                active.add(i)
            elif op == "grow" and i in active:
                if mgr.allocate_up_to(seq, len(seq)):
                    mgr.commit(seq, len(seq), now=now, phase="prefill")
                now += 1.0
            elif op == "release_cached" and i in active:
                mgr.release(seq, cacheable=True)
                active.discard(i)
            elif op == "release_free" and i in active:
                mgr.release(seq, cacheable=False)
                active.discard(i)
            elif op == "append" and i not in active:
                seq.append(2000 + len(seq))
            check_all()
        mgr.allocator.check_invariants()


class TestPoolVersion:
    @settings(max_examples=60, deadline=None)
    @given(
        shared=st.booleans(),
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.sampled_from([
                    "begin", "grow", "release_cached", "release_free",
                    "append", "quota", "probe",
                ]),
            ),
            max_size=40,
        ),
    )
    def test_unchanged_version_means_unchanged_verdicts(self, shared, ops):
        """Random allocate/release/prefix-hit/displacement/eviction/quota
        interleavings: between two equal ``admission_version()`` reads,
        ``can_admit_uncached`` must give the same verdict for every
        probe -- the soundness condition the engine's gate relies on."""
        views = shared_views() if shared else [make_manager(total=48 * 4 * 64)]
        allocator = views[0].allocator
        groups = list(allocator.groups)
        seqs = {}
        for i in range(6):
            # Even requests share a prefix: churn produces prefix hits
            # (acquire_cached), twin recomputes (cache-index
            # displacement) and, once the pool fills, evictions.
            base = list(range(32)) if i % 2 == 0 else list(range(100 * i, 100 * i + 24))
            seqs[i] = SequenceSpec.text_only(f"r{i}", base + [1000 + i])
        # One probe per page count up to the whole pool: any change in
        # claimable capacity flips the verdict of the probe at the edge.
        probes = [
            SequenceSpec.text_only(f"probe{n}", list(range(5000, 5000 + 4 * n)))
            for n in range(1, 50)
        ]
        active = set()
        now = 1.0

        def read():
            versions = {view.admission_version() for view in views}
            assert len(versions) == 1  # every view reads one counter
            verdicts = tuple(
                view.can_admit_uncached(probe)
                for view in views for probe in probes
            )
            return versions.pop(), verdicts

        last = read()
        for i, op in ops:
            mgr = views[i % len(views)]
            seq = seqs[i]
            if op == "begin" and i not in active:
                mgr.begin_request(seq)
                active.add(i)
            elif op == "grow" and i in active:
                if mgr.allocate_up_to(seq, len(seq)):
                    mgr.commit(seq, len(seq), now=now, phase="prefill")
                now += 1.0
            elif op in ("release_cached", "release_free") and i in active:
                mgr.release(seq, cacheable=op == "release_cached")
                active.discard(i)
            elif op == "append" and i not in active:
                seq.append(2000 + len(seq))
            elif op == "quota":
                allocator.set_quota(groups[i % len(groups)], None if i == 5 else i * 3)
            current = read()
            if current[0] == last[0]:
                assert current[1] == last[1]
            last = current
        allocator.check_invariants()

    def test_shared_views_report_equal_versions(self):
        a, b = shared_views()
        assert a.admission_version() == b.admission_version()
        seq = SequenceSpec.text_only("r", list(range(24)))
        a.begin_request(seq)
        assert a.allocate_up_to(seq, 24)
        assert a.admission_version() == b.admission_version()
        b.allocator.set_quota("win", 2)
        a.release(seq, cacheable=True)
        assert a.admission_version() == b.admission_version()

    def test_untelemetered_buses_carry_no_page_subscribers(self):
        """Admission subscribes to nothing, so a bus nobody observes
        leaves every page-event emission unconstructed."""
        model = get_model("llama3.2-1b")
        engine = LLMEngine(model, H100, JengaKVCacheManager(model.kv_groups(), 1 << 28))
        assert engine.events.has_subscribers(PageReleased) is False
        replica = Replica("r0", model, H100, kv_bytes=1 << 28)
        assert replica.events.has_subscribers(PageReleased) is False


class TestAdmissionGate:
    def test_matches_only_identical_triple(self):
        gate = AdmissionGate()
        assert not gate.should_skip("r1", 10, 5)
        gate.note_blocked("r1", 10, 5)
        assert gate.should_skip("r1", 10, 5)
        assert not gate.should_skip("r1", 10, 6)   # pool moved
        assert not gate.should_skip("r1", 11, 5)   # sequence grew
        assert not gate.should_skip("r2", 10, 5)   # different head
        gate.clear()
        assert not gate.should_skip("r1", 10, 5)

    def test_negative_version_disables_gate(self):
        gate = AdmissionGate()
        gate.note_blocked("r1", 10, -1)
        assert not gate.should_skip("r1", 10, -1)

    def test_engine_gate_skips_rescans_without_changing_schedule(self):
        """With the gate, blocked heads stop re-probing every step -- and
        scheduling outcomes stay identical to a gate-disabled run."""

        class UngatedManager(JengaKVCacheManager):
            def admission_version(self) -> int:
                return -1  # never let the engine skip a probe

        def build(manager_cls):
            model = get_model("llama3-8b")
            groups = model.kv_groups()
            manager = manager_cls(groups, 192 * 1024 * 1024)
            engine = LLMEngine(model, H100, manager,
                               config=SchedulerConfig(max_num_seqs=4))
            engine.add_requests([
                Request.text(f"r{i}", token_block(0, "r", i, 640), 24)
                for i in range(12)
            ])
            return engine

        gated = build(JengaKVCacheManager)
        ungated = build(UngatedManager)
        gm = gated.run(max_steps=20_000)
        um = ungated.run(max_steps=20_000)

        assert len(gm.requests) == len(um.requests) == 12
        order = lambda m: [r.request_id for r in m.requests]
        assert order(gm) == order(um)
        finish = lambda m: [r.finish_time for r in m.requests]
        assert finish(gm) == finish(um)
        assert len(gm.steps) == len(um.steps)

        # The gate must actually fire: the gated run performs far fewer
        # prefix lookups than one per (step x blocked head).
        assert gated.manager.lookup_tokens < ungated.manager.lookup_tokens
