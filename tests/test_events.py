"""Tests for the engine's record bus and the owner counters (§5.4 traces)."""

from repro.core.events import (
    EventBus,
    RequestAdmitted,
    RequestFinished,
    RequestPreempted,
    RequestQueued,
    StepCompleted,
)
from repro.core.kv_manager import JengaKVCacheManager
from repro.core.two_level import ALLOCATION_STEPS
from repro.core.layer_policy import FULL_ATTENTION, GroupSpec
from repro.core.sequence import IMAGE, TEXT, SequenceSpec
from repro.engine import LLMEngine, Request, SchedulerConfig
from repro.models import get_model
from repro.platforms import H100
from repro.workloads import token_block

T = frozenset({TEXT})
I = frozenset({IMAGE})


class TestEventBus:
    def test_emit_reaches_recorder_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(RequestQueued("r1", 0.0))
        bus.emit(RequestQueued("r2", 1.0))
        bus.emit(RequestPreempted("r1", 4.0))
        assert [type(e).__name__ for e in seen] == [
            "RequestQueued", "RequestQueued", "RequestPreempted"
        ]
        assert [e.request_id for e in seen] == ["r1", "r2", "r1"]

    def test_subscriber_type_filter(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, [RequestPreempted])
        bus.emit(RequestQueued("r1", 0.0))
        bus.emit(RequestPreempted("r1", 2.0))
        assert seen == [RequestPreempted("r1", 2.0)]

    def test_unfiltered_subscriber_sees_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(RequestQueued("r1", 0.0))
        bus.emit(RequestPreempted("r1", 2.0))
        assert len(seen) == 2

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        handler = bus.subscribe(seen.append)
        assert bus.unsubscribe(handler)
        assert not bus.unsubscribe(handler)
        bus.emit(RequestQueued("r1", 0.0))
        assert not seen

    def test_default_bus_has_no_implicit_consumer(self):
        # The bus keeps nothing itself, so with nobody subscribed the emit
        # guards skip constructing events altogether.
        bus = EventBus()
        assert not bus.has_subscribers(RequestPreempted)
        assert not bus.has_subscribers(RequestQueued)

    def test_has_subscribers_pure_dispatch_tracks_interest(self):
        bus = EventBus()
        assert not bus.has_subscribers(RequestPreempted)
        seen = []
        handler = bus.subscribe(seen.append, [RequestPreempted])
        assert bus.has_subscribers(RequestPreempted)
        assert not bus.has_subscribers(RequestQueued)
        bus.unsubscribe(handler)
        assert not bus.has_subscribers(RequestPreempted)

    def test_has_subscribers_unfiltered_subscriber_matches_all(self):
        bus = EventBus()
        bus.subscribe(lambda e: None)
        assert bus.has_subscribers(RequestPreempted)
        assert bus.has_subscribers(StepCompleted)

    def test_interest_cache_invalidated_by_late_subscribe(self):
        bus = EventBus()
        assert not bus.has_subscribers(RequestPreempted)  # caches the negative
        seen = []
        bus.subscribe(seen.append, [RequestPreempted])
        assert bus.has_subscribers(RequestPreempted)  # cache was cleared

    def test_pure_dispatch_bus_skips_ring(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(RequestQueued("r1", 0.0))
        assert seen == [RequestQueued("r1", 0.0)]
        # Nothing is retained on the bus: history lives in subscribers.
        assert not hasattr(bus, "recent") and not hasattr(bus, "counts")

    def test_step_names(self):
        # 1-5 are the paper's five steps; 0 tags the request-aware
        # ablation's first-fit path.
        assert set(ALLOCATION_STEPS) == {0, 1, 2, 3, 4, 5}
        assert ALLOCATION_STEPS[3] == "evict large page"


def five_step_manager():
    """Two groups whose LCM page holds two text pages.

    ``full`` (text, 16 B/token, 4 tokens/page -> 64 B pages) shares the pool
    with ``img`` (image-only, 32 B/token -> 128 B pages), so a large page is
    lcm(64, 128) = 128 B = two ``full`` pages.  Total is five large pages.
    """
    specs = {
        "full": GroupSpec("full", FULL_ATTENTION, 2, 16, tokens_per_page=4,
                          accepted_tags=T),
        "img": GroupSpec("img", FULL_ATTENTION, 2, 32, tokens_per_page=4,
                         accepted_tags=I),
    }
    return JengaKVCacheManager(specs, 5 * 128, enable_prefix_caching=True)


def prefill(mgr, seq, now):
    assert mgr.allocate_up_to(seq, len(seq))
    mgr.commit(seq, len(seq), now=now, phase="prefill")


def delta(before, after):
    """Counter keys that moved between two ``counters()`` reads."""
    return {
        key: after.get(key, 0) - before.get(key, 0)
        for key in set(before) | set(after)
        if after.get(key, 0) != before.get(key, 0)
    }


class TestFiveStepTrace:
    """Drive one request through every §5.4 allocation step, in order.

    The §5.4 algorithm tries, in order: (1) a request-associated empty
    small page, (2) carving a fresh large page, (3) evicting the LRU
    fully-evictable large page, (4) any empty small page, (5) evicting an
    evictable small page.  The prelude below stages the pool so that
    growing request A one page at a time exercises them as
    [1, 2, 1, 3, 1, 4, 5]: every odd growth first drains the second slot
    of A's own most recent large page (step 1), and the fallbacks fire in
    §5.4 order as the staged resources run out.  Each growth is read as
    the delta of the allocator's cumulative counters.
    """

    def stage(self):
        mgr = five_step_manager()

        # C carves large page #1; its second slot stays EMPTY and
        # C-associated (step-4 fodder: empty but not A's).
        c = SequenceSpec.text_only("C", list(range(1000, 1004)))
        assert mgr.begin_request(c) == 0
        prefill(mgr, c, now=0.5)

        # B fills large page #2 with two hashed pages, then leaves.
        b = SequenceSpec.text_only("B", list(range(2000, 2008)))
        mgr.begin_request(b)
        prefill(mgr, b, now=1.0)
        mgr.release(b, cacheable=True)

        # E re-acquires B's first block, so large page #2 is mixed
        # USED/EVICTABLE: its evictable half is step-5 fodder, and the
        # mixed page can never be evicted wholesale at step 3.
        e = SequenceSpec.text_only("E", list(range(2000, 2004)) + list(range(3000, 3004)))
        assert mgr.begin_request(e) == 4

        # F fills large page #3 and leaves entirely: fully evictable
        # (step-3 fodder).
        f = SequenceSpec.text_only("F", list(range(4000, 4008)))
        mgr.begin_request(f)
        prefill(mgr, f, now=2.0)
        mgr.release(f, cacheable=True)

        # A starts with one page, carving large page #4; large page #5
        # stays free (step-2 fodder).
        a = SequenceSpec.text_only("A", list(range(5000, 5004)))
        mgr.begin_request(a)
        assert mgr.allocate_up_to(a, 4)
        return mgr, a

    def test_allocation_steps_fire_in_paper_order(self):
        mgr, a = self.stage()
        pool = mgr.allocator
        deltas = []
        for _ in range(7):  # grow A one "full" page per call
            before = pool.counters()
            a.extend(range(len(a), len(a) + 4))
            assert mgr.allocate_up_to(a, len(a))
            deltas.append(delta(before, pool.counters()))

        # One page per call, counted under the §5.4 step that satisfied it.
        steps = [
            int(key.rsplit("/", 1)[1])
            for d in deltas for key in d if key.startswith("alloc/step/")
        ]
        assert steps == [1, 2, 1, 3, 1, 4, 5]
        assert all(d["alloc/pages"] == 1 for d in deltas)
        # First occurrences walk the algorithm top to bottom.
        assert list(dict.fromkeys(steps)) == [1, 2, 3, 4, 5]

        # The full picture: carves and evictions land in the same call as
        # the page they make room for.  Both victims held a non-zero
        # prefix length, so the §5.1 tie-break classes them "aligned".
        page = {"alloc/pages": 1}
        assert deltas == [
            {**page, "alloc/step/1": 1},
            {**page, "alloc/step/2": 1, "alloc/large_carved": 1},
            {**page, "alloc/step/1": 1},
            {**page, "alloc/step/3": 1, "alloc/large_carved": 1,
             "evict/large": 1, "evict/priority/aligned": 1, "evict/group/full": 1},
            {**page, "alloc/step/1": 1},
            {**page, "alloc/step/4": 1},
            {**page, "alloc/step/5": 1, "evict/small": 1,
             "evict/priority/aligned": 1, "evict/group/full": 1},
        ]

    def test_rolled_back_batch_counts_no_pages(self):
        # Step 5 runs dry mid-batch: the staged pool serves A exactly the
        # seven pages above (carving twice and evicting twice on the way),
        # so an eight-page batch fails on its last page and rolls back.
        mgr, _ = self.stage()
        pool = mgr.allocator
        before = pool.counters()
        assert pool.allocate_pages("full", "A", 8) is None
        moved = delta(before, pool.counters())
        # No page committed: neither the page total nor any step moves ...
        assert not any(key.startswith("alloc/step/") for key in moved)
        assert "alloc/pages" not in moved
        # ... the seven taken pages come back as freed releases ...
        assert moved["release/freed"] == 7
        assert "release/cached" not in moved
        # ... and the pool mutations the batch did make still count.
        assert moved["alloc/large_carved"] == 2
        assert moved["evict/large"] == 1 and moved["evict/small"] == 1
        pool.check_invariants()

    def test_prefix_hits_and_releases_are_counted(self):
        mgr, a = self.stage()
        # C, B, E, F and A each looked up once; only E hit (B's block).
        assert mgr.counters() == {
            "prefix/lookups": 5,
            "prefix/hit_tokens": 4,
            "prefix/lookup_tokens": 4 + 8 + 8 + 8 + 4,
        }
        # B's and F's two pages each were released into the cache.
        assert mgr.allocator.counters()["release/cached"] == 4


class TestEngineEvents:
    def test_request_lifecycle_events(self):
        model = get_model("llama3-8b")
        mgr = JengaKVCacheManager(model.kv_groups(), 2 << 30)
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        eng = LLMEngine(model, H100, mgr, config=SchedulerConfig(), events=bus)
        eng.add_requests([
            Request.text(f"r{i}", token_block(0, "r", i, 64), 4)
            for i in range(3)
        ])
        metrics = eng.run()

        def of(kind):
            return [ev for ev in seen if isinstance(ev, kind)]

        assert len(of(RequestQueued)) == 3
        assert len(of(StepCompleted)) == len(metrics.steps)
        admitted = {ev.request_id for ev in of(RequestAdmitted)}
        finished = {ev.request_id for ev in of(RequestFinished)}
        assert len(of(RequestAdmitted)) == len(of(RequestFinished)) == 3
        assert admitted == finished == {"r0", "r1", "r2"}

    def test_step_records_name_their_engine(self):
        model = get_model("llama3-8b")
        mgr = JengaKVCacheManager(model.kv_groups(), 2 << 30)
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, [StepCompleted])
        eng = LLMEngine(model, H100, mgr, config=SchedulerConfig(), events=bus)
        assert eng.events is bus and not hasattr(mgr, "events")
        eng.add_requests([Request.text("r0", token_block(0, "r", 0, 64), 2)])
        eng.run()
        assert len(seen) == len(eng.steps)
        assert all(ev.engine is eng for ev in seen)
        # The engine's one read surface covers the pool it allocated from.
        owners = [owner for owner, _ in eng.counters_by_owner()]
        assert owners == [eng, mgr, mgr.allocator]
        assert eng.counters()["alloc/pages"] == mgr.allocator.counters()["alloc/pages"] > 0

    def test_metrics_read_owner_counters(self):
        model = get_model("llama3-8b")
        mgr = JengaKVCacheManager(model.kv_groups(), 2 << 30)
        bus = EventBus()
        completed = []
        bus.subscribe(completed.append, [StepCompleted])
        eng = LLMEngine(model, H100, mgr, config=SchedulerConfig(), events=bus)
        eng.add_requests([
            Request.text(f"r{i}", token_block(0, "same", 0, 128), 4,
                         arrival_time=i * 100.0)  # r1 arrives after r0 ends
            for i in range(2)
        ])
        metrics = eng.run()
        records = [ev.record for ev in completed]
        assert records == metrics.steps == eng.steps
        # The second request's prompt hits the first one's cached prefix.
        assert metrics.prefix_lookup_tokens == mgr.lookup_tokens >= 2 * 128
        assert metrics.prefix_hit_tokens == mgr.hit_tokens > 0
