"""``JengaKVCacheManager`` -- the public face of the Jenga allocator.

The serving engine interacts with KV-cache memory exclusively through the
:class:`~repro.core.protocols.KVCacheManager` protocol; this class is its
reference implementation (baseline managers in :mod:`repro.baselines`
subclass it).  A manager instance wraps:

* one :class:`~repro.core.two_level.TwoLevelAllocator` over the KV region,
* one :class:`~repro.core.layer_policy.LayerTypePolicy` per layer-type
  group, and
* per-request *bindings* (page tables plus held references) for every
  group.

The implementation is split by concern:

* :mod:`repro.core.kv_binding` -- binding/page-table bookkeeping
  (:class:`~repro.core.kv_binding.BindingTableMixin`);
* :mod:`repro.core.kv_alloc` -- the five-step allocation path and
  capacity probes (:class:`~repro.core.kv_alloc.AllocationMixin`);
* :mod:`repro.core.kv_prefix` -- prefix-cache coordination and the host
  offload tier (:class:`~repro.core.kv_prefix.PrefixCacheMixin`);

with this module supplying construction, commit/release, and the
engine-facing properties on top of
:class:`~repro.core.protocols.KVCacheManagerBase`.

Lifecycle of a request ``r``:

1. ``begin_request(seq)`` -- look up the prefix cache (Section 5.2) and
   acquire references on every hit page each group still needs; returns the
   number of *global* tokens served from cache.
2. repeatedly ``allocate_up_to(seq, n)`` -- grow page tables so the first
   ``n`` global tokens have backing pages, running the five-step algorithm
   for each new page; then the engine "computes" the tokens and calls
   ``commit(seq, n, now)`` -- fill counts, block-hash registration, and
   release of pages the layer type no longer needs (out-of-window pages,
   Mamba checkpoints, consumed vision embeddings).
3. ``release(seq)`` -- request finished or was preempted; all held
   references drop, and completed blocks stay resident as evictable cached
   prefixes.

Eviction metadata (the paper's ``update_last_access`` and
``set_prefix_length``, Figure 9a) is applied *at release time*: a page's
last-access stamp only matters once the page turns evictable, and for every
policy the stamp the paper's per-step protocol would leave on the page
equals the timestamp of the step at which the page left the layer's active
subset -- which is exactly when this manager releases it.  Mamba
checkpoints are the one exception (older checkpoints must keep stale
stamps, Section 5.3) and are stamped at creation instead, with only the
most recent checkpoint refreshed each step.  ``tests/test_kv_manager.py``
cross-checks this optimized protocol against the literal per-step one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .admission import AdmissionCache
from .events import EventBus, EventFanout
from .kv_alloc import AllocationMixin, ideal_resident_bytes
from .kv_binding import BindingTableMixin, GroupBinding, policy_pages_to_write
from .kv_prefix import PrefixCacheMixin
from .layer_policy import (
    GroupSpec,
    MAMBA,
    VISION_EMBEDDING,
    VisionEmbeddingPolicy,
    make_policy,
)
from .offload import HostMemoryPool, OffloadConfig
from .protocols import KVCacheManagerBase
from .sequence import SequenceSpec
from .two_level import AllocatorStats, TwoLevelAllocator

__all__ = [
    "JengaKVCacheManager",
    "GroupBinding",
    "ideal_resident_bytes",
    "policy_pages_to_write",
]

# Last-access bias applied to pages a window layer has slid past.  Section
# 5.1: "tokens outside the window should be prioritized for eviction over
# the most recent tokens" -- the bias puts them in a strictly lower
# eviction class than any in-window or full-attention page while keeping
# LRU order among themselves, so they fill otherwise-idle memory (still
# hittable) but are always the first evicted under pressure.
_OUT_OF_WINDOW_BIAS = 1e15


class JengaKVCacheManager(
    PrefixCacheMixin, AllocationMixin, BindingTableMixin, KVCacheManagerBase
):
    """Two-level, policy-customized KV-cache manager (the paper's system).

    Args:
        group_specs: Layer-type groups of the model being served (obtained
            from :meth:`repro.models.config.ModelSpec.kv_groups`).
        total_bytes: Size of the KV-cache region.
        enable_prefix_caching: Retain finished requests' blocks for reuse.
        strategy: Compatible-page-size strategy (``"lcm"``/``"gcd"``/
            ``"max"``) -- non-LCM values exist for the Section 4.4 ablation.
        seed: Seed for randomized per-image eviction draws.
        events: Event bus allocation/eviction records publish to; a private
            bus is created when omitted (the engine rebinds managers onto
            its own via :meth:`bind_events`).
        shared_allocator: Multi-model serving (Section 6.1): several
            managers, one page pool.  The pool's events fan out to every
            sharing manager's own bus (see
            :class:`~repro.core.events.EventFanout`).
    """

    name = "jenga"

    def __init__(
        self,
        group_specs: Dict[str, GroupSpec],
        total_bytes: int,
        enable_prefix_caching: bool = True,
        strategy: str = "lcm",
        seed: int = 0,
        request_aware: bool = True,
        offload: Optional[OffloadConfig] = None,
        shared_allocator: Optional[TwoLevelAllocator] = None,
        events: Optional[EventBus] = None,
    ) -> None:
        KVCacheManagerBase.__init__(self, events)
        self.specs = dict(group_specs)
        if shared_allocator is not None:
            # The shared allocator was built over the union of all models'
            # groups; this manager drives only its own subset.
            missing = set(self.specs) - set(shared_allocator.groups)
            if missing:
                raise ValueError(f"shared allocator lacks groups: {missing}")
            self.policies = {
                g: shared_allocator.groups[g].policy for g in self.specs
            }
            self.allocator = shared_allocator
            # One pool, many views: the allocator's bus is a fan-out over
            # every bound view's own bus, so pool events reach all
            # siblings while each manager keeps its private per-engine
            # bus.  A pre-existing plain bus on the allocator stays
            # attached as a fan-out member, preserving its feed.
            sink = shared_allocator.events
            if not isinstance(sink, EventFanout):
                sink = EventFanout() if sink is None else EventFanout(sink)
                shared_allocator.events = sink
            sink.attach(self.events)
        else:
            self.policies = {
                g: make_policy(s, enable_prefix_caching=enable_prefix_caching, seed=seed)
                for g, s in self.specs.items()
            }
            self.allocator = TwoLevelAllocator(
                total_bytes,
                self.specs,
                self.policies,
                strategy=strategy,
                enable_prefix_caching=enable_prefix_caching,
                request_aware=request_aware,
                events=self.events,
            )
        self.enable_prefix_caching = enable_prefix_caching
        # Static probe order for the prefix-lookup path: leading-run groups
        # (full/cross attention) first, vision groups excluded.  Computed
        # once here; consulted on every lookup.
        relevant = [
            g for g, s in self.specs.items() if s.kind != VISION_EMBEDDING
        ]
        self._lookup_order: List[str] = [
            g for g in relevant if self.policies[g].leading_run_only
        ] + [g for g in relevant if not self.policies[g].leading_run_only]
        self._bindings: Dict[str, Dict[str, GroupBinding]] = {}
        self._stream_cache: Dict[Tuple[str, str], List[int]] = {}
        # Token-level prefix-cache accounting (Figure 17's metric).
        self.lookup_tokens = 0
        self.hit_tokens = 0
        # Optional host-memory offload tier (Section 8 extension): evicted
        # cached blocks spill to host RAM and can be onloaded over PCIe
        # instead of recomputed.
        self.host_pool: Optional[HostMemoryPool] = None
        self._pending_onload_bytes: Dict[str, int] = {}
        if offload is not None and enable_prefix_caching:
            self.host_pool = HostMemoryPool(offload)
            self.allocator.eviction_listener = self._on_gpu_eviction
        # Per-request demand memo behind can_admit (see repro.core.admission).
        self._admission = AdmissionCache()

    def bind_events(self, events: EventBus) -> None:
        """Adopt ``events`` for this manager view.

        On a shared allocator the pool bus is an
        :class:`~repro.core.events.EventFanout`; this view's old bus is
        swapped for ``events`` inside it, leaving every sibling's feed
        intact.  A privately-owned allocator simply follows the manager
        onto the new bus.
        """
        sink = self.allocator.events
        if isinstance(sink, EventFanout):
            sink.replace(self.events, events)
        else:
            self.allocator.events = events
        self.events = events

    def foreign_used_bytes(self) -> int:
        """USED bytes co-tenant views hold in a shared allocator.

        A privately-owned allocator carries exactly this manager's groups,
        so the answer is 0 without scanning.  On a shared pool the engine
        uses this to tell "my pool is idle and the request still does not
        fit" (permanent failure) from "a co-tenant is holding the memory
        right now" (block and retry): only USED pages count, because
        evictable and free memory is reclaimable through the normal
        allocation steps and so never justifies waiting.
        """
        groups = self.allocator.groups
        if len(groups) == len(self.specs):
            return 0
        total = 0
        for group_id, group in groups.items():
            if group_id not in self.specs:
                total += group.n_used * group.spec.page_bytes
        return total

    # ------------------------------------------------------------------
    # Commit / release
    # ------------------------------------------------------------------

    def commit(
        self,
        seq: SequenceSpec,
        computed_global: int,
        now: float,
        phase: str = "decode",
    ) -> None:
        """Record that the first ``computed_global`` tokens are computed.

        Per group: fill-count updates, block-hash registration for newly
        completed blocks, and release of pages past the layer's active
        frontier (out-of-window / checkpointed / consumed).  Work done is
        proportional to tokens computed since the last commit, not to the
        sequence length.

        ``phase`` customizes the eviction class of pages sliding out of a
        window layer's active set (Section 5.1's sliding-window rule):

        * ``"prefill"`` -- deep out-of-window prompt KV; cached but stamped
          ``now`` minus a large bias, so it fills otherwise-idle memory yet
          evicts before any useful page under pressure;
        * ``"decode"`` -- blocks just behind the window, i.e. the trailing
          window of the *prompt*, exactly what a future same-prefix request
          hits on; cached with normal (hot) stamps.
        """
        bindings = self._require(seq.request_id)
        for group_id, spec in self.specs.items():
            policy = self.policies[group_id]
            binding = bindings[group_id]
            group = self.allocator.groups[group_id]
            stream_len = seq.stream_length(spec.accepted_tags, computed_global)
            stream_len = min(stream_len, binding.stream_len)
            binding.last_time = now

            if spec.kind != MAMBA and stream_len > binding.filled_upto:
                self._update_fill(group, binding, stream_len)

            if self.enable_prefix_caching:
                self._register_hashes(seq, group_id, binding, stream_len, now)

            frontier = self._frontier(policy, seq.request_id, stream_len)
            if frontier > binding.release_ptr:
                self._release_range(
                    group, policy, binding, binding.release_ptr, frontier, now, seq,
                    cacheable=True,
                    stamp_bias=_OUT_OF_WINDOW_BIAS if phase == "prefill" else 0.0,
                )
            if spec.kind == MAMBA:
                self._refresh_last_checkpoint(group, binding, now)

    def release(self, seq: SequenceSpec, cacheable: bool = True) -> None:
        """Drop every reference ``seq`` holds (finish or preemption).

        With prefix caching enabled and ``cacheable=True``, completed blocks
        remain resident as evictable cache; otherwise pages free outright.
        """
        bindings = self._bindings.pop(seq.request_id, None)
        if bindings is None:
            return
        for group_id, binding in bindings.items():
            group = self.allocator.groups[group_id]
            policy = self.policies[group_id]
            for idx in sorted(binding.held):
                page_id = binding.page_table[idx]
                if page_id is None:
                    continue
                page = group.pages.get(page_id)
                if page is not None:
                    page.last_access = binding.last_time
                    page.prefix_length = self._prefix_value(policy, idx, seq)
                self.allocator.release_page(group_id, page_id, cacheable=cacheable)
            if isinstance(policy, VisionEmbeddingPolicy):
                policy.forget_request(seq.request_id)
        for group_id in self.specs:
            self._stream_cache.pop((seq.request_id, group_id), None)
        self._pending_onload_bytes.pop(seq.request_id, None)

    # ------------------------------------------------------------------
    # Engine-facing properties and accounting
    # ------------------------------------------------------------------

    def stats(self) -> AllocatorStats:
        return self.allocator.stats()

    def owned_groups(self) -> frozenset:
        """This view's groups -- the shared allocator covers the union of
        all co-tenant models' groups, but this manager drives (and should
        be charged for) only its own subset."""
        return frozenset(self.specs)

    @property
    def has_vision_cache(self) -> bool:
        """Whether this manager caches vision-encoder outputs (Section 6.2)."""
        return any(s.kind == VISION_EMBEDDING for s in self.specs.values())
