"""Prefix-cache coordination for the KV manager (Section 5.2).

:class:`PrefixCacheMixin` owns everything that touches cached blocks:
per-group hash-chain lookup and acquisition at ``begin_request``,
incremental block-hash registration at commit time, Mamba checkpoint
stamp refreshing, and the optional host-memory offload tier (spill on
eviction, onload on hit).  It counts lookups, looked-up and hit tokens, and
host spills; :meth:`PrefixCacheMixin.counters` reads them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .kv_binding import BindingTableMixin, GroupBinding
from .offload import HostMemoryPool
from .layer_policy import LayerTypePolicy, MAMBA, VISION_EMBEDDING
from .pages import SmallPage
from .prefix_cache import longest_common_prefix
from .sequence import SequenceSpec
from .two_level import GroupAllocator

__all__ = ["PrefixCacheMixin"]


class PrefixCacheMixin(BindingTableMixin):
    """Prefix-cache lookup, registration, and offload coordination.

    Extends :class:`~repro.core.kv_binding.BindingTableMixin`; the extra
    attributes declared here (``enable_prefix_caching``, ``host_pool``,
    hit and spill accounting) are supplied by the composing manager.
    """

    enable_prefix_caching: bool
    host_pool: Optional[HostMemoryPool]
    _lookup_order: List[str]
    num_lookups: int
    lookup_tokens: int
    hit_tokens: int
    num_spills: int
    spill_bytes: int
    tracer: Optional[Any]
    _pending_onload_bytes: Dict[str, int]

    def _init_counters(self) -> None:
        """Zero this view's lookup and spill counters (construction only).

        Token-level prefix-cache accounting is Figure 17's metric; all of
        these are read through :meth:`counters` and move only here.
        """
        self.num_lookups = 0
        self.lookup_tokens = 0
        self.hit_tokens = 0
        self.num_spills = 0
        self.spill_bytes = 0

    def begin_request(self, seq: SequenceSpec) -> int:
        """Register ``seq`` and acquire its prefix-cache hit.

        Returns the number of leading *global* tokens whose cache is already
        resident (0 when prefix caching is disabled or nothing matches).
        The engine must still compute at least one token, so the hit is
        capped at ``len(seq) - 1``.  When the composing manager carries an
        enabled tracer, the hash-chain lookup and page acquisition are
        wrapped in a ``prefix_lookup`` span (nested under the engine's
        ``schedule`` phase).
        """
        if seq.request_id in self._bindings:
            raise ValueError(f"request {seq.request_id!r} already active")
        bindings = {g: GroupBinding() for g in self.specs}
        self._bindings[seq.request_id] = bindings
        if not self.enable_prefix_caching:
            return 0
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "prefix_lookup", cat="kv", args={"request": seq.request_id}
            ):
                return self._lookup_and_acquire(seq, bindings)
        return self._lookup_and_acquire(seq, bindings)

    def _lookup_and_acquire(
        self, seq: SequenceSpec, bindings: Dict[str, GroupBinding]
    ) -> int:
        """Hash-chain lookup plus cached-page acquisition (the hit path).

        Probing is bounded by a running *cap* on the model-wide hit.
        Vision-embedding groups never constrain the hit (embeddings are
        inputs to prefill, refilled by the encoder when the uncached
        remainder contains image tokens).  Leading-run groups
        (full/cross attention) go first: their probe stops at the first
        miss, and the resulting run caps how deep every later group needs
        to hash and probe at all -- a total miss costs one dict probe per
        leading-run group and zero for the rest, so the steady-state
        lookup is O(hit-prefix blocks), not O(stream blocks).
        """
        specs = self.specs
        ordered = self._lookup_order
        all_hashes: Dict[str, List[int]] = {}
        valid: Dict[str, List[int]] = {}
        host_pool = self.host_pool
        cap_global = len(seq) - 1
        for group_id in ordered:
            if cap_global <= 0:
                # An earlier group already ruled out any non-empty hit.
                valid[group_id] = []
                continue
            policy = self.policies[group_id]
            group_tags = specs[group_id].accepted_tags
            stream = self._stream_of(seq, group_id)
            stream_total = len(stream)
            cap_stream = seq.stream_length(group_tags, cap_global)
            boundaries = policy.cacheable_boundaries(min(stream_total, cap_stream))
            # Memoized on the sequence: only never-hashed tokens fold, so a
            # re-probe of a blocked or preempted request is pure dict work.
            hashes = seq.hash_chain(
                group_tags, policy.boundary_schedule(), stream, boundaries
            )
            index = self.allocator.groups[group_id].cache_index
            if policy.leading_run_only:
                is_hit: List[bool] = []
                for h in hashes:
                    hit = index.probe(h) is not None or (
                        host_pool is not None and host_pool.probe(h) is not None
                    )
                    is_hit.append(hit)
                    if not hit:
                        break
            elif host_pool is not None:
                is_hit = [
                    index.probe(h) is not None or host_pool.probe(h) is not None
                    for h in hashes
                ]
            else:
                is_hit = [index.probe(h) is not None for h in hashes]
            all_hashes[group_id] = hashes
            prefixes = policy.get_possible_prefix(is_hit)
            valid[group_id] = prefixes
            # Any model-wide hit must keep this group's stream count within
            # its largest valid prefix; shrink the cap accordingly.
            v_max = max(prefixes) if prefixes else 0
            if v_max >= stream_total:
                upper = len(seq)
            else:
                upper = seq.global_prefix_for_stream(group_tags, v_max + 1) - 1
            if upper < cap_global:
                cap_global = upper

        if cap_global <= 0:
            hit_global = 0
        else:
            tags = {g: specs[g].accepted_tags for g in ordered}
            hit_global = longest_common_prefix(
                seq, valid, tags, max_global=cap_global
            )
        self.num_lookups += 1
        self.lookup_tokens += len(seq)
        if hit_global <= 0:
            return 0

        acquired: List[Tuple[str, int]] = []
        ok = True
        for group_id, spec in self.specs.items():
            if spec.kind == VISION_EMBEDDING:
                continue  # embeddings are re-encoded, not acquired
            policy = self.policies[group_id]
            binding = bindings[group_id]
            cached_stream = seq.stream_length(spec.accepted_tags, hit_global)
            binding.cached_stream = cached_stream
            binding.stream_len = cached_stream
            binding.filled_upto = cached_stream
            num_pages = policy.num_pages_for(cached_stream)
            binding.page_table = [None] * num_pages
            # Only blocks at or below the hit matter here, so the boundary
            # list (and the `covered` scan below) stops at ``cached_stream``.
            boundaries = policy.cacheable_boundaries(cached_stream)
            hashes = all_hashes[group_id]
            needed = self._needed_hit_pages(policy, cached_stream, boundaries)
            for block_idx in needed:
                page = self.allocator.acquire_cached(
                    group_id, hashes[block_idx], seq.request_id
                )
                if page is None and self.host_pool is not None:
                    page = self._materialize_from_host(
                        group_id, hashes[block_idx], seq, boundaries, block_idx
                    )
                if page is None:
                    ok = False
                    break
                idx = policy.page_index_of_block(block_idx)
                if idx >= len(binding.page_table):
                    binding.page_table.extend(
                        [None] * (idx + 1 - len(binding.page_table))
                    )
                binding.page_table[idx] = page.page_id
                binding.held.add(idx)
                acquired.append((group_id, page.page_id))
            covered = 0
            for b in boundaries:
                if b > cached_stream:
                    break
                covered += 1
            binding.hashed_blocks = covered
            # Pages below the active frontier were never held.
            binding.release_ptr = self._frontier(policy, seq.request_id, cached_stream)
            if not ok:
                break
        if not ok:
            # Racing eviction invalidated the hit; fall back to no hit.
            for group_id, page_id in acquired:
                self.allocator.release_page(group_id, page_id, cacheable=True)
            for group_id in self.specs:
                bindings[group_id] = GroupBinding()
            return 0
        self.hit_tokens += hit_global
        return hit_global

    def _needed_hit_pages(
        self, policy: LayerTypePolicy, cached_stream: int, boundaries: Sequence[int]
    ) -> List[int]:
        """Hit blocks whose pages the request must actually hold.

        Blocks outside the layer's active subset (e.g. out-of-window) stay
        evictable -- the request never touches them again.  Mamba hits copy
        the checkpoint into a fresh working state, so no reference is taken.
        """
        if policy.spec.kind == MAMBA:
            return []
        active = policy.active_page_indices(cached_stream)
        needed: List[int] = []
        for block_idx, boundary in enumerate(boundaries):
            if boundary > cached_stream:
                break
            if policy.page_index_of_block(block_idx) in active:
                needed.append(block_idx)
        return needed

    def _register_hashes(
        self,
        seq: SequenceSpec,
        group_id: str,
        binding: GroupBinding,
        stream_len: int,
        now: float,
    ) -> None:
        policy = self.policies[group_id]
        boundaries = policy.cacheable_boundaries(stream_len)
        if len(boundaries) <= binding.hashed_blocks:
            return
        stream = self._stream_of(seq, group_id)
        # Decode-time extension rides the same memoized chain the lookup
        # built: already-registered blocks cost a list index, new blocks
        # fold only their own tokens.
        hashes = seq.hash_chain(
            self.specs[group_id].accepted_tags,
            policy.boundary_schedule(),
            stream,
            boundaries,
        )
        group = self.allocator.groups[group_id]
        for block_idx in range(binding.hashed_blocks, len(boundaries)):
            state = hashes[block_idx]
            idx = policy.page_index_of_block(block_idx)
            page_id = binding.page_table[idx] if idx in binding.held else None
            if page_id is not None:
                page = group.pages.get(page_id)
                if page is not None and page.block_hash is None:
                    self.allocator.register_block_hash(group_id, page, state)
                    if policy.spec.kind == MAMBA:
                        # Checkpoints go straight to evictable cache: stamp
                        # creation time and release the working reference.
                        page.last_access = now
                        page.prefix_length = self._prefix_value(policy, idx, seq)
                        binding.held.discard(idx)
                        self.allocator.release_page(group_id, page.page_id, cacheable=True)
                        binding.last_checkpoint_page = page.page_id
        binding.hashed_blocks = len(boundaries)

    def _refresh_last_checkpoint(
        self, group: GroupAllocator, binding: GroupBinding, now: float
    ) -> None:
        """Keep only the newest Mamba checkpoint's stamp fresh (§5.3)."""
        page_id = binding.last_checkpoint_page
        if page_id is None:
            return
        page = group.pages.get(page_id)
        if page is None or not page.is_evictable:
            return
        page.last_access = now
        self.allocator.touch_evictable(group.spec.group_id, page)

    # ------------------------------------------------------------------
    # Host-memory offload tier (Section 8 extension)
    # ------------------------------------------------------------------

    def _on_gpu_eviction(self, group_id: str, block_hash: int, page_bytes: int) -> None:
        """Spill an evicted cached block to the host pool."""
        assert self.host_pool is not None
        self.host_pool.offload(block_hash, group_id, page_bytes)
        self.num_spills += 1
        self.spill_bytes += page_bytes

    def _materialize_from_host(
        self,
        group_id: str,
        block_hash: int,
        seq: SequenceSpec,
        boundaries: Sequence[int],
        block_idx: int,
    ) -> Optional[SmallPage]:
        """Onload a host-resident block into a freshly allocated GPU page.

        The transfer cost accrues against the request and is drained by
        the engine via :meth:`take_onload_bytes`.
        """
        assert self.host_pool is not None
        size = self.host_pool.onload(block_hash)
        if size is None:
            return None
        page = self.allocator.allocate_page(group_id, seq.request_id)
        if page is None:
            return None
        prev = boundaries[block_idx - 1] if block_idx > 0 else 0
        tokens = boundaries[block_idx] - prev
        group = self.allocator.groups[group_id]
        group.note_fill(tokens - page.num_tokens)
        page.num_tokens = tokens
        self.allocator.register_block_hash(group_id, page, block_hash)
        self._pending_onload_bytes[seq.request_id] = (
            self._pending_onload_bytes.get(seq.request_id, 0) + size
        )
        return page

    def take_onload_bytes(self, request_id: str) -> int:
        """Drain the PCIe transfer debt accrued by host-pool hits."""
        return self._pending_onload_bytes.pop(request_id, 0)

    # ------------------------------------------------------------------
    # Hit-rate accounting (Figure 17's metric)
    # ------------------------------------------------------------------

    def cache_hit_rates(self) -> Dict[str, float]:
        return {g: self.allocator.groups[g].cache_index.hit_rate for g in self.specs}

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of looked-up prompt tokens served from cache."""
        return self.hit_tokens / self.lookup_tokens if self.lookup_tokens else 0.0

    def counters(self) -> Dict[str, int]:
        """This view's cumulative counters since construction.

        ``prefix/lookups`` / ``prefix/hit_tokens`` / ``prefix/lookup_tokens``
        once any lookup ran (a miss still reports ``hit_tokens``), and
        ``offload/spills`` / ``offload/spill_bytes`` once a cached block
        spilled to the host tier.  The pool's counters are the
        allocator's own (:meth:`~repro.core.two_level.TwoLevelAllocator.counters`).
        """
        out: Dict[str, int] = {}
        if self.num_lookups:
            out["prefix/lookups"] = self.num_lookups
            out["prefix/hit_tokens"] = self.hit_tokens
            out["prefix/lookup_tokens"] = self.lookup_tokens
        if self.num_spills:
            out["offload/spills"] = self.num_spills
            out["offload/spill_bytes"] = self.spill_bytes
        return out
