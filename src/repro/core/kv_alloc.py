"""The KV manager's allocation path: growth, probes, and admission control.

:class:`AllocationMixin` turns the allocator's page-granular five-step
algorithm (Section 5.4, :meth:`repro.core.two_level.TwoLevelAllocator.allocate_page`)
into the request-granular operations the engine calls: grow a sequence's
page tables to a token target (with rollback on failure), pre-allocate
vision-embedding pages, and answer the scheduler's capacity questions
(:meth:`~AllocationMixin.can_allocate` / :meth:`~AllocationMixin.can_admit`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .admission import AdmissionCache
from .kv_binding import BindingTableMixin, GroupBinding, policy_pages_to_write
from .layer_policy import (
    DROPPED_TOKEN,
    GroupSpec,
    MAMBA,
    SLIDING_WINDOW,
    VISION_EMBEDDING,
    VisionEmbeddingPolicy,
    make_policy,
)
from .sequence import SequenceSpec

__all__ = ["AllocationMixin", "ideal_resident_bytes"]


class AllocationMixin(BindingTableMixin):
    """Request-granular allocation over the five-step page allocator.

    Extends :class:`~repro.core.kv_binding.BindingTableMixin`, whose
    declared attributes (``specs``, ``policies``, ``allocator``, ...) the
    composing manager supplies.  The composing manager also supplies
    ``_admission`` (see :class:`~repro.core.admission.AdmissionCache`),
    the demand memo behind :meth:`can_admit`.
    """

    _admission: AdmissionCache

    def allocate_up_to(self, seq: SequenceSpec, target_global: int) -> bool:
        """Ensure pages back the first ``target_global`` tokens of ``seq``.

        Runs the five-step algorithm for every missing page.  On failure the
        pages newly allocated by *this call* are rolled back and ``False``
        is returned; the scheduler then preempts a request and retries.
        """
        bindings = self._require(seq.request_id)
        newly: List[Tuple[str, GroupBinding, int]] = []
        ok = True
        for group_id, spec in self.specs.items():
            policy = self.policies[group_id]
            binding = bindings[group_id]
            target_stream = seq.stream_length(spec.accepted_tags, target_global)
            if target_stream <= binding.stream_len:
                continue
            indices = policy_pages_to_write(policy, binding.stream_len, target_stream)
            if spec.kind == MAMBA and 0 not in binding.held and 0 not in indices:
                # A Mamba cache hit copies a checkpoint into a fresh working
                # state, so the working slot still needs its own page.
                indices.insert(0, 0)
            num_pages = policy.num_pages_for(target_stream)
            if num_pages > len(binding.page_table):
                binding.page_table.extend(
                    [None] * (num_pages - len(binding.page_table))
                )
            missing = [
                idx for idx in indices
                if idx not in binding.held or binding.page_table[idx] is None
            ]
            if missing:
                # One batched call for the whole write set: the five-step
                # dispatch runs per page only past the free bucket.
                pages = self.allocator.allocate_pages(
                    group_id, seq.request_id, len(missing)
                )
                if pages is None:
                    ok = False
                    break
                for idx, page in zip(missing, pages):
                    binding.page_table[idx] = page.page_id
                    binding.held.add(idx)
                    newly.append((group_id, binding, idx))
            binding.stream_len = target_stream
        if not ok:
            for group_id, binding, idx in newly:
                page_id = binding.page_table[idx]
                binding.held.discard(idx)
                binding.page_table[idx] = None
                if page_id is not None:
                    self.allocator.release_page(group_id, page_id, cacheable=False)
            return False
        return True

    def needs_allocation(self, seq: SequenceSpec, target_global: int) -> bool:
        """Whether :meth:`allocate_up_to` would actually allocate anything.

        Pure page-table inspection.  ``False`` lets the engine skip the
        allocate call outright on decode steps that stay inside the current
        block -- note ``binding.stream_len`` is deliberately *not* advanced
        here, so fill/hash bookkeeping catches up on the next real
        allocation (at most one page's worth of lag per group).
        """
        bindings = self._bindings.get(seq.request_id)
        if bindings is None:
            return True
        for group_id, spec in self.specs.items():
            binding = bindings[group_id]
            target_stream = seq.stream_length(spec.accepted_tags, target_global)
            if target_stream <= binding.stream_len:
                continue
            indices = policy_pages_to_write(
                self.policies[group_id], binding.stream_len, target_stream
            )
            if spec.kind == MAMBA and 0 not in binding.held and 0 not in indices:
                return True
            table = binding.page_table
            for idx in indices:
                if (
                    idx not in binding.held
                    or idx >= len(table)
                    or table[idx] is None
                ):
                    return True
        return False

    def allocate_vision(self, seq: SequenceSpec) -> bool:
        """Allocate vision-embedding pages for *all* of ``seq``'s images.

        The vision encoder runs once at admission and produces embeddings
        for every image token (Section 6.2), so the embedding group is
        allocated to the full image stream up front, independently of how
        far LLM prefill has progressed.  Returns ``False`` (with rollback)
        if memory does not suffice.
        """
        bindings = self._require(seq.request_id)
        newly: List[Tuple[str, GroupBinding, int]] = []
        for group_id, spec in self.specs.items():
            if spec.kind != VISION_EMBEDDING:
                continue
            policy = self.policies[group_id]
            binding = bindings[group_id]
            target_stream = seq.stream_length(spec.accepted_tags)
            if target_stream <= binding.stream_len:
                continue
            indices = policy_pages_to_write(policy, binding.stream_len, target_stream)
            num_pages = policy.num_pages_for(target_stream)
            if num_pages > len(binding.page_table):
                binding.page_table.extend([None] * (num_pages - len(binding.page_table)))
            ok = True
            missing = [
                idx for idx in indices
                if idx not in binding.held or binding.page_table[idx] is None
            ]
            if missing:
                pages = self.allocator.allocate_pages(
                    group_id, seq.request_id, len(missing)
                )
                if pages is None:
                    ok = False
                else:
                    for idx, page in zip(missing, pages):
                        binding.page_table[idx] = page.page_id
                        binding.held.add(idx)
                        newly.append((group_id, binding, idx))
            if not ok:
                for gid, b, idx in newly:
                    page_id = b.page_table[idx]
                    b.held.discard(idx)
                    b.page_table[idx] = None
                    if page_id is not None:
                        self.allocator.release_page(gid, page_id, cacheable=False)
                return False
            binding.stream_len = target_stream
            # The encoder fills the embeddings immediately.
            tpp = spec.tokens_per_page
            group = self.allocator.groups[group_id]
            for idx in indices:
                page_id = binding.page_table[idx]
                page = group.pages.get(page_id) if page_id is not None else None
                if page is not None:
                    filled = max(0, min(tpp, target_stream - idx * tpp))
                    group.note_fill(filled - page.num_tokens)
                    page.num_tokens = filled
            binding.filled_upto = target_stream
        return True

    def consume_vision(self, seq: SequenceSpec, upto_global: int) -> None:
        """Free vision-embedding pages whose tokens prefill has consumed.

        Implements the allocate-on-demand flow of Section 6.2: once the LLM
        has prefilled past an image token, its embedding page is released.
        """
        bindings = self._require(seq.request_id)
        for group_id, spec in self.specs.items():
            if spec.kind != VISION_EMBEDDING:
                continue
            policy = self.policies[group_id]
            assert isinstance(policy, VisionEmbeddingPolicy)
            consumed_stream = seq.stream_length(spec.accepted_tags, upto_global)
            policy.set_consumed(seq.request_id, consumed_stream)
            binding = bindings[group_id]
            group = self.allocator.groups[group_id]
            frontier = consumed_stream // spec.tokens_per_page
            if frontier > binding.release_ptr:
                self._release_range(
                    group, policy, binding, binding.release_ptr, frontier,
                    binding.last_time, seq,
                )

    # ------------------------------------------------------------------
    # Capacity probes / accounting (engine-facing)
    # ------------------------------------------------------------------

    def pages_needed(self, seq: SequenceSpec, target_global: int) -> Dict[str, int]:
        """New pages each group would need to reach ``target_global``."""
        bindings = self._bindings.get(seq.request_id)
        needed: Dict[str, int] = {}
        for group_id, spec in self.specs.items():
            policy = self.policies[group_id]
            target_stream = seq.stream_length(spec.accepted_tags, target_global)
            have = bindings[group_id].stream_len if bindings else 0
            if target_stream <= have:
                needed[group_id] = 0
            else:
                needed[group_id] = len(policy_pages_to_write(policy, have, target_stream))
        return needed

    def can_allocate(self, seq: SequenceSpec, target_global: int) -> bool:
        """Optimistic admission probe (free + evictable cover the need)."""
        for group_id, n in self.pages_needed(seq, target_global).items():
            if n > self.allocator.reclaimable_pages(group_id):
                return False
        return True

    def resident_pages_needed(self, seq: SequenceSpec, target_global: int) -> Dict[str, int]:
        """Pages each group must keep *resident* once ``target_global`` tokens
        are computed -- the steady-state footprint, not the transient
        write set.  Sliding-window groups only count their window's pages
        even though prefill writes (and promptly releases) every block.
        """
        bindings = self._bindings.get(seq.request_id)
        needed: Dict[str, int] = {}
        for group_id, spec in self.specs.items():
            policy = self.policies[group_id]
            stream_len = seq.stream_length(spec.accepted_tags, target_global)
            n = len(policy.active_page_indices(stream_len))
            if bindings is not None:
                # Pages already held (prefix-cache hits acquired at
                # begin_request) need no new allocation.
                n -= len(bindings[group_id].held)
            needed[group_id] = max(0, n)
        return needed

    def can_admit(
        self, seq: SequenceSpec, watermark_pages: int = 0, chunk_tokens: int = 8192
    ) -> bool:
        """Admission control: will the whole prompt's footprint ever fit?

        Evaluates the same bound :meth:`can_admit_uncached` recomputes from
        scratch, with the demand side taken from the per-request
        :class:`~repro.core.admission.AdmissionCache` memo and the pool side
        read live from the allocator's O(1) counters.  Only the held-page
        subtraction and peak-residency correction are evaluated per probe
        (held references and ``chunk_tokens`` change between probes).
        ``tests/test_admission_cache.py`` property-tests the two paths
        against each other under randomized churn.
        """
        allocator = self.allocator
        entry = self._admission.demand(seq, self.specs, self.policies)
        bindings = self._bindings.get(seq.request_id)
        large_needed = 0
        for group_id, gross in entry.gross.items():
            n = gross
            held = 0
            if bindings is not None:
                # Pages already held (prefix-cache hits acquired at
                # begin_request) need no new allocation.
                held = len(bindings[group_id].held)
                n -= held
                if n < 0:
                    n = 0
            spec = self.specs[group_id]
            if spec.kind in (SLIDING_WINDOW, DROPPED_TOKEN):
                limit = spec.window if spec.window is not None else spec.budget
                assert limit is not None  # validated in GroupSpec.__post_init__
                peak_tokens = entry.stream_total[group_id]
                if limit + chunk_tokens < peak_tokens:
                    peak_tokens = limit + chunk_tokens
                peak_pages = -(-peak_tokens // spec.tokens_per_page)
                # Held pages are part of the peak-resident set too --
                # without the subtraction a probe taken while the prefix
                # hit is pinned counts those pages as demand *and* (via
                # ownership) against the quota headroom, and a request
                # mostly served from its group's own cache gets refused.
                if peak_pages - held > n:
                    n = peak_pages - held
            group = allocator.groups[group_id]
            # Small pages inside the group's *own* fully-evictable large
            # pages are claimable through the shared large-page term, so
            # ``local`` leaves them out (see can_admit_uncached).
            own_fe = allocator.fully_evictable_large_pages(group_id)
            spl = group.small_per_large
            local = group.num_free + len(group.evictor) - own_fe * spl
            deficit = n + watermark_pages - local
            if deficit > 0:
                need = -(-deficit // spl)
                quota = group.quota
                if (
                    quota is not None
                    and need - own_fe
                    > max(0, quota - allocator.large_pages_owned(group_id))
                ):
                    # Large pages beyond the group's own fully-evictable
                    # ones must be carved, and the soft quota blocks the
                    # carve regardless of shared availability.
                    return False
                large_needed += need
        return large_needed <= allocator.lcm.num_free + len(allocator.large_evictor)

    def admission_version(self) -> int:
        """Monotone pool-state version for admission-verdict reuse.

        The allocator's :attr:`~repro.core.two_level.TwoLevelAllocator.pool_version`:
        equal versions across probes guarantee the pool inputs of
        :meth:`can_admit` are unchanged, so the engine may skip re-probing
        a blocked head-of-queue request entirely.
        """
        return self.allocator.pool_version

    def can_admit_uncached(
        self, seq: SequenceSpec, watermark_pages: int = 0, chunk_tokens: int = 8192
    ) -> bool:
        """Uncached admission check -- the ``stats_slow()``-style cross-check.

        vLLM gates admission on the full prompt's block count; doing the
        same avoids admit-preempt thrash.  Each group's need is its
        steady-state *resident* set -- so a window model's long prompt does
        not demand pages it frees during prefill (Jenga's L4 Ministral
        advantage) -- plus the transient write set of one prefill chunk
        (a chunk's blocks must all be materialized before the out-of-window
        ones release at commit).  Groups compete for the shared large-page
        pool, so the check is joint in large-page units.
        """
        large_needed = 0
        bindings = self._bindings.get(seq.request_id)
        resident = self.resident_pages_needed(seq, len(seq))
        for group_id, n in resident.items():
            spec = self.specs[group_id]
            if spec.kind in (SLIDING_WINDOW, DROPPED_TOKEN):
                # Peak residency: a prefill chunk's blocks are all written
                # before the out-of-window ones release at commit, so the
                # group transiently holds up to window + chunk tokens
                # (capped by the stream itself).  Pages already held by
                # this request (pinned prefix hits) are part of that peak
                # and need no new allocation -- matching the subtraction
                # resident_pages_needed applied to ``n``.
                stream_total = seq.stream_length(spec.accepted_tags)
                limit = spec.window if spec.window is not None else spec.budget
                assert limit is not None  # validated in GroupSpec.__post_init__
                peak_tokens = min(stream_total, limit + chunk_tokens)
                held = len(bindings[group_id].held) if bindings is not None else 0
                n = max(n, -(-peak_tokens // spec.tokens_per_page) - held)
            group = self.allocator.groups[group_id]
            # The group's small pages inside its *own* fully-evictable
            # large pages are already claimable through ``available``
            # (the large evictor); counting them in ``local`` too would
            # double-count them against other groups' deficits.
            own_fe = self.allocator.fully_evictable_large_pages(group_id)
            overlap = own_fe * group.small_per_large
            local = group.num_free + len(group.evictor) - overlap
            deficit = n + watermark_pages - local
            if deficit > 0:
                need = -(-deficit // group.small_per_large)
                quota = group.quota
                if quota is not None:
                    # Beyond the group's own fully-evictable large pages
                    # (reclaimable in place, quota-neutral), every large
                    # page must be carved under the soft-quota headroom.
                    headroom = max(
                        0, quota - self.allocator.large_pages_owned(group_id)
                    )
                    if need - own_fe > headroom:
                        return False
                large_needed += need
        available = self.allocator.lcm.num_free + len(self.allocator.large_evictor)
        return large_needed <= available

    def ideal_resident_bytes(self, seq: SequenceSpec, computed_global: int) -> int:
        """Bytes an ideal allocator would keep for this request right now.

        Used by the fragmentation benchmarks as the "useful memory" line.
        """
        total = 0
        for group_id, spec in self.specs.items():
            stream_len = seq.stream_length(spec.accepted_tags, computed_global)
            if not stream_len:
                continue
            resident = self.policies[group_id].resident_tokens(stream_len)
            total += spec.bytes_for_tokens(resident)
        return total


def ideal_resident_bytes(
    group_specs: Dict[str, GroupSpec], seq: SequenceSpec, computed_global: int
) -> int:
    """Bytes an ideal, layer-aware allocator would keep for ``seq``.

    Standalone version of :meth:`AllocationMixin.ideal_resident_bytes`
    usable against *any* manager: the fragmentation benchmarks evaluate
    baselines' used memory against the model's true per-layer-type needs
    (Section 3.2's ideal of ``T * 32 * E + I * 8 * E``), not against the
    baselines' own inflated group structure.
    """
    total = 0
    for group_id, spec in group_specs.items():
        stream_len = seq.stream_length(spec.accepted_tags, computed_global)
        if not stream_len:
            continue
        resident = make_policy(spec).resident_tokens(stream_len)
        total += spec.bytes_for_tokens(resident)
    return total
