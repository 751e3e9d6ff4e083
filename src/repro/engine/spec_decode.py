"""Speculative-decoding engine (Section 6.1, Figure 19).

A draft model proposes ``k`` tokens autoregressively; the target model
verifies them in one forward pass, accepting a prefix of the proposals plus
one bonus token.  Both models keep their own KV cache for every token, so
the memory manager must serve two different KV-size profiles at once:

* ``jenga``       -- one combined manager; the draft's and target's groups
  coexist in one LCM page pool and trade pages dynamically.
* ``vllm-max``    -- one uniform page sized for the *largest* group, so the
  draft's (and any sliding-window) pages carry dead padding.
* ``vllm-manual`` -- SmartSpec's static split: two homogeneous managers
  with fixed memory shares (optimal for plain Llama, wasteful for
  heterogeneous models).

The engine mirrors :class:`~repro.engine.engine.LLMEngine`'s scheduling
(FCFS admission, chunked prefill, preemption by recomputation) but a decode
step advances each sequence by ``accepted + 1`` tokens and costs ``k``
draft passes plus one (k+1)-token target pass.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple

from ..core.kv_manager import JengaKVCacheManager
from ..core.registry import create_manager, register_manager
from ..baselines.manual_spec import manual_spec_managers
from ..baselines.max_page import MaxPageManager
from ..models.config import ModelSpec
from ..platforms.gpu import GPU
from .cost_model import CostModel, StepWork
from .engine import LLMEngine
from .metrics import StepRecord
from .request import Request, RequestState
from .scheduler import SchedulerConfig

__all__ = ["SpecDecodeEngine", "make_spec_manager"]


def _pair_groups(draft: ModelSpec, target: ModelSpec, tokens_per_page: int):
    groups = {}
    groups.update(target.kv_groups(tokens_per_page, group_prefix="target/"))
    groups.update(draft.kv_groups(tokens_per_page, group_prefix="draft/"))
    return groups


@register_manager("jenga", kind="spec")
def _make_spec_jenga(
    draft: ModelSpec,
    target: ModelSpec,
    kv_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = False,
    max_num_seqs: int = 256,
):
    return JengaKVCacheManager(
        _pair_groups(draft, target, tokens_per_page),
        kv_bytes,
        enable_prefix_caching=enable_prefix_caching,
    )


@register_manager("vllm-max", kind="spec")
def _make_spec_max(
    draft: ModelSpec,
    target: ModelSpec,
    kv_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = False,
    max_num_seqs: int = 256,
):
    return MaxPageManager(
        _pair_groups(draft, target, tokens_per_page),
        kv_bytes,
        enable_prefix_caching=enable_prefix_caching,
    )


@register_manager("vllm-manual", kind="spec")
def _make_spec_manual(
    draft: ModelSpec,
    target: ModelSpec,
    kv_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = False,
    max_num_seqs: int = 256,
):
    return manual_spec_managers(
        draft,
        target,
        kv_bytes,
        tokens_per_page=tokens_per_page,
        enable_prefix_caching=enable_prefix_caching,
        max_num_seqs=max_num_seqs,
    )


def make_spec_manager(
    system: str,
    draft: ModelSpec,
    target: ModelSpec,
    kv_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = False,
    max_num_seqs: int = 256,
):
    """KV manager serving a draft/target pair, by registered system name."""
    return create_manager(
        system,
        "spec",
        draft,
        target,
        kv_bytes,
        tokens_per_page=tokens_per_page,
        enable_prefix_caching=enable_prefix_caching,
        max_num_seqs=max_num_seqs,
    )


class SpecDecodeEngine(LLMEngine):
    """Draft-and-target serving loop on a shared GPU."""

    def __init__(
        self,
        draft: ModelSpec,
        target: ModelSpec,
        gpu: GPU,
        manager,
        config: Optional[SchedulerConfig] = None,
        num_speculative_tokens: int = 4,
        acceptance_rate: float = 0.7,
        seed: int = 0,
    ) -> None:
        super().__init__(target, gpu, manager, config=config)
        self.draft = draft
        self.k = num_speculative_tokens
        self.acceptance_rate = acceptance_rate
        self._rng = random.Random(seed)
        # The base engine's ``self.cost`` prices the target.
        self.draft_cost = CostModel(draft, gpu, kernel_slowdown=manager.kernel_slowdown)

    # ------------------------------------------------------------------

    def _draw_accepted(self) -> int:
        """Accepted proposal count: Bernoulli chain capped at ``k``."""
        accepted = 0
        while accepted < self.k and self._rng.random() < self.acceptance_rate:
            accepted += 1
        return accepted

    def step(self) -> Optional[StepRecord]:
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            tracer.step_begin(self._step_index)
            tracer.begin_span("schedule")
        now = self.clock
        work_unused = StepWork()
        self._admit(now, work_unused)
        if not self.running:
            next_arrival = self.waiting.next_arrival()
            if next_arrival is None:
                if tracing:
                    tracer.end_span()
                    tracer.step_end()
                return None
            self.clock = now = max(now, next_arrival)
            self._admit(now, work_unused)
            if not self.running:
                if tracing:
                    tracer.end_span()
                    tracer.step_end()
                return None

        draft_work = StepWork()
        target_work = StepWork()
        scheduled: List[Tuple[Request, int, bool]] = []
        scheduled_set: Set[str] = set()
        budget = self.config.max_num_batched_tokens
        decode_batch = 0
        prefill_tokens = 0
        step_preemptions = 0

        # Phase 1: speculative decode iterations.
        for request in list(self.running):
            if budget <= self.k:
                break
            if request.state is not RequestState.RUNNING or not self._is_decode(request):
                continue
            remaining_out = request.max_output_tokens - request.num_output_tokens
            g = min(self._draw_accepted() + 1, remaining_out, self.k + 1)
            # Extend the sequence by the accepted tokens *before* allocating
            # so both caches grow to cover them.
            base_len = request.total_len
            for i in range(g):
                request.seq.append(request.next_generated_token() + i)
            target = request.total_len - 1
            ok, npre = self._allocate_or_preempt(request, target, scheduled_set)
            step_preemptions += npre
            if not ok:
                request.seq.truncate(base_len)
                continue
            scheduled.append((request, g, True))
            scheduled_set.add(request.request_id)
            decode_batch += 1
            budget -= self.k + 1
            # Draft: k sequential single-token passes.
            ctx_d, read_d = self.draft_cost.attention_read_range(
                base_len - 1, base_len - 1 + self.k
            )
            draft_work.decode_tokens += self.k
            draft_work.attn_context_tokens += ctx_d
            draft_work.kv_read_bytes += read_d
            draft_work.kv_write_bytes += self.k * self.draft_cost.write_bytes_per_token()
            # Target: one pass verifying k proposals (+1 pending token).
            ctx_t, read_t = self.cost.attention_read_range(
                base_len - 1, base_len + self.k
            )
            target_work.speculative_extra_tokens += self.k + 1
            target_work.attn_context_tokens += ctx_t
            target_work.kv_read_bytes += read_t
            target_work.kv_write_bytes += (
                (self.k + 1) * self.cost.write_bytes_per_token()
            )

        # Phase 2: prefill chunks (both models prefill the prompt).
        for request in list(self.running):
            if budget <= 0:
                break
            if request.state is not RequestState.RUNNING:
                continue
            if self._is_decode(request) or request.request_id in scheduled_set:
                continue
            remaining = request.total_len - request.num_computed_tokens
            if remaining <= 0:
                continue
            n = min(budget, remaining)
            if not self.config.enable_chunked_prefill and n < remaining:
                continue
            ok, npre = self._allocate_or_preempt(
                request, request.num_computed_tokens + n, scheduled_set
            )
            step_preemptions += npre
            if not ok:
                continue
            scheduled.append((request, n, False))
            scheduled_set.add(request.request_id)
            budget -= n
            prefill_tokens += n
            p0 = request.num_computed_tokens
            for cost, work in ((self.draft_cost, draft_work), (self.cost, target_work)):
                ctx, read = cost.attention_read_range(p0, p0 + n)
                work.prefill_tokens += n
                work.attn_context_tokens += ctx
                work.kv_read_bytes += read
                work.kv_write_bytes += n * cost.write_bytes_per_token()

        if tracing:
            tracer.end_span()  # schedule
        # The draft's k passes happen sequentially, then one target pass.
        # A prefill-only step runs the draft once over its prefill work.
        duration = 0.0
        if draft_work.total_tokens:
            passes = self.k if draft_work.decode_tokens else 1
            per_pass = StepWork(
                decode_tokens=draft_work.decode_tokens // passes,
                prefill_tokens=draft_work.prefill_tokens,
                attn_context_tokens=draft_work.attn_context_tokens / passes,
                kv_read_bytes=draft_work.kv_read_bytes / passes,
                kv_write_bytes=draft_work.kv_write_bytes / passes,
            )
            duration += passes * self.draft_cost.step_time(per_pass)
        if target_work.total_tokens:
            duration += self.cost.step_time(target_work)
        if duration == 0.0:
            duration = self.cost.step_time(StepWork())
        end = now + duration
        self.clock = end

        if tracing:
            tracer.begin_span("commit")
        for request, n, is_decode in scheduled:
            if is_decode:
                self._finalize_spec_decode(request, n, end)
            else:
                self._finalize(request, n, end)
        phases = None
        if tracing:
            tracer.end_span()  # commit
            phases = tracer.step_end()

        record = StepRecord(
            index=self._step_index,
            start_time=now,
            duration=duration,
            decode_batch=decode_batch,
            prefill_tokens=prefill_tokens,
            num_running=len(self.running),
            num_waiting=len(self.waiting),
            num_preemptions=step_preemptions,
            memory=self._memory_snapshot() if self.config.record_memory else None,
            phases=phases,
        )
        return self._complete_step(record)

    def _finalize_spec_decode(self, request: Request, g: int, end: float) -> None:
        request.num_computed_tokens += g
        self.manager.commit(
            request.seq, request.num_computed_tokens, now=end, phase="decode"
        )
        request.num_output_tokens += g
        if request.first_token_time is None:
            request.first_token_time = end
        if request.num_output_tokens >= request.max_output_tokens:
            self._finish(request, end)
