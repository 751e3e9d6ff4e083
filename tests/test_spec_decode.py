"""Tests for the speculative-decoding engine (Section 6.1 / Figure 19)."""

import pytest

from repro.engine import Request, SchedulerConfig, SpecDecodeEngine, make_spec_manager
from repro.engine.cost_model import StepWork
from repro.models import GIB, get_model
from repro.platforms import H100
from repro.workloads import token_block


def engines(system, kv=GIB, k=4, acceptance=0.7, caching=False):
    draft = get_model("llama3.2-1b")
    target = get_model("llama3-8b")
    mgr = make_spec_manager(system, draft, target, kv, enable_prefix_caching=caching)
    eng = SpecDecodeEngine(
        draft, target, H100, mgr,
        num_speculative_tokens=k, acceptance_rate=acceptance, seed=7,
    )
    return eng


def reqs(n, prompt=256, output=64):
    return [
        Request.text(f"s{i}", token_block(0, "spec", i, prompt), output)
        for i in range(n)
    ]


class TestManagers:
    def test_jenga_combined_groups(self):
        mgr = make_spec_manager("jenga", get_model("llama3.2-1b"), get_model("llama3-8b"), GIB)
        assert set(mgr.specs) == {"draft/self_attn", "target/self_attn"}

    def test_max_uniform_page(self):
        mgr = make_spec_manager("vllm-max", get_model("llama3.2-1b"), get_model("llama3-8b"), GIB)
        sizes = {s.page_bytes for s in mgr.specs.values()}
        assert len(sizes) == 1

    def test_manual_is_dual(self):
        mgr = make_spec_manager("vllm-manual", get_model("llama3.2-1b"), get_model("llama3-8b"), GIB)
        assert len(mgr.managers) == 2

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_spec_manager("eagle", get_model("llama3.2-1b"), get_model("llama3-8b"), GIB)


class TestDecoding:
    def test_requests_complete_exactly(self):
        eng = engines("jenga")
        eng.add_requests(reqs(4, prompt=128, output=40))
        m = eng.run(max_steps=5000)
        assert len(m.requests) == 4
        assert all(r.output_len == 40 for r in m.requests)

    def test_multi_token_steps(self):
        """A spec-decode engine emits several tokens per decode step, so it
        finishes in fewer steps than output length."""
        eng = engines("jenga", acceptance=0.9)
        eng.add_requests(reqs(1, prompt=64, output=60))
        m = eng.run(max_steps=2000)
        decode_steps = sum(1 for s in m.steps if s.decode_batch > 0)
        assert decode_steps < 60

    def test_zero_acceptance_still_progresses(self):
        eng = engines("jenga", acceptance=0.0)
        eng.add_requests(reqs(1, prompt=64, output=10))
        m = eng.run(max_steps=2000)
        assert m.requests and m.requests[0].output_len == 10

    def test_deterministic(self):
        spans = []
        for _ in range(2):
            eng = engines("jenga")
            eng.add_requests(reqs(4, prompt=128, output=32))
            spans.append(eng.run(max_steps=5000).makespan)
        assert spans[0] == spans[1]

    def test_memory_grows_in_both_caches(self):
        eng = engines("jenga")
        eng.add_requests(reqs(1, prompt=128, output=16))
        eng.step()  # prefill
        stats = eng.manager.stats()
        assert stats.used_bytes_by_group["draft/self_attn"] > 0
        assert stats.used_bytes_by_group["target/self_attn"] > 0


class TestStepPricing:
    @staticmethod
    def prefill_work(cost, n):
        ctx, read = cost.attention_read_range(0, n)
        return StepWork(
            prefill_tokens=n,
            attn_context_tokens=ctx,
            kv_read_bytes=read,
            kv_write_bytes=n * cost.write_bytes_per_token(),
        )

    def test_prefill_only_step_costs_its_prefill(self):
        """A step that only prefills runs one draft pass and one target
        pass over the prompt: no phantom decode token, no share of k."""
        eng = engines("jenga", k=4)
        eng.add_requests(reqs(1, prompt=128, output=16))
        record = eng.step()
        assert record.decode_batch == 0 and record.prefill_tokens == 128
        expected = eng.draft_cost.step_time(
            self.prefill_work(eng.draft_cost, 128)
        ) + eng.cost.step_time(self.prefill_work(eng.cost, 128))
        assert record.duration == expected


class TestSystemsCompared:
    def run_system(self, system, n=12, kv=256 * 1024 * 1024):
        eng = engines(system, kv=kv)
        eng.add_requests(reqs(n, prompt=600, output=64))
        m = eng.run(max_steps=20000)
        assert len(m.requests) == n, system
        return m

    def test_jenga_matches_manual_on_llama(self):
        """Figure 19: on standard Llama, Jenga's automatic management
        reaches the manually-tuned SmartSpec split (within a small margin
        -- the static split is provably optimal there)."""
        jenga = self.run_system("jenga")
        manual = self.run_system("vllm-manual")
        ratio = jenga.output_throughput() / manual.output_throughput()
        assert 0.9 < ratio < 1.3

    def test_jenga_beats_max_page(self):
        """Figure 19: the uniform max page wastes draft-cache memory."""
        jenga = self.run_system("jenga")
        vmax = self.run_system("vllm-max")
        assert jenga.output_throughput() > vmax.output_throughput()
