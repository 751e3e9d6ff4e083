"""Tests for the analytic roofline cost model."""

import pytest

from repro.engine.cost_model import CostModel, StepWork, _sum_min_range
from repro.models import LayerSpec, ModelSpec, get_model, list_models
from repro.platforms import H100, L4


def model():
    return get_model("llama3-8b")


class TestSumMinRange:
    def test_unlimited_is_arithmetic_series(self):
        assert _sum_min_range(0, 5, None) == 0 + 1 + 2 + 3 + 4

    def test_fully_capped(self):
        assert _sum_min_range(10, 15, 4) == 4 * 5

    def test_straddles_cap(self):
        assert _sum_min_range(2, 8, 5) == 2 + 3 + 4 + 5 + 5 + 5

    def test_empty_range(self):
        assert _sum_min_range(5, 5, None) == 0

    def test_matches_bruteforce(self):
        for p0, p1, lim in ((0, 20, 7), (3, 9, None), (8, 30, 8), (0, 1, 1)):
            expect = sum(min(t, lim) if lim else t for t in range(p0, p1))
            assert _sum_min_range(p0, p1, lim) == expect


class TestStepTime:
    def test_empty_step_is_overhead(self):
        cost = CostModel(model(), H100)
        assert cost.step_time(StepWork()) > 0

    def test_decode_batching_amortizes(self):
        """Larger decode batches yield more tokens/sec -- the property all
        of Jenga's throughput gains rest on."""
        cost = CostModel(model(), H100)

        def tput(batch):
            ctx, read = cost.attention_read(2048)
            work = StepWork(
                decode_tokens=batch,
                attn_context_tokens=ctx * batch,
                kv_read_bytes=read * batch,
                kv_write_bytes=cost.write_bytes_per_token() * batch,
            )
            return batch / cost.step_time(work)

        assert tput(8) > 2 * tput(1)
        assert tput(64) > tput(8)

    def test_longer_context_costs_more(self):
        cost = CostModel(model(), H100)

        def t(ctx_len):
            ctx, read = cost.attention_read(ctx_len)
            return cost.step_time(
                StepWork(decode_tokens=1, attn_context_tokens=ctx, kv_read_bytes=read)
            )

        assert t(100_000) > t(1_000)

    def test_l4_slower_than_h100(self):
        work = StepWork(prefill_tokens=4096, attn_context_tokens=4096 * 100.0)
        assert CostModel(model(), L4).step_time(work) > CostModel(model(), H100).step_time(work)

    def test_kernel_slowdown_scales_attention(self):
        m = model()
        ctx, read = CostModel(m, H100).attention_read(8192)
        work = StepWork(decode_tokens=1, attn_context_tokens=ctx, kv_read_bytes=read)
        fast = CostModel(m, H100).step_time(work)
        slow = CostModel(m, H100, kernel_slowdown=2.0).step_time(work)
        assert slow > fast

    def test_slowdown_below_one_rejected(self):
        with pytest.raises(ValueError):
            CostModel(model(), H100, kernel_slowdown=0.5)

    def test_merge(self):
        a = StepWork(prefill_tokens=5, decode_tokens=2, images_encoded=1)
        b = StepWork(prefill_tokens=3, speculative_extra_tokens=4)
        c = a.merge(b)
        assert c.prefill_tokens == 8
        assert c.total_tokens == 8 + 2 + 4
        assert c.images_encoded == 1


class TestAttentionReads:
    def test_window_caps_reads(self):
        ministral = get_model("ministral-8b")
        llama_like = get_model("llama3-8b")
        cm_win = CostModel(ministral, H100)
        cm_full = CostModel(llama_like, H100)
        ctx_w, read_w = cm_win.attention_read(100_000)
        ctx_f, read_f = cm_full.attention_read(100_000)
        # Ministral has 36 layers vs 32 but 27 of them cap at 32768.
        assert read_w < read_f * 36 / 32

    def test_mamba_reads_state(self):
        jamba = get_model("jamba-52b")
        cm = CostModel(jamba, H100)
        _, read = cm.attention_read(10)
        assert read >= jamba.mamba_state_bytes()

    def test_compute_is_additive_memory_subadditive(self):
        cm = CostModel(model(), H100)
        ctx_a, read_a = cm.attention_read_range(0, 10)
        ctx_b, read_b = cm.attention_read_range(10, 20)
        ctx_ab, read_ab = cm.attention_read_range(0, 20)
        # Attention FLOPs are per-token (quadratic overall) -> additive.
        assert ctx_a + ctx_b == pytest.approx(ctx_ab)
        # KV streaming happens once per pass -> one big pass reads no more
        # than two smaller ones.
        assert read_ab <= read_a + read_b

    def test_write_bytes(self):
        cm = CostModel(model(), H100)
        assert cm.write_bytes_per_token() == 32 * 4096

    def test_encoder_time(self):
        vlm = get_model("llava-onevision-7b")
        cm = CostModel(vlm, H100)
        assert cm.encoder_time(0) == 0.0
        assert cm.encoder_time(2) == pytest.approx(2 * cm.encoder_time(1))


def per_layer_read_range(model, p0, p1):
    """Reference pricing: the straightforward walk over every layer.

    ``CostModel`` prices whole layer classes at once; this oracle keeps
    the per-layer loop so the compiled tables are checked for bit-exact
    agreement rather than approximate closeness.
    """
    if p1 <= p0:
        return 0.0, 0.0
    ctx = 0.0
    bytes_read = 0.0
    kvb = model.kv_dtype_bytes
    for layer in model.layers:
        if layer.kind == "mamba":
            bytes_read += float(layer.state_bytes or 0)
            continue
        limit = None
        if layer.window:
            limit = layer.window
        if layer.budget:
            limit = layer.budget if limit is None else min(limit, layer.budget)
        ctx += _sum_min_range(p0, p1, limit)
        span = p1 if limit is None else min(p1, limit)
        bytes_read += span * 2 * layer.kv_heads * layer.head_dim * kvb
    return ctx, bytes_read


def read_ranges(model):
    """Ranges covering empty/inverted spans, single tokens, chunks that
    straddle every window/budget, and 200k+ contexts."""
    ranges = [(0, 0), (7, 7), (10, 3), (0, 1), (1, 2), (0, 512), (100, 612)]
    ranges += [(200_000, 200_001), (0, 200_000), (199_000, 201_048), (0, 262_144)]
    limits = {l.window for l in model.layers if l.window}
    limits |= {l.budget for l in model.layers if l.budget}
    for lim in sorted(limits):
        ranges += [
            (lim - 1, lim), (lim, lim + 1), (lim + 1, lim + 2),
            (lim - 1, lim + 1), (lim - 100, lim + 100), (0, lim + 1),
            (lim // 2, 3 * lim), (lim, 2 * lim),
        ]
    return ranges


# No zoo model combines a window with a budget on one layer; this one
# does, next to KV sharing and Mamba state, with repeated classes
# interleaved out of order.
MIXED = ModelSpec(
    name="mixed-synthetic",
    params_b=1.0,
    hidden_size=1024,
    layers=(
        LayerSpec("sliding_window", kv_heads=4, head_dim=64, window=300, budget=200),
        LayerSpec("full_attention", kv_heads=8, head_dim=128),
        LayerSpec("mamba", state_bytes=12345),
        LayerSpec("dropped_token", kv_heads=2, head_dim=64, window=150, budget=500),
        LayerSpec("sliding_window", kv_heads=4, head_dim=64, window=200),
        LayerSpec("full_attention", kv_heads=8, head_dim=128, shares_kv_with_previous=True),
        LayerSpec("mamba", state_bytes=777),
    ),
)


@pytest.mark.parametrize("name", list_models() + [MIXED.name])
class TestCompiledPricing:
    def test_read_range_bit_exact(self, name):
        m = MIXED if name == MIXED.name else get_model(name)
        cm = CostModel(m, H100)
        for p0, p1 in read_ranges(m):
            assert cm.attention_read_range(p0, p1) == per_layer_read_range(m, p0, p1), (p0, p1)

    def test_write_bytes_are_alllayer_sum(self, name):
        m = MIXED if name == MIXED.name else get_model(name)
        assert CostModel(m, H100).write_bytes_per_token() == m.kv_bytes_per_token_alllayers()


class TestCompiledPricingCoverage:
    def test_oracle_sweep_reaches_every_layer_feature(self):
        """Mamba state (jamba), KV sharing (characterai), budgets
        (pyramidkv) and windows (ministral) are all in the sweep."""
        for name in ("jamba-52b", "characterai-8b", "pyramidkv-8b", "ministral-8b"):
            assert name in list_models()
        layers = [l for n in list_models() for l in get_model(n).layers]
        assert any(l.kind == "mamba" for l in layers)
        assert any(l.shares_kv_with_previous for l in layers)
        assert any(l.budget for l in layers)
        assert any(l.window for l in layers)

    def test_kv_sharing_layers_still_read(self):
        m = get_model("characterai-8b")
        _, read = CostModel(m, H100).attention_read_range(0, 100)
        assert read > m.kv_bytes_per_token_alllayers() * 100
