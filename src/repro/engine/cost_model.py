"""Analytic step-latency model.

The paper's evaluation runs on real GPUs; we replace wall-clock with a
deterministic roofline estimate.  What matters for reproducing the paper's
*shapes* is that the model rewards exactly the behaviours Jenga's allocator
enables:

* decode steps pay a large fixed cost (reading the weights once per step),
  so *larger decode batches* amortize it -- bigger batch, higher
  throughput;
* prefill pays per-token compute, and attention pays for the context each
  token actually reads (window-bounded for sliding-window layers);
* cache hits skip prefill compute outright;
* the vision encoder costs FLOPs per encoded image, so re-encoding per
  chunk (no embedding cache) is expensive;
* the GCD page strategy's kernel-inefficiency penalty (Section 4.4) scales
  the attention time.

Everything is a pure function of the scheduled work, so simulations are
exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.config import ModelSpec
from ..platforms.gpu import GPU

__all__ = ["StepWork", "CostModel"]

# Achievable fraction of peak FLOPs / bandwidth for fused transformer
# kernels (roofline efficiency).
_COMPUTE_EFF = 0.55
_BANDWIDTH_EFF = 0.75
# Fixed per-step host overhead (scheduling, kernel launches), seconds.
_STEP_OVERHEAD_S = 0.003


@dataclass
class StepWork:
    """Work scheduled in one engine step, as the cost model sees it.

    Attributes:
        prefill_tokens: New prompt tokens processed (across requests).
        decode_tokens: Sequences doing single-token decode (= batch size).
        attn_context_tokens: Sum over all processed tokens of the context
            tokens their attention actually reads (already window-bounded
            per layer group and weighted by the group's layer fraction).
        kv_read_bytes: KV-cache bytes read by attention this step.
        kv_write_bytes: KV-cache bytes written this step.
        images_encoded: Images pushed through the vision encoder.
        speculative_extra_tokens: Extra target-model tokens verified in a
            speculative-decoding step.
        offload_read_bytes: Host-to-device KV transfers (onloading blocks
            from the offload tier instead of recomputing them).
    """

    prefill_tokens: int = 0
    decode_tokens: int = 0
    attn_context_tokens: float = 0.0
    kv_read_bytes: float = 0.0
    kv_write_bytes: float = 0.0
    images_encoded: int = 0
    speculative_extra_tokens: int = 0
    offload_read_bytes: float = 0.0

    @property
    def total_tokens(self) -> int:
        return self.prefill_tokens + self.decode_tokens + self.speculative_extra_tokens

    def merge(self, other: "StepWork") -> "StepWork":
        return StepWork(
            prefill_tokens=self.prefill_tokens + other.prefill_tokens,
            decode_tokens=self.decode_tokens + other.decode_tokens,
            attn_context_tokens=self.attn_context_tokens + other.attn_context_tokens,
            kv_read_bytes=self.kv_read_bytes + other.kv_read_bytes,
            kv_write_bytes=self.kv_write_bytes + other.kv_write_bytes,
            images_encoded=self.images_encoded + other.images_encoded,
            speculative_extra_tokens=(
                self.speculative_extra_tokens + other.speculative_extra_tokens
            ),
            offload_read_bytes=self.offload_read_bytes + other.offload_read_bytes,
        )


class CostModel:
    """Roofline latency for engine steps of one model on one GPU.

    Args:
        model: Architecture being served.
        gpu: Platform envelope.
        kernel_slowdown: Multiplier on attention time for non-contiguous KV
            layouts (1.0 for LCM/MAX; >1 models the GCD strategy's custom
            kernels, Section 4.4).
    """

    def __init__(self, model: ModelSpec, gpu: GPU, kernel_slowdown: float = 1.0) -> None:
        if kernel_slowdown < 1.0:
            raise ValueError("kernel_slowdown cannot be below 1.0")
        self.model = model
        self.gpu = gpu
        self.kernel_slowdown = kernel_slowdown
        self._flops = gpu.flops * _COMPUTE_EFF
        self._bw = gpu.hbm_bandwidth * _BANDWIDTH_EFF
        # Per-step constants of step_time.
        self._flops_per_token = model.flops_per_token()
        self._vision_flops = model.vision_flops_per_image()
        self._weight_s = model.weight_bytes / self._bw
        # Per-request pricing tables, compiled once per model.
        self._write_bytes = float(model.kv_bytes_per_token_alllayers())
        self._classes, self._state_bytes = _compile_layer_classes(model)

    def step_time(self, work: StepWork) -> float:
        """Seconds one engine step takes."""
        if (
            work.total_tokens == 0
            and work.images_encoded == 0
            and work.offload_read_bytes == 0
        ):
            return _STEP_OVERHEAD_S

        # Dense (linear-layer) compute: 2 * params FLOPs per token.
        linear_flops = self._flops_per_token * work.total_tokens
        # Attention score/value FLOPs: ~4 * hidden per (token, context-token).
        attn_flops = 4.0 * self.model.hidden_size * work.attn_context_tokens
        encoder_flops = self._vision_flops * work.images_encoded
        compute_s = (linear_flops + encoder_flops) / self._flops
        attn_compute_s = attn_flops / self._flops

        # Memory: weights stream once per step; KV reads/writes on top.
        kv_s = (work.kv_read_bytes + work.kv_write_bytes) / self._bw

        attn_s = max(attn_compute_s, kv_s) * self.kernel_slowdown
        pcie_s = work.offload_read_bytes / self.gpu.pcie_bandwidth
        return max(compute_s, self._weight_s) + attn_s + pcie_s + _STEP_OVERHEAD_S

    def encoder_time(self, num_images: int) -> float:
        """Seconds to run the vision encoder on ``num_images`` images."""
        if num_images == 0:
            return 0.0
        return self._vision_flops * num_images / self._flops

    # ------------------------------------------------------------------
    # Helpers for building StepWork
    # ------------------------------------------------------------------

    def attention_read(self, context_len: int) -> tuple:
        """(context_token_sum, kv_bytes) one new token's attention reads.

        Each layer reads at most its window/budget of context; Mamba layers
        read their fixed state.  The context sum is layer-summed (so
        ``4 * hidden * attn_context_tokens`` in :meth:`step_time` gives the
        standard per-layer attention FLOPs, summed over layers).
        """
        return self.attention_read_range(context_len, context_len + 1)

    def attention_read_range(self, p0: int, p1: int) -> tuple:
        """Attention reads for new tokens at positions ``[p0, p1)``.

        Closed form per layer class (layers sharing one read limit), so a
        prefill chunk costs O(#classes) to price rather than
        O(chunk * #layers).  Token at position ``t`` reads
        ``min(t, limit)`` context tokens.
        """
        if p1 <= p0:
            return 0.0, 0.0
        ctx = 0.0
        # The recurrent Mamba state streams through once per pass.
        bytes_read = self._state_bytes
        for limit, count, per_tok in self._classes:
            # Compute: every new token attends to its own (window-capped)
            # context -- genuinely quadratic.
            ctx += count * _sum_min_range(p0, p1, limit)
            # Memory: fused kernels stream the KV region once per pass (the
            # whole point of FlashAttention tiling), so the traffic is the
            # resident context, not context x tokens.
            span = p1 if limit is None else min(p1, limit)
            bytes_read += span * per_tok
        return ctx, bytes_read

    def write_bytes_per_token(self) -> float:
        return self._write_bytes


def _compile_layer_classes(model: ModelSpec) -> tuple:
    """Fold ``model.layers`` into read classes and the Mamba state bytes.

    Returns ``(classes, state_bytes)`` where each class is
    ``(limit, layer_count, per_token_read_bytes)`` summed over the
    attention layers whose read limit (min of window and budget, ``None``
    when unbounded) is ``limit``.  KV-sharing layers store nothing but
    still *read* the shared cache, so they count here.  Every per-layer
    term is an integer-valued float far below 2**53, so pricing a class
    once and scaling by its layer count is bit-identical to the
    per-layer sum.
    """
    kvb = model.kv_dtype_bytes
    state_bytes = 0.0
    classes: dict = {}
    for layer in model.layers:
        if layer.kind == "mamba":
            state_bytes += float(layer.state_bytes or 0)
            continue
        limit = None
        if layer.window:
            limit = layer.window
        if layer.budget:
            limit = layer.budget if limit is None else min(limit, layer.budget)
        count, per_tok = classes.get(limit, (0, 0))
        classes[limit] = (count + 1, per_tok + 2 * layer.kv_heads * layer.head_dim * kvb)
    return (
        tuple((limit, count, per_tok) for limit, (count, per_tok) in classes.items()),
        state_bytes,
    )


def _sum_min_range(p0: int, p1: int, limit) -> float:
    """``sum(min(t, limit) for t in range(p0, p1))`` in closed form."""
    if limit is None:
        return (p0 + p1 - 1) * (p1 - p0) / 2.0
    if p0 >= limit:
        return float(limit) * (p1 - p0)
    mid = min(p1, limit)
    ramp = (p0 + mid - 1) * (mid - p0) / 2.0
    flat = float(limit) * max(0, p1 - limit)
    return ramp + flat
