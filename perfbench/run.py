#!/usr/bin/env python3
"""End-to-end serving benchmark for the Jenga reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload chat-open --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen and
``perfbench/spec.json`` for the SLO limits and the layer -> metric map):

* ``chat-open``      ShareGPT-shaped text, open-loop Poisson arrivals, one
                     gemma2-9b engine on 1/8 of the H100 KV budget;
* ``docqa-cluster``  closed-loop multi-turn QA over 2048-token articles, four
                     gemma2-9b replicas behind the cache-aware router, each
                     on 1/4 of the H100 KV budget;
* ``vision-batch``   offline batch of MMMU-pro-shaped prompts on
                     llama3.2-vision-11b (self- and cross-attention groups).

``--trace 0`` measures the end-to-end metrics: whole passes of the seeded
workload are repeated while they fit in ``--seconds`` (simulated metrics
must repeat exactly; wall metrics pool every pass and are reported in
units of an interleaved reference routine, see ``workloads.Reference``),
and set-up time is the median of several fresh processes.  ``--trace 1`` runs one untraced pass
in a child process, then one traced pass here; it checks that tracing
changed no simulated outcome, writes the spans as a Chrome trace under
``perfbench/out/``, prints a per-layer self-time table and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed check
exits with status 1; a checkout without the program exits with status 2
and prints no result.
"""

import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("chat-open", "docqa-cluster", "vision-batch")
SETUP_PROBES = 9

with open(os.path.join(HERE, "spec.json")) as _f:
    SLO = json.load(_f)["slo"]

PROGRAM_PRESENT = os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))
if PROGRAM_PRESENT:
    sys.path[:0] = [SRC, HERE]
    # First half of set-up time: importing every program module the
    # benchmark uses (the benchmark's own imports are not counted).
    _t0 = perf_counter()
    import repro.serving  # noqa: F401
    import repro.workloads  # noqa: F401
    IMPORT_S = perf_counter() - _t0
    import workloads as wl
    from repro.core.math_utils import percentile
    from repro.engine.request import generated_token
    from tracing import Tracing, layer_metrics


class CheckFailed(Exception):
    """A correctness check on the program's outputs failed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# Simulated-clock metrics and correctness checks
# ----------------------------------------------------------------------


def sim_metrics(p) -> dict:
    """Serving outcome of one pass; exact for a given seed."""
    ttft = [m.ttft for m in p.finished]
    tpot = [m.tpot for m in p.finished]
    met = sum(
        1 for m in p.finished
        if m.ttft <= SLO["ttft_s"] and m.tpot <= SLO["tpot_ms"] / 1e3
    )
    outcome = sorted(
        (m.request_id, m.arrival_time, m.first_token_time, m.finish_time,
         m.output_len, m.cached_prompt_tokens, m.num_preemptions)
        for m in p.finished
    )
    digest = hashlib.sha256(repr(
        (outcome, sorted(r.request_id for r in p.failed))
    ).encode()).hexdigest()
    return {
        "ttft_p50_s": percentile(ttft, 0.5),
        "ttft_p90_s": percentile(ttft, 0.9),
        "ttft_p99_s": percentile(ttft, 0.99),
        "tpot_p50_ms": percentile(tpot, 0.5) * 1e3,
        "tpot_p99_ms": percentile(tpot, 0.99) * 1e3,
        "throughput_tok_s": p.throughput_tok_s,
        "slo_attainment": met / max(1, len(p.sent)),
        "failed_frac": len(p.failed) / max(1, len(p.sent)),
        "sim_duration_s": p.sim_duration,
        "outcome_sha256": digest,
    }


def prompt_digests(requests) -> dict:
    return {r.request_id: hash(tuple(r.seq.token_ids[:r.prompt_len])) for r in requests}


def check_pass(p, digests: dict, phase: str) -> None:
    """Outputs of one pass: accounting, tokens and pool state after drain."""
    sent, done, failed = len(p.sent), len(p.finished), len(p.failed)
    print(f"[{phase}] sent={sent} succeeded={done} failed={failed}")
    require(done + failed == sent, f"{phase}: finished {done} + failed {failed} != sent {sent}")
    by_id = {r.request_id: r for r in p.sent}
    require(len(by_id) == sent, f"{phase}: duplicate request ids")
    for m in p.finished:
        r = by_id[m.request_id]
        require(m.output_len == r.max_output_tokens,
                f"{phase}: {m.request_id} produced {m.output_len} of {r.max_output_tokens} tokens")
        tokens = r.seq.token_ids
        require(hash(tuple(tokens[:r.prompt_len])) == digests[m.request_id],
                f"{phase}: {m.request_id} prompt tokens changed")
        expected = [generated_token(m.request_id, i) for i in range(r.max_output_tokens - 1)]
        require(tokens[r.prompt_len:] == expected,
                f"{phase}: {m.request_id} generated tokens differ from generated_token()")
    for i, manager in enumerate(p.managers):
        alloc = manager.allocator
        require(alloc.stats() == alloc.stats_slow(), f"{phase}: pool {i} stats() != stats_slow()")
        try:
            alloc.check_invariants()
        except AssertionError as exc:
            raise CheckFailed(f"{phase}: pool {i} invariant violated: {exc}") from exc
        used = sum(1 for g in alloc.groups.values() for pg in g.pages.values() if pg.is_used)
        require(used == 0, f"{phase}: pool {i} still holds {used} USED pages after drain")


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


def make_inputs(spec, seed: int, rate=None, n=None):
    if spec.name == "chat-open":
        return wl.chat_inputs(spec, seed, rate or spec.rates[0], n or spec.requests)
    if spec.name == "vision-batch":
        return wl.vision_inputs(spec, seed)
    return wl.docqa_inputs(spec, seed), wl.think_times(spec, seed)


def max_rss_mb() -> float:
    """Peak RSS of this process (``VmHWM``).  ``ru_maxrss`` would not do:
    it also carries the peak of the process this one was forked from."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_pass(spec, seed: int, hooks=None, rate=None, n=None):
    """Generate the inputs and run one pass; return (pass, prompt digests).

    The pass's ``rss_growth_mb`` is the process's peak RSS after the pass
    minus its peak once the inputs and the reference table exist, so
    neither is counted as the program's memory."""
    inputs = make_inputs(spec, seed, rate, n)
    if spec.name == "docqa-cluster":
        convs, think = inputs
        digests = prompt_digests(r for turns in convs for r in turns)
    else:
        digests = prompt_digests(inputs)
    hooks = hooks or wl.NoTrace()
    reference = wl.Reference()
    # A server holds a request only while it is in flight; here every
    # input exists up front, so keep the collector from rescanning them
    # (and the reference table) on each pass over the program's own heap.
    gc.collect()
    gc.freeze()
    rss_before = max_rss_mb()
    try:
        if spec.name == "docqa-cluster":
            p = wl.run_cluster(spec, convs, think, hooks, reference)
        else:
            p = wl.run_engine(spec, inputs, hooks, reference)
    finally:
        gc.unfreeze()
    p.rss_growth_mb = max_rss_mb() - rss_before
    return p, digests


def backlog(requests, t: float) -> int:
    """Requests that have arrived by ``t`` and were not yet first admitted."""
    return sum(
        1 for r in requests
        if r.arrival_time <= t and (r.first_scheduled_time is None or r.first_scheduled_time > t)
    )


def rung_verdict(rate: float, p) -> dict:
    arrivals = sorted(r.arrival_time for r in p.sent)
    half = backlog(p.sent, arrivals[len(arrivals) // 2])
    last = backlog(p.sent, arrivals[-1])
    rule = SLO["backlog_growth"]
    growing = last > rule["factor"] * max(half, rule["floor"])
    attainment = sim_metrics(p)["slo_attainment"]
    return {
        "rate_rps": rate, "sent": len(p.sent), "succeeded": len(p.finished),
        "failed": len(p.failed), "slo_attainment": attainment,
        "backlog_half": half, "backlog_last": last, "growing": growing,
        "meets": attainment >= SLO["attainment"] and not growing,
    }


def ladder(spec, seed: int, nominal) -> list:
    """Verdicts for every rung of chat-open's fixed rate ladder."""
    verdicts = [rung_verdict(spec.rates[0], nominal)]
    for rate in spec.rates[1:]:
        p, digests = run_pass(spec, seed, rate=rate, n=spec.ladder_requests)
        check_pass(p, digests, f"rung {rate:g} rps")
        verdicts.append(rung_verdict(rate, p))
    for v in sorted(verdicts, key=lambda v: v["rate_rps"]):
        print(
            f"[rung {v['rate_rps']:g} rps] sent={v['sent']} succeeded={v['succeeded']} "
            f"failed={v['failed']} attainment={v['slo_attainment']:.4f} "
            f"backlog@half={v['backlog_half']} backlog@last={v['backlog_last']} "
            f"growing={v['growing']} meets_slo={v['meets']}"
        )
    return verdicts


def max_rate(verdicts) -> float:
    return max((v["rate_rps"] for v in verdicts if v["meets"]), default=0.0)


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------


def setup_probe(spec) -> str:
    """Build this workload's managers, engines and cluster; report the
    seconds spent importing the program and building, then the median
    duration of the reference routine run right afterwards."""
    t0 = perf_counter()
    if spec.name == "docqa-cluster":
        wl.build_cluster(spec, wl.NoTrace())
    else:
        wl.build_engine(spec, wl.NoTrace())
    setup = IMPORT_S + perf_counter() - t0
    reference = wl.Reference()
    for _ in range(5):
        reference.measure()
    return f"{setup} {median(reference.samples)}"


def child_cmd(args, *extra) -> list:
    return [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--scale", args.scale, *extra,
    ]


def measure_setup(args) -> float:
    """Median over fresh processes of set-up time rescaled to nominal
    machine speed (``NOMINAL_REFERENCE_S`` over that process's reference
    duration), so a busier host does not read as slower set-up."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            child_cmd(args, "--setup-probe"), cwd=ROOT, capture_output=True,
            text=True, timeout=120,
        )
        require(out.returncode == 0, f"set-up probe failed: {out.stderr.strip()[-500:]}")
        setup, reference = map(float, out.stdout.split())
        raw.append(setup)
        scaled.append(setup * wl.NOMINAL_REFERENCE_S / reference)
    print(f"[setup] {SETUP_PROBES} processes, raw median {median(raw):.4f} s, "
          f"at nominal speed {median(scaled):.4f} s")
    return median(scaled)


def untraced(args, spec):
    """Repeat whole passes while they fit in ``--seconds`` (a child making
    the reference pass of a traced run stops after one).

    Returns the wall samples of every pass, the simulated metrics (equal
    for every pass), the last pass and the first pass's ``rss_growth_mb``
    (later passes reuse memory the first one freed)."""
    deadline = perf_counter() + args.seconds
    samples = []
    while True:
        started = perf_counter()
        p, digests = run_pass(spec, args.seed)
        check_pass(p, digests, f"pass {len(samples) + 1}")
        sim = sim_metrics(p)
        if not samples:
            first_sim, rss_mb = sim, p.rss_growth_mb
        require(sim == first_sim, f"pass {len(samples) + 1} simulated metrics differ from pass 1")
        samples.append(wl.WallSample.of(p))
        took = perf_counter() - started
        if args.child or perf_counter() + took > deadline:
            return samples, sim, p, rss_mb
        del p, digests  # free this pass before building the next


def wall_metrics(samples) -> dict:
    """Wall-clock cost, raw and in units of the interleaved reference
    routine's median duration (``ref``), which cancels machine speed."""
    walls = [w for s in samples for w in s.step_walls]
    ref = median(r for s in samples for r in s.reference_s)
    program = sum(s.program_wall for s in samples)
    tokens = sum(s.tokens for s in samples)
    p50, p99 = percentile(walls, 0.5), percentile(walls, 0.99)
    return {
        "wall_tok_s": tokens / program,
        "step_wall_p50_us": p50 * 1e6,
        "step_wall_p99_us": p99 * 1e6,
        "reference_us": ref * 1e6,
        "tok_per_ref": tokens / (program / ref),
        "step_p50_ref": p50 / ref,
        "step_p99_ref": p99 / ref,
    }


def program_in_ref(p) -> float:
    """Program wall time of one pass in reference-routine durations."""
    return p.program_wall / median(p.reference_s)


def run_untraced(args, spec) -> dict:
    setup_s = measure_setup(args)
    samples, sim, _, rss_mb = untraced(args, spec)
    wall = wall_metrics(samples)
    print(f"[passes] {len(samples)} passes, {sum(len(s.step_walls) for s in samples)} engine steps")
    print("[wall] " + " ".join(f"{k}={v:.6g}" for k, v in wall.items()))
    print(f"[slo] attainment={sim['slo_attainment']:.4f} failed_frac={sim['failed_frac']:.4f} "
          f"ttft_p90_s={sim['ttft_p90_s']:.4f} ttft_p99_s={sim['ttft_p99_s']:.4f} "
          f"(TTFT <= {SLO['ttft_s']} s, TPOT <= {SLO['tpot_ms']} ms)")
    metrics = {
        "ttft_p50_s": (sim["ttft_p50_s"], "s"),
        "tpot_p50_ms": (sim["tpot_p50_ms"], "ms"),
        "tpot_p99_ms": (sim["tpot_p99_ms"], "ms"),
        "throughput_tok_s": (sim["throughput_tok_s"], "tok/s"),
        "tok_per_ref": (wall["tok_per_ref"], "tok/ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {
        "attempted": sum(s.sent for s in samples),
        "failed": sum(s.failed for s in samples),
        "metrics": metrics,
    }


def run_child(args, spec) -> None:
    """Untraced reference pass of a traced run (plus chat-open's ladder)."""
    samples, sim, p, _ = untraced(args, spec)
    verdicts = ladder(spec, args.seed, p) if spec.rates else []
    print(json.dumps({
        "sim": sim, "program_ref": program_in_ref(samples[0]), "verdicts": verdicts,
        "attempted": len(p.sent) + sum(v["sent"] for v in verdicts[1:]),
        "failed": len(p.failed) + sum(v["failed"] for v in verdicts[1:]),
    }))


def run_traced(args, spec) -> dict:
    out = subprocess.run(
        child_cmd(args, "--seconds", str(args.seconds), "--child"), cwd=ROOT,
        capture_output=True, text=True, timeout=170,
    )
    lines = out.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    require(out.returncode == 0 and lines, f"untraced pass failed: {out.stderr.strip()[-1000:]}")
    ref = json.loads(lines[-1])

    tracing = Tracing()
    p, digests = run_pass(spec, args.seed, hooks=tracing)
    tracing.close()
    check_pass(p, digests, "traced pass")
    sim = sim_metrics(p)
    for key, value in ref["sim"].items():
        require(sim[key] == value,
                f"tracing changed simulated metric {key}: {value} -> {sim[key]}")
    sim["max_rate_rps"] = max_rate(ref["verdicts"])
    layers = layer_metrics(tracing, p, sim)
    layers["trace.overhead_frac"] = program_in_ref(p) / ref["program_ref"] - 1.0

    path = os.path.join(OUT_DIR, f"trace-{spec.name}-{args.seed}.json")
    count = tracing.write_trace(path)
    print(f"[trace] {count} events written to {os.path.relpath(path, ROOT)}")
    print("[self time] per span name, wall clock:")
    for line in tracing.recorder.self_time_table():
        print("  " + line)
    units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
    return {
        "attempted": ref["attempted"] + len(p.sent),
        "failed": ref["failed"] + len(p.failed),
        "metrics": {name: (layers[name], units[name]) for name in units},
    }


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def emit(result: dict, correct: bool) -> None:
    metrics = result.get("metrics", {})
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(result.get("attempted", 1))),
        "failed": int(result.get("failed", 0)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the same shapes at test size")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not PROGRAM_PRESENT:
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = wl.SCALES[args.scale][args.workload]
    if args.setup_probe:
        print(setup_probe(spec))
        return 0
    try:
        if args.child:
            run_child(args, spec)
            return 0
        result = run_traced(args, spec) if args.trace else run_untraced(args, spec)
    except CheckFailed as exc:
        print(f"perfbench: CHECK FAILED: {exc}", file=sys.stderr)
        emit({"attempted": 1, "failed": 1}, correct=False)
        return 1
    emit(result, correct=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
