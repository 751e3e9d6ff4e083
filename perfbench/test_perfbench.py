"""The benchmark's own tests, at tiny scale on a held-out seed.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads as wl  # noqa: E402

HELD_OUT_SEED = 90125
TINY = wl.TINY


def cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(out) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_simulated_metrics_repeat_for_one_seed(name):
    spec = TINY[name]
    first, digests = run.run_pass(spec, HELD_OUT_SEED)
    run.check_pass(first, digests, "first")
    again, digests = run.run_pass(spec, HELD_OUT_SEED)
    run.check_pass(again, digests, "again")
    assert run.sim_metrics(first) == run.sim_metrics(again)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_differ_across_seeds(name):
    spec = TINY[name]

    def shape(seed):
        inputs = run.make_inputs(spec, seed)
        if name == "docqa-cluster":
            convs, think = inputs
            return [r.seq.token_ids for turns in convs for r in turns], think
        return [(r.seq.token_ids, r.arrival_time, r.max_output_tokens) for r in inputs]

    assert shape(HELD_OUT_SEED) == shape(HELD_OUT_SEED)
    assert shape(HELD_OUT_SEED) != shape(HELD_OUT_SEED + 1)


def test_check_catches_a_wrong_generated_token():
    spec = TINY["chat-open"]
    p, digests = run.run_pass(spec, HELD_OUT_SEED)
    victim = next(r for r in p.sent if r.max_output_tokens > 2)
    victim.seq.token_ids[victim.prompt_len] += 1
    with pytest.raises(run.CheckFailed, match="generated tokens"):
        run.check_pass(p, digests, "tampered")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_printed_metric_names_match_benchmark_json(name):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert name in {w["name"] for w in bench["workloads"]}
    common = ["--workload", name, "--seed", str(HELD_OUT_SEED), "--seconds", "1",
              "--scale", "tiny"]
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        result = result_of(cli(*common, "--trace", trace))
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in bench[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if trace == "0":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = cli("--workload", "chat-open", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
