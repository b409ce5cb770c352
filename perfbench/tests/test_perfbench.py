"""Self-test of the benchmark: tiny runs of every workload, plain and traced.

    python3 -m pytest perfbench/tests -q

Each run is capped at a few ops, so the suite checks the benchmark's
contract (metric names, units, checks that bite, repeatable counts), not
the program's speed.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = ROOT / ".perfbench_out" / "selftest"
TINY_OPS = 12

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT, seed: int = 7):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--max-ops", str(TINY_OPS), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_emits_every_end_to_end_metric(workload):
    proc = run(workload, 0)
    result = result_of(proc)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == TINY_OPS
    assert "work statement:" in proc.stderr and "fail_frac" in proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_with_repeatable_counts(workload):
    first, second = (result_of(run(workload, 1)) for _ in range(2))
    assert _units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first["correct"] and first["failed"] == 0
    for name, metric in first["metrics"].items():
        if metric["unit"] in ("count", "B"):
            assert metric["value"] == second["metrics"][name]["value"], name
    oracle = {k: v["value"] for k, v in first["metrics"].items() if k.startswith("oracle.")}
    if workload == "certify":
        ops = next(workloads.cycles(workload, 7))[:TINY_OPS]
        assert oracle["oracle.matrix_cells"] == sum(op["cells"] for op in ops)
        assert oracle["oracle.trials"] == 3 * TINY_OPS
    else:
        assert not any(oracle.values())
    assert first["metrics"]["trace.overhead"]["value"] > 0


LAYER_SELF_TIMES = ("macaulay.self_s", "bounds.self_s", "monomials.self_s",
                    "oracle.build.self_s", "oracle.rank.self_s", "verifiers.self_s",
                    "level.self_s", "cli.self_s")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_cover_the_traced_op_time(workload):
    """Every hooked span's self time lands in one layer metric, so the layers
    add up to nearly all of the traced ops' time and to no more than it."""
    result = result_of(run(workload, 1))
    layers = sum(result["metrics"][name]["value"] for name in LAYER_SELF_TIMES)
    traced = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed7-traced.json").read_text())
    op_time = sum(traced["latencies_s"])
    assert 0.9 * op_time < layers <= op_time


def test_corrupted_reference_digest_counts_as_failure():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    good = json.loads((BENCH / "reference" / "sweeps.json").read_text())
    bad = SCRATCH / "corrupted-sweeps.json"
    bad.write_text(json.dumps({key: "0" * 16 for key in good}))
    result = result_of(run("sweeps", 0, "--reference", str(bad)))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == TINY_OPS


def test_without_program_sources_exits_nonzero_and_prints_no_result():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("sweeps", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
