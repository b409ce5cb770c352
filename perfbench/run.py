"""Run one workload of the greenhrt benchmark and print its metrics.

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; greenhrt is imported from its ``src``.
Workloads (see ``workloads.py`` for the op pools):

  sweeps      seeded ``greenhrt verify`` / ``level`` CLI calls
  certify     seeded ``greenhrt oracle certify`` calls on module files
  large_reps  batches of macaulay_rep / rep_value / kappa / rep_compare calls

With ``--trace 0`` one fresh interpreter runs whole cycles of ops in a
closed loop (one client, one op at a time) until ``--seconds`` have passed,
and the end-to-end metrics are reported. With ``--trace 1`` a fixed number
of cycles runs twice, in two fresh interpreters, untraced and then traced,
and the per-layer metrics come from the traced pass. Every op's output is
checked; a failed check counts as a failed op and never stops the run.

Times are divided by the machine's slowdown, measured by the calibration
units of ``calibrate.py`` after every op, so they read as seconds at a fixed
reference speed; the unscaled figures are kept in the result file.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The work statement, a human summary and the path of the full
result file (provenance, sample counts, failures) go to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
SETUP_PROBES = 21
# CPU time of the probe when greenhrt is ready, then the slowdown measured
# by the same process right after.
PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); import greenhrt, greenhrt.cli; "
    "ready = time.process_time(); sys.path.insert(0, {bench!r}); import calibrate; "
    "print(ready, calibrate.slowdown(0.03, 'python'))"
)


def _env() -> dict:
    return {**os.environ, **THREAD_CAPS}


def measure_setup() -> tuple[list[float], list[float]]:
    """CPU seconds from starting a fresh interpreter until greenhrt is imported.

    CPU time, unlike the wall clock, leaves out the time the probe waits
    for a core that another process holds. Returns the raw times and the
    machine slowdown that each probe measured in itself.
    """
    code = PROBE.format(src=str(ROOT / "src"), bench=str(HERE))
    raw, slow = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        ready, slowdown = map(float, proc.stdout.split())
        raw.append(ready)
        slow.append(slowdown)
    return raw, slow


def run_worker(args, trace: int, cycles: int, hard_cap: float, tag: str) -> dict:
    out = OUT / f"{args.workload}-seed{args.seed}-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--cycles", str(cycles), "--max-ops", str(args.max_ops),
           "--hard-cap", str(hard_cap), "--reference", str(args.reference),
           "--module-dir", str(OUT / "modules"), "--out", str(out)]
    subprocess.run(cmd, env=_env(), timeout=hard_cap + 30, check=True)
    return json.loads(out.read_text())


def scaled(pass_: dict) -> tuple[list[float], list[float]]:
    """Per-op wall and CPU seconds divided by the machine slowdown around the op.

    The slowdown of an op is the median calibration over it and its four
    nearest neighbours on each side, which smooths the noise of single
    calibration units. (Over two sets of 10 seeds, a window of two on each
    side left op_ms_p90 spreading 7-9% on sweeps and certify; four, 4-7%.)
    """
    slow = pass_["slowdowns"]
    around = [statistics.median(slow[max(0, i - 4):i + 5]) for i in range(len(slow))]
    return ([t / f for t, f in zip(pass_["latencies_s"], around)],
            [t / f for t, f in zip(pass_["cpu_s"], around)])


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of values.

    A Beta-weighted mean of all order statistics instead of the one or two
    nearest q: where the quantile falls in a gap between op sizes, it does
    not jump across the gap when a little noise reorders the ops beside it.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], t)), cdf)
    return float(np.diff(edges) @ x)


def timing(lat: list[float], cpu: list[float]) -> dict:
    n = len(lat)
    return {
        "ops_per_s": (n / sum(lat), "1/s", n),
        "op_ms_p50": (hd_quantile(lat, 0.5) * 1e3, "ms", n),
        "op_ms_p90": (hd_quantile(lat, 0.9) * 1e3, "ms", n),
        "cpu_ms_per_op": (sum(cpu) * 1e3 / n, "ms", n),
    }


def end_to_end(pass_: dict, setup_raw: list[float], setup_slow: list[float]) -> dict:
    setup = [t / f for t, f in zip(setup_raw, setup_slow)]
    return {
        **timing(*scaled(pass_)),
        "peak_rss_mb": (pass_["peak_rss_mb"], "MB", 1),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }


def raw_end_to_end(pass_: dict, setup_raw: list[float]) -> dict:
    return {**timing(pass_["latencies_s"], pass_["cpu_s"]),
            "setup_s": (statistics.median(setup_raw), "s", len(setup_raw))}


def per_layer(plain: dict, traced: dict) -> dict:
    metrics = {name: (value, unit, traced["attempted"])
               for name, (value, unit) in traced["trace"]["metrics"].items()}
    metrics["cli.stdout_bytes"] = (traced["stdout_bytes"], "B", traced["attempted"])
    metrics["trace.overhead"] = (
        sum(scaled(traced)[0]) / sum(scaled(plain)[0]), "ratio", traced["attempted"])
    return metrics


def time_share(pass_: dict) -> dict:
    """Share of op time spent in each op kind."""
    total = sum(pass_["latencies_s"])
    share: dict[str, float] = {}
    for kind, seconds in zip(pass_["kinds"], pass_["latencies_s"]):
        share[kind] = share.get(kind, 0.0) + seconds / total
    return share


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, numpy_version: str) -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_caps": THREAD_CAPS,
        "calibration_units": workloads.CALIBRATION[args.workload],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop each pass after this many ops (self-test sizes)")
    parser.add_argument("--reference", type=Path, default=None,
                        help="reference digests (default: perfbench/reference/<workload>.json)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "greenhrt" / "__init__.py").is_file():
        print(f"error: no greenhrt sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.reference is None:
        args.reference = HERE / "reference" / f"{args.workload}.json"

    statement = workloads.work_statement(args.workload, args.seed, bool(args.trace),
                                         args.seconds, args.max_ops)
    print(f"work statement: {json.dumps(statement)}", file=sys.stderr)
    (OUT / "modules").mkdir(parents=True, exist_ok=True)
    if args.workload == "certify":
        for op in workloads.pool("certify"):
            (OUT / "modules" / op["module_file"]).write_text(op["module"])

    if args.trace:
        cycles = workloads.trace_cycles(args.workload, args.seconds)
        plain = run_worker(args, 0, cycles, 50.0, "plain")
        traced = run_worker(args, 1, cycles, 50.0, "traced")
        passes = [plain, traced]
        metrics = per_layer(plain, traced)
        extra = {"absent_hooks": traced["trace"]["absent_hooks"],
                 "spans": traced["trace"]["spans"],
                 "spans_dropped": traced["trace"]["spans_dropped"],
                 "spans_file": traced["trace"]["spans_file"]}
    else:
        setup_raw, setup_slow = measure_setup()
        timed = run_worker(args, 0, 0, 120.0, "timed")
        passes = [timed]
        metrics = end_to_end(timed, setup_raw, setup_slow)
        raw = raw_end_to_end(timed, setup_raw)
        extra = {"raw_metrics": {name: {"value": v, "unit": u, "samples": n}
                                 for name, (v, u, n) in raw.items()},
                 "setup_samples_s": setup_raw, "setup_slowdowns": setup_slow,
                 "median_slowdown": statistics.median(timed["slowdowns"])}
        for name, (value, unit, _) in raw.items():
            print(f"raw {name:24s} {value:>14.6g} {unit}", file=sys.stderr)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "provenance": provenance(args, passes[0]["numpy"]),
        "work_statement": statement,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "failures": [f for p in passes for f in p["failures"]],
        "time_share_by_kind": time_share(passes[0]),
        "metrics": {name: {"value": v, "unit": u, "samples": s}
                    for name, (v, u, s) in metrics.items()},
        **extra,
    }, indent=1))

    for name, (value, unit, samples) in metrics.items():
        print(f"{name:28s} {value:>14.6g} {unit:6s} (n={samples})", file=sys.stderr)
    print(f"{'fail_frac':28s} {failed / max(attempted, 1):>14.6g} {'':6s} "
          f"(n={attempted})", file=sys.stderr)
    print(f"result file: {result_file}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
