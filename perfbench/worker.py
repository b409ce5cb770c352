"""Closed-loop executor for one benchmark pass, run in a fresh interpreter.

One client, one op at a time: each op starts only after the previous one and
its output checks are done. The runner (``run.py``) starts this script; it
imports greenhrt from the checkout's ``src`` and nowhere else.

    python3 perfbench/worker.py --workload sweeps --seed 1 --seconds 30 \
        --trace 0 --cycles 0 --max-ops 0 --hard-cap 120 \
        --reference perfbench/reference/sweeps.json \
        --module-dir .perfbench_out/modules --out .perfbench_out/pass.json
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def import_greenhrt():
    """Import greenhrt from this checkout's src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "greenhrt" / "__init__.py").is_file():
        raise SystemExit(f"error: no greenhrt sources under {src}")
    sys.path.insert(0, str(src))
    import greenhrt
    import greenhrt.cli

    if Path(greenhrt.__file__).resolve().parent != (src / "greenhrt").resolve():
        raise SystemExit(f"error: imported greenhrt from {greenhrt.__file__}, not {src}")
    return greenhrt


def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    return getattr(ctypes.CDLL(None), "malloc_trim", None)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def execute(op: dict, module_dir: str):
    """Run one op through greenhrt's public entry points; return its output.

    CLI ops return (exit code, stdout); large_reps batches return one
    (numerators, rep_value, kappa, rep_compare) row per draw.
    """
    import greenhrt.cli
    import greenhrt.macaulay

    if op["kind"] == "reps":
        mac = greenhrt.macaulay
        rows = []
        for a, d in op["draws"]:
            rep = mac.macaulay_rep(a, d)
            rows.append((rep.numerators, mac.rep_value(rep), mac.kappa(a, d),
                         mac.rep_compare(a, a + 1, d)))
        return rows
    if op["kind"].startswith("certify"):
        argv = workloads.certify_argv(op, module_dir)
    else:
        argv = op["argv"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = greenhrt.cli.main([*argv, "--format", "json"])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def output_digest(op: dict, output) -> str:
    if op["kind"] == "reps":
        rows = [[list(nums), k] for nums, _, k, _ in output]
        return workloads.digest(json.dumps(rows).encode())
    return workloads.digest(output[1].encode())


def _check_invariant(op: dict, payload: dict) -> str | None:
    """One check per op kind that does not trust the code under test."""
    kind = op["kind"]
    if kind in ("herz", "kappa-lemma", "rank2", "higher", "lex-restriction"):
        if payload["cases"] != op["cases"]:
            return f"{payload['cases']} cases, closed form gives {op['cases']}"
        if payload["counterexamples"]:
            return "counterexamples reported"
    elif kind == "level-table":
        if not (payload["all_ok"] and payload["total"] == 21 and len(payload["rows"]) == 21):
            return "level table not all_ok over 21 rows"
    elif kind == "level-analyze":
        h = op["h"]
        c = len(h) - 1
        flags = payload["conditions"]
        if len(flags) != c or len(payload["hG"]) != c or len(payload["hGM"]) != c:
            return "sequence lengths differ from the socle degree"
        for f in flags:
            i = f["i"]
            if f["plateau"] != (h[i] == h[i + 1]) or f["low_half"] != (i + 1 <= c - i):
                return f"condition flags wrong at i={i}"
            if f["all_hold"] and payload["hGM"][i] < payload["hG"][i]:
                return f"hGM < hG at i={i} where all conditions hold"
    elif kind.startswith("certify"):
        if payload["generic_dim"] > op["xn_free"]:
            return f"generic dim {payload['generic_dim']} above x_n count {op['xn_free']}"
        if op["top_slice"] and payload["generic_dim"] != payload["bound"]:
            return "top slice without equality"
    return None


def check(op: dict, output, reference: dict) -> str | None:
    """Failure reason of an op's output, or None when every check passes."""
    if op["kind"] == "reps":
        for (a, d), (_, value, k, cmp) in zip(op["draws"], output):
            if value != a or k > a or cmp != -1:
                return f"reps invariant fails at a={a}, d={d}"
    elif output[0] != 0:
        return f"exit code {output[0]}"
    want = reference.get(workloads.op_key(op))
    if want is None:
        return "no reference digest"
    if output_digest(op, output) != want:
        return "output differs from reference digest"
    if op["kind"] == "reps":
        return None
    try:
        payload = json.loads(output[1])
    except ValueError:
        return "stdout is not JSON"
    return _check_invariant(op, payload)


def run_pass(workload: str, seed: int, seconds: float, fixed_cycles: int, max_ops: int,
             hard_cap: float, reference: dict, module_dir: str,
             tracer: Tracer | None) -> dict:
    """Run whole cycles of ops in a closed loop; record each op's timings.

    The pass ends after ``fixed_cycles`` cycles, or, when that is 0, after the
    first cycle that ends once ``seconds`` have passed and MIN_OPS ops ran.
    ``max_ops`` and ``hard_cap`` cut it short, even inside a cycle.
    """
    record = {key: [] for key in ("latencies_s", "cpu_s", "slowdowns", "kinds")}
    units = workloads.CALIBRATION[workload]
    by_unit = {unit: [] for unit in units}
    malloc_trim = _malloc_trim()
    failures: list[str] = []
    stdout_bytes = 0
    start = perf_counter()

    def cut_short() -> bool:
        return 0 < max_ops <= len(record["kinds"]) or perf_counter() - start > hard_cap

    for cycles_done, cycle in enumerate(workloads.cycles(workload, seed), start=1):
        for op in cycle:
            if cut_short():
                break
            if tracer:
                tracer.op_id = len(record["kinds"])
                tracer.active = True
            c0 = _cpu_s()
            t0 = perf_counter()
            try:
                output = execute(op, module_dir)
                reason = None
            except Exception as exc:  # a crashing op is a failed op, not a failed run
                output, reason = None, f"raised {exc!r}"
            t1 = perf_counter()
            c1 = _cpu_s()
            if tracer:
                tracer.active = False
            # Hand freed heap memory back, as the end of a CLI process would;
            # otherwise the peak RSS of the same ops depends on their order.
            if malloc_trim:
                malloc_trim(0)
            # Calibrate for about 3% of the op's time, right after it.
            slow = [calibrate.slowdown(0.03 * (t1 - t0) / len(units), u) for u in units]
            record["slowdowns"].append(math.prod(slow) ** (1 / len(slow)))
            for unit, value in zip(units, slow):
                by_unit[unit].append(value)
            record["latencies_s"].append(t1 - t0)
            record["cpu_s"].append(c1 - c0)
            record["kinds"].append(op["kind"])
            if reason is None:
                reason = check(op, output, reference)
                if op["kind"] != "reps":
                    stdout_bytes += len(output[1].encode())
            if reason:
                failures.append(f"{workloads.op_key(op)[:120]}: {reason}")
        if fixed_cycles:
            finished = cycles_done >= fixed_cycles
        else:
            finished = (perf_counter() - start >= seconds
                        and len(record["kinds"]) >= workloads.MIN_OPS)
        if finished or cut_short():
            break
    return {
        **record,
        "attempted": len(record["kinds"]),
        "failed": len(failures),
        "failures": failures[:20],
        "wall_s": perf_counter() - start,
        "stdout_bytes": stdout_bytes,
        "slowdowns_by_unit": by_unit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--cycles", type=int, default=0, help="fixed cycle count (0 = timed)")
    parser.add_argument("--max-ops", type=int, default=0)
    # A pass stops early, even mid-cycle, once this much wall time has gone,
    # so a badly regressed program still ends inside the per-run time limit.
    parser.add_argument("--hard-cap", type=float, default=120.0)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--module-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import_greenhrt()
    import numpy

    reference = json.loads(Path(args.reference).read_text())
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = run_pass(args.workload, args.seed, args.seconds, args.cycles, args.max_ops,
                      args.hard_cap, reference, args.module_dir, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["numpy"] = numpy.__version__
    if tracer:
        spans_file = Path(args.out).with_suffix(".spans.jsonl")
        with spans_file.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["trace"] = {
            "metrics": tracer.metrics(),
            "absent_hooks": tracer.absent,
            "spans": len(tracer.spans),
            "spans_dropped": tracer.dropped,
            "spans_file": str(spans_file),
        }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
