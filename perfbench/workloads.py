"""Seeded op plans for the three benchmark workloads.

Every op a run can execute comes from a fixed, finite pool, so each one has a
reference digest of its output in ``reference/<workload>.json``. A pool is
split into strata (an op kind, or a size band) and a round takes a fixed
number of ops from every stratum. A cycle is the smallest run of rounds in
which every op of a stratum comes up equally often. The seed permutes each
stratum afresh in every cycle and shuffles the order inside each round, so
different seeds run different op sequences, while a run of whole cycles
always has the same mix: that keeps a run's figures comparable across seeds.

This module is imported by both the runner and the worker and never imports
greenhrt: inputs and the independent invariants are computed here from first
principles.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from functools import reduce

WORKLOADS = ("sweeps", "certify", "large_reps")

# At least this many per-op samples per timed pass, so ten lie beyond p90.
MIN_OPS = 100

# Traced runs execute a fixed number of whole cycles, so their counts repeat
# exactly for a given seed and --seconds: max(1, round(seconds * rate)).
# At --seconds 30 the untraced pass of a traced run takes 5 to 12 seconds.
TRACE_CYCLES_PER_SECOND = {"sweeps": 1 / 30, "certify": 1 / 30, "large_reps": 4 / 30}

# Calibration units (calibrate.py) whose geometric-mean slowdown scales an
# op's time. certify spends about 60% of its op time in the oracle's rank,
# numpy elimination, which the machine's load slows less than interpreted
# Python.
CALIBRATION = {"sweeps": ("python",), "certify": ("python", "numpy"),
               "large_reps": ("python",)}

# Fixed seed of the op pools; changing it invalidates every reference digest.
POOL_SEED = 1403_4862


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------- monomials


def monomials(n: int, d: int):
    """Exponent tuples of degree d in n variables, lex-decreasing."""
    if n == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in monomials(n - 1, d - e):
            yield (e,) + rest


def dim_s(n: int, d: int) -> int:
    return math.comb(n + d - 1, d) if d >= 0 else 0


def dim_f(n: int, degrees, m: int) -> int:
    return sum(dim_s(n, m - f) for f in degrees)


def _divides(g, mono) -> bool:
    return all(e >= ge for e, ge in zip(mono, g))


def unrank_lex(n: int, d: int, k: int) -> tuple[int, ...]:
    """The k-th (0-based) monomial of degree d in n variables, lex-decreasing."""
    out = []
    for var in range(n - 1):
        e = d
        while k >= dim_s(n - var - 1, d - e):
            k -= dim_s(n - var - 1, d - e)
            e -= 1
        out.append(e)
        d -= e
    out.append(d)
    return tuple(out)


def lex_segment_generators(n: int, d: int, k: int) -> list[list[int]]:
    """At most n generators whose degree-d span is the k lex-largest monomials.

    With u the smallest monomial of the segment, a degree-d monomial v is
    lex-larger than u exactly when, at the first index j where they differ,
    v_j > u_j; those are the multiples of x_1^{u_1}..x_j^{u_j + 1}.
    """
    if k == 0:
        return []
    if k == dim_s(n, d):
        return [[0] * n]
    u = unrank_lex(n, d, k - 1)
    gens = [list(u)]
    for j in range(n - 1):
        g = list(u[: j + 1]) + [0] * (n - j - 1)
        g[j] += 1
        if sum(g) <= d:
            gens.append(g)
    return gens


def slice_counts(n: int, degrees, components, m: int) -> tuple[int, int]:
    """(|M_m|, dim (F/(M + x_n F))_m) of a monomial module, by enumeration."""
    in_module = 0
    xn_free_outside = 0
    for f, gens in zip(degrees, components):
        if m < f:
            continue
        for mono in monomials(n, m - f):
            inside = any(_divides(g, mono) for g in gens)
            in_module += inside
            xn_free_outside += (not inside) and mono[-1] == 0
    return in_module, xn_free_outside


# ------------------------------------------------------------------- sweeps


def _verify(statement: str, *flags) -> list[str]:
    return ["verify", statement, *map(str, flags)]


def _plateau(c: int, v: int, t: int) -> tuple[int, ...]:
    """Hilbert function rising like dim S_i (n = 3) to v, flat, ending at t."""
    return tuple(min(dim_s(3, i), v) for i in range(c)) + (t,)


def _sweeps_strata() -> dict[str, list[dict]]:
    herz = [
        {"kind": "herz", "argv": _verify("herz", "--a-max", a, "--d-max", d),
         "cases": a * d, "max_a": a}
        for a in (250, 500, 1000, 2000) for d in (2, 4, 6)
    ]
    lemma = [
        {"kind": "kappa-lemma", "argv": _verify("kappa-lemma", "--a-max", a, "--d-max", d),
         "cases": d * ((a + 1) ** 2 + (a + 1)), "max_a": 2 * a}
        for a in (500, 1000, 2000) for d in (3, 6)
    ]
    rank2 = [
        {"kind": "rank2", "argv": _verify("rank2", "--n", n, "--d1", d1, "--d2", d2),
         "cases": (dim_s(n, d1) + 1) * (dim_s(n, d2) + 1),
         "max_a": dim_s(n, d1) + dim_s(n, d2)}
        for n in (1, 2, 3, 4) for d1, d2 in ((3, 1), (3, 3), (4, 2), (4, 4), (5, 3), (5, 5))
    ]
    higher = [
        {"kind": "higher",
         "argv": _verify("higher", "--n", n, "--d-max", d_max, "--r-max", r_max,
                         "--samples", 100, "--seed", 0),
         "cases": sum(math.comb(d_max + r - 1, r) * (2**r + 100) for r in range(1, r_max + 1)),
         "max_a": r_max * dim_s(n, d_max)}
        for n in (2, 3) for d_max in (3, 4, 5) for r_max in (2, 4)
    ]
    lex = [
        {"kind": "lex-restriction", "argv": _verify("lex-restriction", "--n", n, "--d", d),
         "cases": dim_s(n, d) + 1, "max_a": dim_s(n, d)}
        for n in range(1, 9) for d in (2, 3, 4)
    ]
    table = [{"kind": "level-table", "argv": ["level", "table"], "max_a": 0}]
    analyze = []
    for c in (60, 130, 200):
        for v in (6, 15):
            h = _plateau(c, v, 2)
            analyze.append({"kind": "level-analyze",
                            "argv": ["level", "analyze", "--h", ",".join(map(str, h))],
                            "h": list(h), "max_a": max(h)})
    return {"herz": herz, "kappa-lemma": lemma, "rank2": rank2, "higher": higher,
            "lex-restriction": lex, "level-table": table, "level-analyze": analyze}


# Ops per round for each stratum. level analyze is quadratic in the socle
# degree; one op per round keeps it under a quarter of the sweeps time. The
# many small rank2 and lex-restriction ops put the median latency inside a
# dense cluster of similar ops, where it is stable.
SWEEPS_ROUND = {"herz": 2, "kappa-lemma": 1, "rank2": 4, "higher": 2,
                "lex-restriction": 4, "level-table": 1, "level-analyze": 1}


# ------------------------------------------------------------------ certify

# Log-uniform dim F_m bands between 10 and 3000, and ops per band; every
# third op of a band is a lex top slice. The three cheap bands and the n = 1
# stratum hold twice as many ops, which puts the median latency inside a
# dense cluster of similar ops, where it is stable; the top band holds twice
# as many for the same reason at p90.
CERTIFY_PER_BAND = (12, 12, 12, 6, 6, 12)
CERTIFY_BANDS = len(CERTIFY_PER_BAND)


def _random_gens(rng: random.Random, n: int, d: int) -> list[list[int]]:
    gens = []
    for _ in range(rng.randint(0, 3)):
        g = [0] * n
        for _ in range(rng.randint(max(0, d - 2), d)):
            g[rng.randrange(n)] += 1
        gens.append(g)
    return gens


def _certify_module(rng: random.Random, n: int, target: float, top_slice: bool) -> dict:
    r = rng.randint(1, 4)
    degrees = sorted(rng.randint(0, 2) for _ in range(r))
    if n == 1:
        m = degrees[-1] + rng.randint(0, 2)
    else:
        m = degrees[0]
        while dim_f(n, degrees, m) < target:
            m += 1
    if top_slice:
        k = rng.randint(0, dim_f(n, degrees, m))
        components = []
        for f in degrees:
            take = min(k, dim_s(n, m - f))
            k -= take
            components.append(lex_segment_generators(n, m - f, take) if m >= f else [])
    else:
        components = [_random_gens(rng, n, m - f) if m >= f else [] for f in degrees]
    return {"n": n, "degrees": degrees, "components": components, "m": m,
            "top_slice": top_slice}


def _certify_op(spec: dict) -> dict:
    module = json.dumps({k: spec[k] for k in ("n", "degrees", "components")}, sort_keys=True)
    n, degrees, m = spec["n"], spec["degrees"], spec["m"]
    in_module, xn_free = slice_counts(n, degrees, spec["components"], m)
    dim_m = dim_f(n, degrees, m)
    # The dense oracle stacks the M_m rows on l * F_{m-1}, three trials.
    rows = in_module + dim_f(n, degrees, m - 1)
    return {"kind": "certify-top" if spec["top_slice"] else "certify",
            "module": module, "module_file": f"{digest(module.encode())}.json",
            "m": m, "dim_fm": dim_m, "xn_free": xn_free, "top_slice": spec["top_slice"],
            "cells": 3 * rows * dim_m if rows else 0, "max_a": dim_m}


def _certify_strata() -> dict[str, list[dict]]:
    rng = random.Random(f"certify-pool:{POOL_SEED}")
    lo, hi = math.log(10), math.log(3000)
    strata: dict[str, list[dict]] = {}
    for band in range(CERTIFY_BANDS):
        ops = []
        for i in range(CERTIFY_PER_BAND[band]):
            target = math.exp(rng.uniform(lo + (hi - lo) * band / CERTIFY_BANDS,
                                          lo + (hi - lo) * (band + 1) / CERTIFY_BANDS))
            spec = _certify_module(rng, rng.randint(2, 6), target, i % 3 == 0)
            ops.append(_certify_op(spec))
        strata[f"band{band}"] = ops
    # n = 1: S' = k after restriction, dim F_m <= r
    strata["n1"] = [_certify_op(_certify_module(rng, 1, 1, i % 3 == 0)) for i in range(12)]
    return strata


# One cycle is six rounds: each band gives a sixth of its ops to a round.
CERTIFY_ROUND = {**{f"band{b}": size // 6 for b, size in enumerate(CERTIFY_PER_BAND)},
                 "n1": 2}


def certify_argv(op: dict, module_dir) -> list[str]:
    return ["oracle", "certify", "--module", f"{module_dir}/{op['module_file']}",
            "--m", str(op["m"])]


# --------------------------------------------------------------- large_reps

REPS_BATCHES = 256
REPS_PER_BATCH = 100
REPS_A_MAX = 10**12


def _reps_strata() -> dict[str, list[dict]]:
    rng = random.Random(f"reps-pool:{POOL_SEED}")
    batches = []
    for b in range(REPS_BATCHES):
        draws = [
            [int(math.exp(rng.uniform(0, math.log(REPS_A_MAX)))), rng.randint(2, 10)]
            for _ in range(REPS_PER_BATCH)
        ]
        batches.append({"kind": "reps", "batch": b, "draws": draws,
                        "max_a": max(a for a, _ in draws)})
    return {"batches": batches}


REPS_ROUND = {"batches": 1}


# -------------------------------------------------------------------- plans

_STRATA = {
    "sweeps": (_sweeps_strata, SWEEPS_ROUND),
    "certify": (_certify_strata, CERTIFY_ROUND),
    "large_reps": (_reps_strata, REPS_ROUND),
}


def strata(workload: str) -> tuple[dict[str, list[dict]], dict[str, int]]:
    if workload not in _STRATA:
        raise ValueError(f"unknown workload {workload!r}")
    build, per_round = _STRATA[workload]
    return build(), per_round


def pool(workload: str) -> list[dict]:
    """Every op of a workload once, in a fixed order."""
    return [op for ops in strata(workload)[0].values() for op in ops]


def op_key(op: dict) -> str:
    """Reference key of an op: exactly what determines its output."""
    if op["kind"] == "reps":
        return f"batch {op['batch']} {digest(json.dumps(op['draws']).encode())}"
    if op["kind"].startswith("certify"):
        return f"certify {digest(op['module'].encode())} m={op['m']}"
    return " ".join(op["argv"])


def cycle_rounds(workload: str) -> int:
    by_stratum, per_round = strata(workload)
    for name, ops in by_stratum.items():
        if len(ops) % per_round[name]:
            raise ValueError(f"stratum {name} does not split into whole rounds")
    return reduce(math.lcm, (len(ops) // per_round[name] for name, ops in by_stratum.items()))


def cycles(workload: str, seed: int):
    """Endless sequence of cycles; in each, every op of a stratum comes up
    equally often."""
    by_stratum, per_round = strata(workload)
    rounds = cycle_rounds(workload)
    rng = random.Random(f"plan:{workload}:{seed}")
    while True:
        queues = {}
        for name, ops in by_stratum.items():
            repeat = rounds * per_round[name] // len(ops)
            queues[name] = [op for _ in range(repeat) for op in rng.sample(ops, len(ops))]
        cycle = []
        for r in range(rounds):
            batch = [
                op
                for name, count in per_round.items()
                for op in queues[name][r * count:(r + 1) * count]
            ]
            rng.shuffle(batch)
            cycle.extend(batch)
        yield cycle


def trace_cycles(workload: str, seconds: int) -> int:
    return max(1, round(seconds * TRACE_CYCLES_PER_SECOND[workload]))


def work_statement(workload: str, seed: int, trace: bool, seconds: int, max_ops: int) -> dict:
    """Size of a run, known before it starts."""
    cycle = next(cycles(workload, seed))
    n = len(cycle)
    if trace:
        planned = trace_cycles(workload, seconds) * n
        rule = "fixed whole cycles, run once untraced and once traced"
    else:
        planned = -(-MIN_OPS // n) * n
        rule = f"whole cycles until {seconds} s have passed and at least {MIN_OPS} ops ran"
    if max_ops:
        planned = min(planned, max_ops)
        rule += f"; capped at {max_ops} ops"
    return {
        "workload": workload,
        "cycle_ops": n,
        "planned_ops": planned,
        "stop_rule": rule,
        "max_dim_fm": max(op.get("dim_fm", 0) for op in cycle),
        "max_a": max(op["max_a"] for op in cycle),
        "predicted_cells_per_cycle": sum(op.get("cells", 0) for op in cycle),
    }
