"""Acceptance battery: one test per criterion, one printed verdict line each.

Verdict lines bypass capture, so they appear on any ``pytest`` run.
Every check is exact (integer or exact-rational comparison, zero tolerance).
"""
from __future__ import annotations

import itertools
import json
import random
import time
from math import comb

from test_macaulay import enumerate_canonical_reps

from greenhrt.bounds import (
    FreeModuleShape,
    braced_bound,
    green_bound,
    module_bound,
    rank2_bound,
    scaled_bound,
)
from greenhrt.cli import main as cli_main
from greenhrt.level import load_level_table, reproduce_table
from greenhrt.macaulay import kappa, macaulay_rep, rep_value
from greenhrt.monomials import (
    MonomialModule,
    degree_slice,
    lex_module,
    random_monomial_module,
)
from greenhrt.oracle import generic_restriction_dim
from greenhrt.verifiers import (
    check_herz_tail,
    check_kappa_lemma,
    check_lex_restriction,
    check_rank2,
    nonincreasing_tuples,
    check_higher,
)

SWEEP_SEED = 20240811


def _verdict(capsys, name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {name}: {detail} ({time.time() - started:.1f}s)")
    assert ok, f"{name}: {detail}"


def _shapes(n_values, r_values, degree_values):
    for n in n_values:
        for r in r_values:
            for degrees in itertools.combinations_with_replacement(degree_values, r):
                yield FreeModuleShape(n=n, degrees=degrees)


def test_criterion_1_table_reproduction(capsys):
    t0 = time.time()
    rows = load_level_table()
    results = reproduce_table(rows)
    ok = len(rows) == 21 and all(r.ok for r in results)
    code = cli_main(["level", "table", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    ok = ok and code == 0 and payload["all_ok"] and payload["total"] == 21
    _verdict(
        capsys,
        "criterion-1 table reproduction",
        ok,
        f"{sum(r.ok for r in results)}/21 rows match exactly, cli exit {code}",
        t0,
    )


def test_criterion_2_rank_two_exhaustive(capsys):
    t0 = time.time()
    cases = 0
    bad = []
    for n in (1, 2, 3, 4):
        for d1 in range(1, 6):
            for d2 in range(1, d1 + 1):
                outcome = check_rank2(n, d1, d2)
                cases += outcome.cases
                bad.extend(outcome.counterexamples)
    _verdict(
        capsys,
        "criterion-2 rank-two inequality",
        not bad,
        f"{cases} exhaustive cases, {len(bad)} counterexamples",
        t0,
    )


def test_criterion_3_r_summand(capsys):
    t0 = time.time()
    cases = 0
    bad = []
    for n in (1, 2, 3):
        # every non-increasing tuple with r in 1..4 and d <= 5
        outcome = check_higher(n, 5, 4, 30, SWEEP_SEED)
        cases += outcome.cases
        bad.extend(outcome.counterexamples)
    # exact agreement with the rank-two formula on r = 2 specializations
    mismatches = 0
    for n in (1, 2, 3):
        for d1, d2 in nonincreasing_tuples(5, 2):
            n1 = comb(n + d1 - 1, d1)
            n2 = comb(n + d2 - 1, d2)
            shape = FreeModuleShape(n=n, degrees=(0, d1 - d2))
            for a in range(n1 + 1):
                for b in range(n2 + 1):
                    if module_bound(a + b, d1, shape).total != rank2_bound(a, b, d1, d2, n):
                        mismatches += 1
    ok = not bad and cases >= 10_000 and mismatches == 0
    _verdict(
        capsys,
        "criterion-3 r-summand inequality",
        ok,
        f"{cases} cases (>=10000), {len(bad)} counterexamples, "
        f"{mismatches} rank-two mismatches",
        t0,
    )


def test_criterion_4_kappa_lemma_and_tail(capsys):
    t0 = time.time()
    lemma = check_kappa_lemma(2000, 6)
    tail = check_herz_tail(2000, 6)
    ok = lemma.ok and tail.ok
    _verdict(
        capsys,
        "criterion-4 kappa lemma and tail remark",
        ok,
        f"{lemma.cases} lemma cases, {tail.cases} tail cases, "
        f"{len(lemma.counterexamples) + len(tail.counterexamples)} counterexamples",
        t0,
    )


def test_criterion_5_lex_restriction(capsys):
    t0 = time.time()
    cases = 0
    bad = []
    for n in (1, 2, 3, 4):
        for d in range(5):
            outcome = check_lex_restriction(n, d)
            cases += outcome.cases
            bad.extend(outcome.counterexamples)
    _verdict(
        capsys,
        "criterion-5 lex-segment restriction identity",
        not bad,
        f"{cases} segment sizes checked, {len(bad)} mismatches",
        t0,
    )


def test_criterion_6_lex_module_equality(capsys):
    t0 = time.time()
    cases = 0
    bad = 0
    for shape in _shapes((1, 2, 3), (1, 2, 3), (0, 1, 2)):
        for m in range(5):
            dim = shape.dim(m)
            for k in range(dim + 1):
                module = lex_module(shape, m, k)
                got = degree_slice(module, m).xn_free_quotient_dim
                want = module_bound(dim - k, m, shape).total
                if got != want:
                    bad += 1
                cases += 1
    _verdict(
        capsys,
        "criterion-6 lexicographic-module equality",
        bad == 0,
        f"{cases} (shape, degree, slice) cells, {bad} mismatches",
        t0,
    )


def test_criterion_7_and_8_randomized_certification(capsys):
    t0 = time.time()
    rng = random.Random(SWEEP_SEED)
    total = 0
    violations = []
    slice_cases = 0
    slice_inequalities = 0
    scaled_checked = 0
    scaled_violations = []
    zero_equalities = 0

    while total < 500:
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        degrees = tuple(sorted(rng.randint(0, 2) for _ in range(r)))
        shape = FreeModuleShape(n=n, degrees=degrees)
        m = rng.randint(0, 5)
        kind = total % 5
        if kind == 0:
            dim = shape.dim(m)
            module = lex_module(shape, m, rng.randint(0, dim))
        elif kind == 1 and total % 15 == 1:
            module = MonomialModule.zero(shape)
        else:
            module = random_monomial_module(rng, shape, max_gens=4, max_degree=m + 1)
        report = generic_restriction_dim(module, m, seed=rng.randrange(2**30))
        total += 1
        if not report.holds:
            violations.append((shape, m, report))
        if report.expect_equality:
            slice_cases += 1
            if not report.equality:
                slice_inequalities += 1
        # criterion 8 rides on the degree-zero part of the same sweep
        if all(f == 0 for f in degrees) and (n + m - 1) >= 1:
            rhs = scaled_bound(degree_slice(module, m).quotient_dim, n, m)
            if report.generic_dim > rhs:
                scaled_violations.append((shape, m, report.generic_dim, str(rhs)))
            scaled_checked += 1

    # criterion 8 equality clause: the zero module meets the scaled bound
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            shape = FreeModuleShape(n=n, degrees=(0,) * r)
            for m in range(6):
                if n + m - 1 < 1:
                    continue
                report = generic_restriction_dim(MonomialModule.zero(shape), m, seed=7)
                rhs = scaled_bound(degree_slice(MonomialModule.zero(shape), m).quotient_dim, n, m)
                if report.generic_dim == rhs:
                    zero_equalities += 1
                else:
                    scaled_violations.append((shape, m, report.generic_dim, str(rhs)))
                scaled_checked += 1

    ok7 = not violations and slice_inequalities == 0 and total >= 500 and slice_cases >= 50
    _verdict(
        capsys,
        "criterion-7 randomized main-theorem certification",
        ok7,
        f"{total} modules, {len(violations)} bound violations, "
        f"{slice_cases} lex-slice cases all with equality",
        t0,
    )
    ok8 = not scaled_violations and scaled_checked > 0
    _verdict(
        capsys,
        "criterion-8 scaled corollary",
        ok8,
        f"{scaled_checked} degree-zero cases, {len(scaled_violations)} violations, "
        f"{zero_equalities} zero-module equalities",
        t0,
    )


def test_criterion_9_structural_properties(capsys):
    t0 = time.time()
    checks: list[tuple[str, bool]] = []

    # round trip over the full stated range
    ok = True
    for d in range(1, 13):
        for a in range(1_000_001):
            if rep_value(macaulay_rep(a, d)) != a:
                ok = False
                break
        if not ok:
            break
    checks.append(("round-trip a<=1e6 d<=12", ok))

    # uniqueness against the enumeration oracle
    ok = True
    for d in range(1, 7):
        by_value: dict[int, int] = {}
        greedy_match = True
        for value, nums in enumerate_canonical_reps(d, 2000):
            by_value[value] = by_value.get(value, 0) + 1
            if macaulay_rep(value, d).numerators != nums and by_value[value] == 1:
                greedy_match = False
        ok = ok and greedy_match and all(by_value.get(a, 0) == 1 for a in range(2001))
    checks.append(("uniqueness a<=2000 d<=6", ok))

    # order agreement: padded vectors strictly increase with the integer
    ok = True
    for d in range(1, 7):
        padded = [macaulay_rep(a, d).padded() for a in range(2001)]
        ok = ok and all(x < y for x, y in zip(padded, padded[1:]))
        values = [kappa(a, d) for a in range(2001)]
        ok = ok and all(x <= y for x, y in zip(values, values[1:]))
    checks.append(("order agreement + kappa monotone a<=2000 d<=6", ok))

    ok = all(
        kappa(comb(n + d - 1, d), d) == comb(n + d - 2, d)
        for n in range(1, 9)
        for d in range(1, 9)
    )
    checks.append(("kappa drops one variable on full spaces", ok))

    # boundary pivot consistency
    ok = True
    for shape in _shapes((1, 2, 3), (2, 3, 4), (0, 1, 2)):
        for m in range(6):
            caps = shape.component_dims(m)
            for j in range(1, shape.r):
                h = sum(caps[j:])
                if (
                    module_bound(h, m, shape, pivot=j).total
                    != module_bound(h, m, shape, pivot=j + 1).total
                ):
                    ok = False
    checks.append(("boundary pivot consistency r<=4 n<=3 m<=5", ok))

    # equal-degree shapes agree with the braced bound
    ok = True
    for n in (1, 2, 3):
        for r in (1, 2, 3, 4):
            for f in (0, 1, 2):
                shape = FreeModuleShape(n=n, degrees=(f,) * r)
                for m in range(f + 1, 6):
                    for h in range(shape.dim(m) + 1):
                        if module_bound(h, m, shape).total != braced_bound(h, m - f, n):
                            ok = False
    checks.append(("equal-degree consistency r<=4 n<=3", ok))

    # rank-one degeneration to the single-component bound
    ok = True
    for n in (1, 2, 3, 4):
        shape = FreeModuleShape(n=n, degrees=(0,))
        for m in range(7):
            for h in range(comb(n + m - 1, m) + 1):
                if module_bound(h, m, shape).total != green_bound(h, m):
                    ok = False
    checks.append(("rank-one degeneration n<=4 m<=6", ok))

    failed = [name for name, good in checks if not good]
    _verdict(
        capsys,
        "criterion-9 structural properties",
        not failed,
        f"{len(checks)} property suites"
        + (f"; failed: {failed}" if failed else " all green"),
        t0,
    )
