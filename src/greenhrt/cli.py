"""Command-line surface: bound computation, verification sweeps, oracle runs.

Exit codes: 0 on success or verified, 1 when a counterexample or bound
violation was found, 2 on usage or input errors. JSON output is stable for
identical invocations (fixed key order, no timestamps).
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import bounds, level, macaulay, monomials, oracle, verifiers


class InputError(ValueError):
    """Bad file, malformed JSON or out-of-range value supplied by the user."""


def _emit(args, payload: dict, human: str) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(human)


def _load_module(path: str) -> monomials.MonomialModule:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read module file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"module file {path} is not valid JSON: {exc}")
    try:
        return monomials.module_from_data(data)
    except ValueError as exc:
        raise InputError(f"module file {path}: {exc}")


def cmd_rep(args) -> int:
    rep = macaulay.macaulay_rep(args.a, args.d)
    payload = {
        "a": args.a,
        "d": args.d,
        "numerators": list(rep.numerators),
        "delta": rep.delta,
    }
    _emit(args, payload, f"{args.a} = {rep.expansion_str()}")
    return 0


def cmd_kappa(args) -> int:
    value = macaulay.kappa(args.a, args.d)
    _emit(args, {"a": args.a, "d": args.d, "kappa": value}, f"kappa({args.a},{args.d}) = {value}")
    return 0


def cmd_bound_green(args) -> int:
    value = bounds.green_bound(args.h, args.d)
    _emit(args, {"h": args.h, "d": args.d, "bound": value}, f"green_bound({args.h},{args.d}) = {value}")
    return 0


def cmd_bound_module(args) -> int:
    shape = bounds.FreeModuleShape(
        n=args.n, degrees=level._parse_int_list(args.degrees, "--degrees")
    )
    bb = bounds.module_bound(args.h, args.m, shape)
    payload = {
        "n": args.n,
        "degrees": list(shape.degrees),
        "m": args.m,
        "h": args.h,
        "pivot": bb.j,
        "head": bb.head,
        "head_term": bb.head_term,
        "tail_terms": list(bb.tail_terms),
        "dims": list(bb.dims),
        "capacities": list(bb.capacities),
        "total": bb.total,
    }
    human = (
        f"bound = {bb.total}  (pivot j={bb.j}, head {bb.head} -> {bb.head_term},"
        f" tail {list(bb.tail_terms)}, N = {list(bb.capacities)})"
    )
    _emit(args, payload, human)
    return 0


def cmd_bound_scaled(args) -> int:
    value = bounds.scaled_bound(args.h, args.n, args.d)
    payload = {
        "h": args.h,
        "n": args.n,
        "d": args.d,
        "numerator": value.numerator,
        "denominator": value.denominator,
    }
    _emit(args, payload, f"scaled bound = {value} ({float(value):g})")
    return 0


def cmd_level_analyze(args) -> int:
    lh = level.LevelHilbert(h=level._parse_int_list(args.h, "--h"), n=args.n)
    cmp = level.compare_bounds(lh)
    payload = {
        "h": list(cmp.h),
        "n": args.n,
        "hGM": list(cmp.hGM),
        "hG": list(cmp.hG),
        "win_positions": sorted(cmp.win_positions),
        "conditions": [
            {
                "i": c.i,
                "low_half": c.low_half,
                "plateau": c.plateau,
                "fits_single_segment": c.fits_single_segment,
                "all_hold": c.all_hold,
            }
            for c in cmp.proposition_flags
        ],
    }
    human = "\n".join(
        [
            f"h   = {list(cmp.h)}",
            f"hGM = {list(cmp.hGM)}",
            f"hG  = {list(cmp.hG)}",
            f"module bound wins at positions {sorted(cmp.win_positions)}",
        ]
    )
    _emit(args, payload, human)
    return 0


def cmd_level_table(args) -> int:
    try:
        rows = level.load_level_table(args.data)
    except (OSError, ValueError) as exc:
        raise InputError(f"level table dataset: {exc}")
    results = level.reproduce_table(rows)
    all_ok = all(r.ok for r in results)
    payload = {
        "rows": [
            {
                "position": r.row.position,
                "h": list(r.row.h),
                "stored_hGM": list(r.row.hGM),
                "stored_hG": list(r.row.hG),
                "computed_hGM": list(r.computed_hGM),
                "computed_hG": list(r.computed_hG),
                "win_positions": sorted(r.win_positions),
                "ok": r.ok,
            }
            for r in results
        ],
        "passed": sum(r.ok for r in results),
        "total": len(results),
        "all_ok": all_ok,
    }
    lines = [
        f"{'ok' if r.ok else 'FAIL'}  pos {r.row.position}  h={','.join(map(str, r.row.h))}"
        for r in results
    ]
    lines.append(f"{payload['passed']}/{payload['total']} rows verified")
    _emit(args, payload, "\n".join(lines))
    return 0 if all_ok else 1


def _emit_outcome(args, outcome: verifiers.VerificationOutcome) -> int:
    human = (
        f"{outcome.statement}: {outcome.cases} cases, "
        f"{len(outcome.counterexamples)} counterexamples"
    )
    if outcome.counterexamples:
        human += "\n" + "\n".join(str(c) for c in outcome.counterexamples[:10])
    _emit(args, outcome.to_json_dict(), human)
    return 0 if outcome.ok else 1


def cmd_verify(args) -> int:
    if args.statement == "kappa-lemma":
        outcome = verifiers.check_kappa_lemma(args.a_max, args.d_max)
    elif args.statement == "herz":
        outcome = verifiers.check_herz_tail(args.a_max, args.d_max)
    elif args.statement == "rank2":
        outcome = verifiers.check_rank2(args.n, args.d1, args.d2)
    elif args.statement == "higher":
        # Empty tuple lists would pass with 0 cases; name the field instead.
        if args.d_max < 1:
            raise InputError(f"d_max must be at least 1, got {args.d_max}")
        if not args.r and args.r_max < 1:
            raise InputError(f"r_max must be at least 1 when r is 0, got {args.r_max}")
        tuples = verifiers.nonincreasing_tuples(args.d_max, args.r) if args.r else [
            tup
            for r in range(1, args.r_max + 1)
            for tup in verifiers.nonincreasing_tuples(args.d_max, r)
        ]
        outcome = verifiers.check_higher(args.n, tuples, args.samples, seed=args.seed)
    elif args.statement == "lex-restriction":
        outcome = verifiers.check_lex_restriction(args.n, args.d)
    elif args.statement == "scaled":
        outcome = verifiers.check_scaled_corollary(
            n_max=args.n_max,
            r_max=args.r_max,
            d_max=args.d_max,
            samples=args.samples,
            p=args.p,
            trials=args.trials,
            seed=args.seed,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown statement {args.statement}")
    return _emit_outcome(args, outcome)


def cmd_oracle_restrict(args) -> int:
    module = _load_module(args.module)
    report = oracle.generic_restriction_dim(
        module, args.m, p=args.p, trials=args.trials, seed=args.seed
    )
    human = (
        f"generic restriction dim = {report.generic_dim} (trials {list(report.dims)}), "
        f"bound = {report.bound}, holds = {report.holds}, equality = {report.equality}"
    )
    _emit(args, report.to_json_dict(), human)
    return 0 if report.holds else 1


def cmd_oracle_certify(args) -> int:
    module = _load_module(args.module)
    report = oracle.certify_main_theorem(
        module, args.m, p=args.p, trials=args.trials, seed=args.seed
    )
    verdict = "certified" if report.certified else "VIOLATED"
    human = (
        f"{verdict}: generic dim {report.generic_dim} vs bound {report.bound}"
        f" (top-slice equality expected: {report.expect_equality})"
    )
    _emit(args, report.to_json_dict(), human)
    return 0 if report.certified else 1


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("human", "json"), default="human", help="output format"
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls, and
    # every call gets a fresh namespace.
    parser = argparse.ArgumentParser(
        prog="greenhrt",
        description="Hyperplane restriction bounds for graded modules: "
        "Macaulay representations, lexicographic slices, verifiers and a "
        "prime-field restriction oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rep", help="Macaulay representation of a in base d")
    p.add_argument("a", type=int)
    p.add_argument("d", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("kappa", help="numerator-decremented value of a in base d")
    p.add_argument("a", type=int)
    p.add_argument("d", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("bound", help="closed-form restriction bounds")
    bsub = p.add_subparsers(dest="bound_kind", required=True)

    b = bsub.add_parser("green", help="single-component restriction bound")
    b.add_argument("h", type=int)
    b.add_argument("d", type=int)
    _add_format(b)
    b.set_defaults(func=cmd_bound_green)

    b = bsub.add_parser("module", help="piecewise bound with full breakdown")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--degrees", required=True, help="comma-separated generator degrees")
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--h", type=int, required=True)
    _add_format(b)
    b.set_defaults(func=cmd_bound_module)

    b = bsub.add_parser("scaled", help="exact rational linear bound")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--h", type=int, required=True)
    _add_format(b)
    b.set_defaults(func=cmd_bound_scaled)

    p = sub.add_parser("level", help="level-algebra bound comparison")
    lsub = p.add_subparsers(dest="level_kind", required=True)

    l = lsub.add_parser("analyze", help="compare both bounds for one Hilbert function")
    l.add_argument("--h", required=True, help="comma-separated h_0,...,h_c")
    l.add_argument("--n", type=int, default=3)
    _add_format(l)
    l.set_defaults(func=cmd_level_analyze)

    l = lsub.add_parser("table", help="re-derive the bundled comparison dataset")
    l.add_argument("--data", default=None, help="path to an alternative dataset")
    _add_format(l)
    l.set_defaults(func=cmd_level_table)

    p = sub.add_parser("verify", help="brute-force verification sweeps")
    vsub = p.add_subparsers(dest="statement", required=True)

    v = vsub.add_parser("kappa-lemma", help="superadditivity and degree monotonicity")
    v.add_argument("--a-max", type=int, default=2000)
    v.add_argument("--d-max", type=int, default=6)
    _add_format(v)
    v.set_defaults(func=cmd_verify)

    v = vsub.add_parser("herz", help="kappa stall iff representation tail hits its degree")
    v.add_argument("--a-max", type=int, default=2000)
    v.add_argument("--d-max", type=int, default=6)
    _add_format(v)
    v.set_defaults(func=cmd_verify)

    v = vsub.add_parser("rank2", help="two-summand inequality, exhaustive")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--d1", type=int, required=True)
    v.add_argument("--d2", type=int, required=True)
    _add_format(v)
    v.set_defaults(func=cmd_verify)

    v = vsub.add_parser("higher", help="r-summand inequality, sampled plus corners")
    v.add_argument("--n", type=int, default=3)
    v.add_argument("--d-max", type=int, default=5)
    v.add_argument("--r", type=int, default=0, help="fixed tuple length (0 = all up to --r-max)")
    v.add_argument("--r-max", type=int, default=4)
    v.add_argument("--samples", type=int, default=100, help="random draws per degree tuple")
    v.add_argument("--seed", type=int, default=0)
    _add_format(v)
    v.set_defaults(func=cmd_verify)

    v = vsub.add_parser("lex-restriction", help="lex-segment specialization identity")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--d", type=int, required=True)
    _add_format(v)
    v.set_defaults(func=cmd_verify)

    v = vsub.add_parser("scaled", help="linear bound over sampled degree-zero modules")
    v.add_argument("--n-max", type=int, default=3)
    v.add_argument("--r-max", type=int, default=3)
    v.add_argument("--d-max", type=int, default=5)
    v.add_argument("--samples", type=int, default=3)
    v.add_argument("--p", type=int, default=oracle.DEFAULT_PRIME)
    v.add_argument("--trials", type=int, default=oracle.DEFAULT_TRIALS)
    v.add_argument("--seed", type=int, default=0)
    _add_format(v)
    v.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="prime-field generic restriction")
    osub = p.add_subparsers(dest="oracle_kind", required=True)

    o = osub.add_parser("restrict", help="sampled restriction dimension of a module")
    o.add_argument("--module", required=True, help="module description JSON file")
    o.add_argument("--m", type=int, required=True)
    o.add_argument("--p", type=int, default=oracle.DEFAULT_PRIME)
    o.add_argument("--trials", type=int, default=oracle.DEFAULT_TRIALS)
    o.add_argument("--seed", type=int, default=0)
    _add_format(o)
    o.set_defaults(func=cmd_oracle_restrict)

    o = osub.add_parser("certify", help="check the sampled dimension against the bound")
    o.add_argument("--module", required=True, help="module description JSON file")
    o.add_argument("--m", type=int, required=True)
    o.add_argument("--p", type=int, default=oracle.DEFAULT_PRIME)
    o.add_argument("--trials", type=int, default=oracle.DEFAULT_TRIALS)
    o.add_argument("--seed", type=int, default=0)
    _add_format(o)
    o.set_defaults(func=cmd_oracle_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
