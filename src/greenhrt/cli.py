"""Command-line surface: bound computation, verification sweeps, oracle runs.

The parser is built from one table, ``COMMANDS``: a ``Group`` holds its
help, its argparse ``dest`` and its children; a ``Leaf`` holds its help,
its argument specs and its handler. Every leaf also takes ``--format``.
Long flags must be spelled in full: no parser accepts a unique prefix.

Exit codes: 0 on success or verified, 1 when a counterexample or bound
violation was found, 2 on usage or input errors. JSON output is stable for
identical invocations (fixed key order, no timestamps).
"""
from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from functools import cache
from math import isqrt
from typing import NamedTuple

from . import bounds, level, macaulay, monomials, oracle, verifiers


def _emit(args, payload: dict, human: str) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(human)


def _load_module(path: str) -> monomials.MonomialModule:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read module file {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"module file {path}: {exc}")
    except ValueError as exc:  # JSONDecodeError, or an int of over 4300 digits
        raise ValueError(f"module file {path} is not valid JSON: {exc}")
    except RecursionError:
        raise ValueError(f"module file {path}: nested too deeply to parse")
    try:
        return monomials.module_from_data(data)
    except ValueError as exc:
        raise ValueError(f"module file {path}: {exc}")


def cmd_rep(args) -> int:
    # The representation lists at most min(a, d) numerators.
    if args.a >= 0 and args.d >= 1:
        verifiers._refuse_above(min(args.a, args.d), verifiers._MAX_DEGREES, "degrees",
                                a=args.a, d=args.d)
    rep = macaulay.macaulay_rep(args.a, args.d)
    payload = {
        "a": args.a,
        "d": args.d,
        "numerators": list(rep.numerators),
        "delta": rep.delta,
    }
    _emit(args, payload, f"{args.a} = {rep.expansion_str()}")
    return 0


def _refuse_long_pass(a: int, d: int, /, **fields) -> None:
    # A non-unit pick at degree i takes at least i + 1, so the greedy pass
    # for kappa(a, d) visits at most min(d, isqrt(2a)) degrees.
    verifiers._refuse_above(min(d, isqrt(2 * a)), verifiers._MAX_DEGREES, "degrees", **fields)


def cmd_kappa(args) -> int:
    if args.a >= 0 and args.d >= 1:
        _refuse_long_pass(args.a, args.d, a=args.a, d=args.d)
    value = macaulay.kappa(args.a, args.d)
    _emit(args, {"a": args.a, "d": args.d, "kappa": value}, f"kappa({args.a},{args.d}) = {value}")
    return 0


def cmd_bound_green(args) -> int:
    # kappa(h, d) at d >= 1: the same pass as cmd_kappa.
    if args.h >= 0 and args.d >= 1:
        _refuse_long_pass(args.h, args.d, h=args.h, d=args.d)
    value = bounds.green_bound(args.h, args.d)
    _emit(args, {"h": args.h, "d": args.d, "bound": value}, f"green_bound({args.h},{args.d}) = {value}")
    return 0


def cmd_bound_module(args) -> int:
    shape = bounds.FreeModuleShape(
        n=args.n, degrees=level._parse_int_list(args.degrees, "--degrees")
    )
    profile = bounds._BoundProfile(shape.n, shape.component_degrees(args.m))
    # The full terms are closed form; the head's pass, kappa(head, d_j), is
    # refused as cmd_kappa's is, before it runs.
    if 0 <= args.h <= profile.suffix[1]:
        j = profile.pivot(args.h)
        _refuse_long_pass(args.h - profile.suffix[j + 1], profile.dims[j - 1], h=args.h, m=args.m)
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
        raise ValueError(f"level table dataset: {exc}")
    results = level.reproduce_table(rows)
    all_ok = all(r.ok for r in results)
    payload = {
        "rows": [
            {
                "position": r.row.position,
                "h": list(r.row.h),
                "stored_hGM": list(r.row.hGM),
                "stored_hG": list(r.row.hG),
                "computed_hGM": list(r.comparison.hGM),
                "computed_hG": list(r.comparison.hG),
                "win_positions": sorted(r.comparison.win_positions),
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


def _sweep(check: Callable[[argparse.Namespace], verifiers.VerificationOutcome]):
    """Handler that runs one verification sweep and emits its outcome."""
    return lambda args: _emit_outcome(args, check(args))


def _sample(args) -> oracle.RestrictionReport:
    module = _load_module(args.module)
    return oracle.generic_restriction_dim(
        module, args.m, p=args.p, trials=args.trials, seed=args.seed
    )


def cmd_oracle_restrict(args) -> int:
    report = _sample(args)
    human = (
        f"generic restriction dim = {report.generic_dim} (trials {list(report.dims)}), "
        f"bound = {report.bound}, holds = {report.holds}, equality = {report.equality}"
    )
    _emit(args, report.to_json_dict(), human)
    return 0 if report.holds else 1


def cmd_oracle_certify(args) -> int:
    report = _sample(args)
    verdict = "certified" if report.certified else "VIOLATED"
    human = (
        f"{verdict}: generic dim {report.generic_dim} vs bound {report.bound}"
        f" (top-slice equality expected: {report.expect_equality})"
    )
    _emit(args, report.to_json_dict(), human)
    return 0 if report.certified else 1


class Leaf(NamedTuple):
    """A subcommand: its help, its handler and its (name, kwargs) argument specs."""

    help: str
    run: Callable[[argparse.Namespace], int]
    args: tuple


class Group(NamedTuple):
    """Subcommands parsed into one argparse ``dest``."""

    help: str
    dest: str
    children: dict


def _arg(name: str, **kwargs) -> tuple[str, dict]:
    """An add_argument spec; the value is an int unless ``type`` says otherwise."""
    return name, {"type": int, **kwargs}


_A_D = (_arg("a"), _arg("d"))
_TABLE_RANGES = (_arg("--a-max", default=2000), _arg("--d-max", default=6))
_SAMPLING = (_arg("--p", default=oracle.DEFAULT_PRIME),
             _arg("--trials", default=oracle.DEFAULT_TRIALS), _arg("--seed", default=0))
_ORACLE_ARGS = (_arg("--module", type=str, required=True, help="module description JSON file"),
                _arg("--m", required=True), *_SAMPLING)

# Handlers reach library functions through their modules at call time, so a
# rebound module attribute (a monkeypatch, a profiling hook) takes effect.
COMMANDS = Group(
    "Hyperplane restriction bounds for graded modules: "
    "Macaulay representations, lexicographic slices, verifiers and a "
    "prime-field restriction oracle.",
    "command",
    {
        "rep": Leaf("Macaulay representation of a in base d", cmd_rep, _A_D),
        "kappa": Leaf("numerator-decremented value of a in base d", cmd_kappa, _A_D),
        "bound": Group("closed-form restriction bounds", "bound_kind", {
            "green": Leaf("single-component restriction bound", cmd_bound_green,
                          (_arg("h"), _arg("d"))),
            "module": Leaf("piecewise bound with full breakdown", cmd_bound_module, (
                _arg("--n", required=True), _arg("--degrees", type=str, required=True,
                                                 help="comma-separated generator degrees"),
                _arg("--m", required=True), _arg("--h", required=True))),
            "scaled": Leaf("exact rational linear bound", cmd_bound_scaled, (
                _arg("--n", required=True), _arg("--d", required=True),
                _arg("--h", required=True))),
        }),
        "level": Group("level-algebra bound comparison", "level_kind", {
            "analyze": Leaf("compare both bounds for one Hilbert function", cmd_level_analyze, (
                _arg("--h", type=str, required=True, help="comma-separated h_0,...,h_c"),
                _arg("--n", default=3))),
            "table": Leaf("re-derive the bundled comparison dataset", cmd_level_table, (
                _arg("--data", type=str, default=None, help="path to an alternative dataset"),)),
        }),
        "verify": Group("brute-force verification sweeps", "statement", {
            "kappa-lemma": Leaf("superadditivity and degree monotonicity", _sweep(
                lambda a: verifiers.check_kappa_lemma(a.a_max, a.d_max)), _TABLE_RANGES),
            "herz": Leaf("kappa stall iff representation tail hits its degree", _sweep(
                lambda a: verifiers.check_herz_tail(a.a_max, a.d_max)), _TABLE_RANGES),
            "rank2": Leaf("two-summand inequality, exhaustive", _sweep(
                lambda a: verifiers.check_rank2(a.n, a.d1, a.d2)), (
                _arg("--n", required=True), _arg("--d1", required=True),
                _arg("--d2", required=True))),
            "higher": Leaf("r-summand inequality, sampled plus corners", _sweep(
                lambda a: verifiers.check_higher(a.n, a.d_max, a.r_max, a.samples, a.seed)), (
                _arg("--n", default=3), _arg("--d-max", default=5), _arg("--r-max", default=4),
                _arg("--samples", default=100, help="random draws per degree tuple"),
                _arg("--seed", default=0))),
            "lex-restriction": Leaf("lex-segment specialization identity", _sweep(
                lambda a: verifiers.check_lex_restriction(a.n, a.d)), (
                _arg("--n", required=True), _arg("--d", required=True))),
            "scaled": Leaf("linear bound over sampled degree-zero modules", _sweep(
                lambda a: verifiers.check_scaled_corollary(
                    a.n_max, a.r_max, a.d_max, a.samples, a.p, a.trials, a.seed)), (
                _arg("--n-max", default=3), _arg("--r-max", default=3),
                _arg("--d-max", default=5), _arg("--samples", default=3), *_SAMPLING)),
        }),
        "oracle": Group("prime-field generic restriction", "oracle_kind", {
            "restrict": Leaf("sampled restriction dimension of a module",
                             cmd_oracle_restrict, _ORACLE_ARGS),
            "certify": Leaf("check the sampled dimension against the bound",
                            cmd_oracle_certify, _ORACLE_ARGS),
        }),
    },
)


def _add(parser: argparse.ArgumentParser, node: Group | Leaf) -> None:
    if isinstance(node, Group):
        sub = parser.add_subparsers(dest=node.dest, required=True)
        for name, child in node.children.items():
            _add(sub.add_parser(name, help=child.help, allow_abbrev=False), child)
        return
    for name, kwargs in node.args:
        parser.add_argument(name, **kwargs)
    parser.add_argument(
        "--format", choices=("human", "json"), default="human", help="output format"
    )
    parser.set_defaults(func=node.run)


@cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls, and
    # every call gets a fresh namespace.
    parser = argparse.ArgumentParser(
        prog="greenhrt", description=COMMANDS.help, allow_abbrev=False
    )
    _add(parser, COMMANDS)
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
