"""Layer spans around greenhrt's public functions, installed from outside.

Each hook wraps one function or method and rebinds every ``greenhrt.*``
module attribute that points at the original object, because consumers
import names directly (``from .macaulay import kappa``). A span records
(id, name, start, end, parent id, op id); a layer's self time is the sum of
its spans' durations minus the time covered by their child spans.

A hook whose target no longer exists is reported as absent, so a refactor
that renames a function shows up in the result instead of breaking the run.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Hook:
    name: str  # "<layer>.<what>": span name and per-hook statistics key
    module: str
    attr: str  # "function" or "Class.method"
    # Hooks sharing a group trace only the outermost call: recursion and
    # nested calls inside the group count as the outer call's own work.
    group: str | None = None
    observe: Callable | None = None  # (stats, args, result) -> None


def _items(stats, args, result):
    stats["items"] += len(result)


def _cases(stats, args, result):
    stats["cases"] += result.cases


def _rank(stats, args, result):
    rows, cols = args[0].rows.shape
    stats["cells"] += rows * cols
    stats["rows"] += rows
    stats["rank"] += result


def _hooks() -> list[Hook]:
    g = "greenhrt."
    hooks = [Hook("cli.main", g + "cli", "main")]
    hooks += [
        Hook(f"macaulay.{short}", g + "macaulay", fn)
        for short, fn in (("rep", "macaulay_rep"), ("kappa", "kappa"),
                          ("rep_value", "rep_value"), ("rep_compare", "rep_compare"))
    ]
    hooks += [
        Hook(f"bounds.{fn}", g + "bounds", fn)
        for fn in ("green_bound", "module_bound", "rank2_bound", "braced_bound", "scaled_bound")
    ]
    hooks += [
        Hook(f"monomials.{fn}", g + "monomials", fn, group="monomials.enumerate",
             observe=_items)
        for fn in ("enumerate_monomials", "enumerate_module_monomials")
    ]
    hooks += [
        Hook(f"monomials.{cls}.contains", g + "monomials", f"{cls}.contains",
             group="monomials.contains")
        for cls in ("MonomialModule", "MonomialIdeal")
    ]
    hooks += [
        Hook(f"monomials.{fn}", g + "monomials", fn)
        for fn in ("hilbert_value_module", "restrict_xn_count", "lex_segment",
                   "lex_module_slice", "module_from_slice")
    ]
    hooks += [
        Hook("oracle.build", g + "oracle", "restricted_quotient_dim"),
        Hook("oracle.rank", g + "oracle", "PrimeFieldMatrix.rank", observe=_rank),
    ]
    hooks += [
        Hook(f"oracle.{fn}", g + "oracle", fn)
        for fn in ("generic_restriction_dim", "certify_main_theorem", "is_top_slice")
    ]
    hooks += [
        Hook(f"verifiers.{fn}", g + "verifiers", fn, observe=_cases)
        for fn in ("check_kappa_lemma", "check_herz_tail", "check_rank2", "check_higher",
                   "check_lex_restriction", "check_scaled_corollary")
    ]
    hooks.append(Hook("verifiers.nonincreasing_tuples", g + "verifiers", "nonincreasing_tuples"))
    hooks += [
        Hook(f"level.{fn}", g + "level", fn)
        for fn in ("compare_bounds", "compute_hG", "compute_hGM", "proposition_conditions",
                   "reproduce_table", "load_level_table")
    ]
    return hooks


HOOKS = _hooks()

# Spans kept in memory and written out; later spans are only counted.
MAX_SPANS = 50_000


class Tracer:
    """Records spans of hooked calls made while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.stack: list[list] = []  # [span id, time covered by children]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.open_groups: dict[str, int] = {}
        self.stats: dict[str, dict] = {}
        self.absent: list[str] = []

    def install(self) -> None:
        for hook in HOOKS:
            module = sys.modules.get(hook.module)
            owner_name, _, attr = hook.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(hook.name)
                continue
            self.stats[hook.name] = {"calls": 0, "self_s": 0.0, "items": 0, "cases": 0,
                                     "cells": 0, "rows": 0, "rank": 0}
            if hook.group:
                self.open_groups.setdefault(hook.group, 0)
            wrapper = self._wrap(hook, original)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "greenhrt" or name.startswith("greenhrt."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, hook: Hook, fn):
        tracer = self
        stats = self.stats[hook.name]
        group = hook.group
        observe = hook.observe
        name = hook.name
        open_groups = self.open_groups

        def wrapper(*args, **kwargs):
            if not tracer.active or (group and open_groups[group]):
                return fn(*args, **kwargs)
            span_id = tracer.next_id
            tracer.next_id += 1
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            if group:
                open_groups[group] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if group:
                    open_groups[group] -= 1
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                stats["calls"] += 1
                stats["self_s"] += duration - frame[1]
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, name, start, end,
                                         parent[0] if parent else -1, tracer.op_id))
                else:
                    tracer.dropped += 1
            if observe is not None:
                observe(stats, args, result)
            return result

        return wrapper

    def _total(self, field: str, *names: str) -> float:
        """Sum of one statistic over the named hooks, or over a whole layer
        when a name ends with a dot."""
        return sum(
            stats[field]
            for hook, stats in self.stats.items()
            if any(hook == n or (n.endswith(".") and hook.startswith(n)) for n in names)
        )

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name: (value, unit). Absent hooks count zero.

        The self time of every hook counts in exactly one of the ``*.self_s``
        metrics of the layers: the oracle's is split into ``oracle.rank`` and
        ``oracle.build`` (everything else in the layer), and
        ``monomials.self_s`` covers the whole layer, of which the enumerate
        and contains groups are also reported on their own.
        """
        t = self._total
        enum = [h.name for h in HOOKS if h.group == "monomials.enumerate"]
        contains = [h.name for h in HOOKS if h.group == "monomials.contains"]
        macaulay_calls = t("calls", "macaulay.")
        rows = t("rows", "oracle.rank")
        cells = t("cells", "oracle.rank")
        return {
            "macaulay.kappa.calls": (t("calls", "macaulay.kappa"), "count"),
            "macaulay.rep.calls": (t("calls", "macaulay.rep"), "count"),
            "macaulay.self_s": (t("self_s", "macaulay."), "s"),
            "macaulay.us_per_call": (
                t("self_s", "macaulay.") * 1e6 / macaulay_calls if macaulay_calls else 0.0, "us"),
            "bounds.calls": (t("calls", "bounds."), "count"),
            "bounds.self_s": (t("self_s", "bounds."), "s"),
            "monomials.enumerate.calls": (t("calls", *enum), "count"),
            "monomials.enumerate.items": (t("items", *enum), "count"),
            "monomials.enumerate.self_s": (t("self_s", *enum), "s"),
            "monomials.contains.calls": (t("calls", *contains), "count"),
            "monomials.contains.self_s": (t("self_s", *contains), "s"),
            "monomials.self_s": (t("self_s", "monomials."), "s"),
            "oracle.trials": (t("calls", "oracle.build"), "count"),
            "oracle.build.self_s": (t("self_s", "oracle.") - t("self_s", "oracle.rank"), "s"),
            "oracle.rank.calls": (t("calls", "oracle.rank"), "count"),
            "oracle.rank.self_s": (t("self_s", "oracle.rank"), "s"),
            "oracle.matrix_cells": (cells, "count"),
            "oracle.bytes_computed": (cells * 8, "B"),
            "oracle.useful_row_ratio": (t("rank", "oracle.rank") / rows if rows else 0.0, "ratio"),
            "verifiers.cases": (t("cases", "verifiers."), "count"),
            "verifiers.self_s": (t("self_s", "verifiers."), "s"),
            "level.compare.calls": (t("calls", "level.compare_bounds"), "count"),
            "level.bound_evals": (t("calls", "level.compute_hG", "level.compute_hGM"), "count"),
            "level.self_s": (t("self_s", "level."), "s"),
            "cli.self_s": (t("self_s", "cli."), "s"),
        }
