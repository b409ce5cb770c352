"""Monomials, monomial ideals and monomial submodules of graded free modules.

Monomials are exponent tuples; one array compare decides divisibility. A
monomial submodule of F = S e_1 + ... + S e_r is one ideal per component.
The module order used for lexicographic slices is position-over-term:
e_1 > e_2 > ... > e_r, lexicographic within a component.
"""
from __future__ import annotations

import random
import reprlib
from dataclasses import dataclass
from itertools import chain, combinations, compress
from math import comb
from typing import Iterable

import numpy as np

from .bounds import CapacityError, FreeModuleShape

Monomial = tuple[int, ...]


_DIVISOR_BLOCK_CELLS = 1 << 20  # rows x generators x variables per compare: ~1 MB


def _divisor_counts(rows: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """For each exponent row, how many generator rows divide it (both arrays
    int64, or both object when an exponent does not fit in int64)."""
    counts = np.zeros(len(rows), dtype=np.int64)
    step = max(1, _DIVISOR_BLOCK_CELLS // max(1, gens.size))
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step, None, :] >= gens
        counts[lo : lo + step] = np.logical_and.reduce(block, axis=2).sum(axis=1)
    return counts


def _exponent_rows(n: int, d: int) -> np.ndarray:
    """Every degree-d exponent vector in n variables, one per row, lex-decreasing.

    Stars and bars: a row is d stars and n - 1 bars in d + n - 1 slots, and
    ``combinations`` lists the bar positions in lex-increasing order of the
    exponents they cut, so the rows are read in reverse. For n = 1 the one
    row holds d as a Python int, since d is unbounded there; for n >= 2 the
    C(n+d-1, d) rows keep d far inside int64.
    """
    if n == 1:
        return np.array([[d]], dtype=object)
    count = comb(n + d - 1, d)
    # Bar positions, between sentinel bars at -1 and d + n - 1.
    bars = np.empty((count, n + 1), dtype=np.int64)
    bars[:, 0] = -1
    bars[:, n] = d + n - 1
    bars[::-1, 1:n] = np.fromiter(
        chain.from_iterable(combinations(range(d + n - 1), n - 1)),
        dtype=np.int64,
        count=count * (n - 1),
    ).reshape(count, n - 1)
    return np.diff(bars, axis=1) - 1


def enumerate_monomials(n: int, d: int) -> list[Monomial]:
    """All monomials of degree d in n variables, lex-decreasing.

    Length is C(n+d-1, d).
    """
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if d < 0:
        raise ValueError(f"degree must be non-negative, got d={d}")
    return list(map(tuple, _exponent_rows(n, d).tolist()))


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generators."""

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        for g in self.gens:
            if len(g) != self.n:
                raise ValueError(f"generator {g} not in {self.n} variables")
            if any(e < 0 for e in g):
                raise ValueError(f"generator {g} has a negative exponent")

    @classmethod
    def from_generators(cls, n: int, gens: Iterable[Monomial]) -> "MonomialIdeal":
        """Build from any generating set, keeping the distinct generators that
        no other generator divides."""
        unique = cls(n=n, gens=tuple(sorted(set(map(tuple, gens)))))
        try:
            exps = np.array(unique.gens, dtype=np.int64).reshape(len(unique.gens), n)
        except OverflowError:  # not numpy's float64, where 2**63 == 2**63 + 1
            exps = np.array(unique.gens, dtype=object).reshape(len(unique.gens), n)
        minimal = _divisor_counts(exps, exps) == 1
        return unique if minimal.all() else cls(n=n, gens=tuple(compress(unique.gens, minimal)))


@dataclass(frozen=True)
class MonomialModule:
    """Direct sum of monomial ideals, one per free-module component."""

    shape: FreeModuleShape
    components: tuple[MonomialIdeal, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.shape.r:
            raise ValueError(
                f"expected {self.shape.r} component ideals, got {len(self.components)}"
            )
        for ideal in self.components:
            if ideal.n != self.shape.n:
                raise ValueError("all component ideals must share the shape's n")

    @classmethod
    def zero(cls, shape: FreeModuleShape) -> "MonomialModule":
        empty = MonomialIdeal(n=shape.n, gens=())
        return cls(shape=shape, components=(empty,) * shape.r)


def lex_module(shape: FreeModuleShape, m: int, k: int) -> MonomialModule:
    """The submodule generated by the k largest monomials of F_m.

    Position-over-term order fills component 1's lex segment before touching
    component 2, and so on. Monomials of one degree never divide each other,
    so each component's generators are its first rows of F_m, listed
    ascending as ``MonomialIdeal.from_generators`` lists them.
    """
    dims = shape.component_dims(m)
    if not 0 <= k <= sum(dims):
        raise CapacityError(f"slice size {k} outside [0, dim F_{m} = {sum(dims)}]")
    ideals = []
    for f, size in zip(shape.degrees, dims):
        take = min(k, size)
        gens = _exponent_rows(shape.n, m - f)[:take][::-1].tolist() if take else []
        ideals.append(MonomialIdeal(shape.n, tuple(map(tuple, gens))))
        k -= take
    return MonomialModule(shape, tuple(ideals))


@dataclass(frozen=True, eq=False)
class DegreeSlice:
    """The degree-m parts of F and of a submodule M, one component at a time.

    ``exps[i]`` holds the exponent vectors of S_{m - f_i}, one per row,
    lex-decreasing (no rows when m < f_i), so the components in order list
    the monomial basis of F_m in decreasing position-over-term order.
    ``member[i][k]`` records whether row k of component i lies in M. Both
    arrays are read-only; the exponents are int64, or Python ints at n = 1.
    """

    shape: FreeModuleShape
    m: int
    exps: tuple[np.ndarray, ...]
    member: tuple[np.ndarray, ...]

    @property
    def quotient_dim(self) -> int:
        """dim (F/M)_m."""
        return sum(mask.size - int(np.count_nonzero(mask)) for mask in self.member)

    @property
    def is_top(self) -> bool:
        """M_m is spanned by the largest dim M_m monomials of F_m: the flags
        are all on, then all off."""
        flags = np.concatenate(self.member)
        return bool(flags[: np.count_nonzero(flags)].all())

    @property
    def xn_free_quotient_dim(self) -> int:
        """dim (F/(M + x_n F))_m: the basis monomials outside M that x_n does not
        divide. Exact for monomial modules: the quotient splits by component, and
        each component's degree-m survivors are its x_n-free monomials outside M."""
        return sum(
            int(np.count_nonzero(~inside & (rows[:, -1] == 0)))
            for rows, inside in zip(self.exps, self.member)
        )


def degree_slice(module: MonomialModule, m: int) -> DegreeSlice:
    """Enumerate F_m once and mark the basis monomials that lie in M."""
    n = module.shape.n
    exps, member = [], []
    for ideal, f in zip(module.components, module.shape.degrees):
        d = m - f
        rows = _exponent_rows(n, d) if d >= 0 else np.empty((0, n), dtype=np.int64)
        # Generators above degree d divide nothing there and may not fit int64.
        gens = list(compress(ideal.gens, map(d.__ge__, map(sum, ideal.gens))))
        mask = _divisor_counts(rows, np.array(gens, dtype=rows.dtype).reshape(len(gens), n)) > 0
        rows.flags.writeable = mask.flags.writeable = False
        exps.append(rows)
        member.append(mask)
    return DegreeSlice(module.shape, m, tuple(exps), tuple(member))


def module_to_data(module: MonomialModule) -> dict:
    """JSON-ready description: {"n", "degrees", "components"}."""
    return {
        "n": module.shape.n,
        "degrees": list(module.shape.degrees),
        "components": [[list(g) for g in ideal.gens] for ideal in module.components],
    }


def _is_int(value) -> bool:
    # JSON true/false load as bool, which is a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool)


def module_from_data(data: dict) -> MonomialModule:
    """Parse the JSON module description, naming the offending field on error."""
    if not isinstance(data, dict):
        raise ValueError("module description must be a JSON object")
    for field in ("n", "degrees", "components"):
        if field not in data:
            raise ValueError(f"module description missing field '{field}'")
    n = data["n"]
    if not _is_int(n) or n < 1:
        got = reprlib.repr(n) if _is_int(n) else type(n).__name__  # never the whole input
        raise ValueError(f"field 'n' must be a positive integer, got {got}")
    degrees = data["degrees"]
    if (not isinstance(degrees, list) or not degrees or not all(map(_is_int, degrees))
            or degrees != sorted(degrees)):
        raise ValueError("field 'degrees' must be a non-empty, non-decreasing list of integers")
    shape = FreeModuleShape(n=n, degrees=tuple(degrees))
    raw = data["components"]
    if not isinstance(raw, list) or len(raw) != len(degrees):
        raise ValueError("field 'components' must list one generator set per degree")
    ideals = []
    for idx, gens in enumerate(raw):
        if not isinstance(gens, list):
            raise ValueError(f"field 'components[{idx}]' must be a list of exponent vectors")
        for j, g in enumerate(gens):
            if not isinstance(g, list) or len(g) != n or not all(_is_int(e) and e >= 0 for e in g):
                size = f" of length {len(g)}" if isinstance(g, list) else ""
                raise ValueError(
                    f"field 'components[{idx}][{j}]' must list {n} non-negative integers, "
                    f"got {type(g).__name__}{size}"
                )
        ideals.append(MonomialIdeal.from_generators(n, [tuple(g) for g in gens]))
    return MonomialModule(shape=shape, components=tuple(ideals))


def random_monomial_ideal(
    rng: random.Random, n: int, max_gens: int, max_degree: int
) -> MonomialIdeal:
    """Random monomial ideal with up to max_gens generators of degree <= max_degree."""
    gens = []
    for _ in range(rng.randint(0, max_gens)):
        d = rng.randint(0, max_degree)
        mono = [0] * n
        for _ in range(d):
            mono[rng.randrange(n)] += 1
        gens.append(tuple(mono))
    return MonomialIdeal.from_generators(n, gens)


def random_monomial_module(
    rng: random.Random,
    shape: FreeModuleShape,
    max_gens: int = 4,
    max_degree: int = 5,
) -> MonomialModule:
    """Random monomial submodule of the given free module."""
    return MonomialModule(
        shape=shape,
        components=tuple(
            random_monomial_ideal(rng, shape.n, max_gens, max_degree)
            for _ in range(shape.r)
        ),
    )
