"""Monomials, monomial ideals and monomial submodules of graded free modules.

An ideal is built from any generating set by one constructor, which keeps
the minimal generators as exponent tuples and as one exponent array; a degree
slice is one array of exponent rows per component, and one array compare
decides divisibility. A monomial submodule of F = S e_1 + ... + S e_r is one
ideal per component.
The module order used for lexicographic slices is position-over-term:
e_1 > e_2 > ... > e_r, lexicographic within a component.
"""
from __future__ import annotations

import random
import reprlib
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement, compress

import numpy as np

from .bounds import CapacityError, FreeModuleShape, _dim_s

_DIVISOR_BLOCK_CELLS = 1 << 20  # rows x generators x variables per compare: ~1 MB
# Ceiling on the cells (rows x variables) of one array of exponent rows:
# 512 MiB of int64, far above any test, demo or benchmark slice. Checked
# before anything is allocated.
_MAX_EXPONENT_CELLS = 1 << 26


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

    A row e is cut from its partial sums p_j = e_1 + ... + e_j, j < n: the
    non-decreasing tuples 0 <= p_1 <= ... <= p_{n-1} <= d, which
    ``combinations_with_replacement`` lists in lex-increasing order of e, so
    the rows are written in reverse. For n = 1 the one row holds d as a
    Python int, since d is unbounded there; for n >= 2 the C(n+d-1, d) rows
    keep d far inside int64. More than _MAX_EXPONENT_CELLS cells raise
    ValueError. The peak is the result plus the buffer of partial sums.
    """
    if n == 1:
        return np.array([[d]], dtype=object)
    # C(n+d-1, d) >= 2**min(d, n - 1) and n >= 2, so a large minimum is past the
    # ceiling before the exact binomial, which takes ~40 s at n = d = 10**6.
    if (min(d, n - 1) >= _MAX_EXPONENT_CELLS.bit_length() - 1
            or (count := _dim_s(n, d)) * n > _MAX_EXPONENT_CELLS):
        raise ValueError(
            f"degree {d} in n={n} variables needs more than {_MAX_EXPONENT_CELLS} exponent cells"
        )
    if d == 0:
        return np.zeros((1, n), dtype=np.int64)
    sums = np.fromiter(
        chain.from_iterable(combinations_with_replacement(range(d + 1), n - 1)),
        dtype=np.int64,
        count=count * (n - 1),
    ).reshape(count, n - 1)
    rows = np.empty((count, n), dtype=np.int64)
    exps = rows[::-1]
    exps[:, 0] = sums[:, 0]
    np.subtract(sums[:, 1:], sums[:, :-1], out=exps[:, 1:-1])
    np.subtract(d, sums[:, -1], out=exps[:, -1])
    return rows


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by any generating set.

    ``gens`` keeps the minimal generators, ascending: the distinct given
    generators that no other one divides. So ``==`` and ``hash`` are ideal
    equality. ``exps`` holds them one per row, read-only: int64 when every
    given generator's degree fits in int64, so row sums are exact, and Python
    ints (dtype object) otherwise, even if a wide generator was dropped.
    """

    n: int
    gens: tuple[tuple[int, ...], ...]
    exps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Deduped in the given order, so a set given sorted either way sorts in one pass.
        gens, n = sorted(dict.fromkeys(map(tuple, self.gens))), self.n
        for g in gens:
            if len(g) != n:
                raise ValueError(f"generator {g} not in {n} variables")
        try:  # never through numpy's float64, where 2**63 == 2**63 + 1
            exps = np.array(gens, dtype=np.int64).reshape(len(gens), n)
        except OverflowError:
            exps = np.array(gens, dtype=object).reshape(len(gens), n)
        # With no negative exponent, an int64 row sum past 2**63 - 1 wraps to a
        # negative prefix sum. Either case moves the array to Python ints,
        # where a negative exponent is then named.
        if exps.dtype == object or np.minimum(exps, exps.cumsum(axis=1)).min(initial=0) < 0:
            exps = exps.astype(object)
            negative = (exps < 0).any(axis=1)
            if negative.any():
                raise ValueError(f"generator {gens[negative.argmax()]} has a negative exponent")
        # Distinct generators of one degree never divide each other, so only
        # those below the top degree can divide another; each divides itself.
        degree = exps.sum(axis=1)
        below = degree < degree.max(initial=0)
        minimal = _divisor_counts(exps, exps[below]) == below
        exps = exps[minimal]
        exps.flags.writeable = False
        object.__setattr__(self, "gens", tuple(compress(gens, minimal)))
        object.__setattr__(self, "exps", exps)


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
    so each component's generators are its first rows of F_m.
    """
    dims = shape.component_dims(m)
    if not 0 <= k <= sum(dims):
        raise CapacityError(f"slice size {k} outside [0, dim F_{m} = {sum(dims)}]")
    ideals = []
    for d, size in zip(shape.component_degrees(m), dims):
        take = min(k, size)
        gens = _exponent_rows(shape.n, d)[:take].tolist() if take else []
        ideals.append(MonomialIdeal(shape.n, gens))
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
    for ideal, d in zip(module.components, module.shape.component_degrees(m)):
        rows = _exponent_rows(n, d) if d >= 0 else np.empty((0, n), dtype=np.int64)
        # Generators above degree d divide nothing there and may not fit int64.
        gens = ideal.exps[ideal.exps.sum(axis=1) <= d].astype(rows.dtype, copy=False)
        mask = _divisor_counts(rows, gens) > 0
        rows.flags.writeable = mask.flags.writeable = False
        exps.append(rows)
        member.append(mask)
    return DegreeSlice(tuple(exps), tuple(member))


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
    if n > _MAX_EXPONENT_CELLS:  # one exponent row alone would pass the ceiling
        raise ValueError(f"field 'n' must be at most {_MAX_EXPONENT_CELLS}, got {reprlib.repr(n)}")
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
        ideals.append(MonomialIdeal(n, gens))
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
    return MonomialIdeal(n, gens)


def random_monomial_module(
    rng: random.Random, shape: FreeModuleShape, max_gens: int, max_degree: int
) -> MonomialModule:
    """Random monomial submodule of the given free module."""
    return MonomialModule(
        shape=shape,
        components=tuple(
            random_monomial_ideal(rng, shape.n, max_gens, max_degree)
            for _ in range(shape.r)
        ),
    )
