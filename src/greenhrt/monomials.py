"""Monomials, monomial ideals and monomial submodules of graded free modules.

Monomials are dense exponent tuples. A monomial submodule of
F = S e_1 + ... + S e_r is stored as one monomial ideal per component.
The module order used for lexicographic slices is position-over-term:
e_1 > e_2 > ... > e_r, lexicographic within a component.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .bounds import CapacityError, FreeModuleShape

Monomial = tuple[int, ...]


class ModuleMonomial(NamedTuple):
    """A monomial times a basis element, component indexed 1..r."""

    component: int
    monomial: Monomial


def monomial_degree(mono: Monomial) -> int:
    return sum(mono)


def divides(g: Monomial, mono: Monomial) -> bool:
    return all(e >= ge for e, ge in zip(mono, g))


def enumerate_monomials(n: int, d: int) -> list[Monomial]:
    """All monomials of degree d in n variables, lex-decreasing.

    Emits the order directly by descending over the first exponent, so no
    sort is needed. Length is C(n+d-1, d).
    """
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if d < 0:
        raise ValueError(f"degree must be non-negative, got d={d}")
    if n == 1:
        return [(d,)]
    out: list[Monomial] = []
    for e in range(d, -1, -1):
        out.extend((e,) + rest for rest in enumerate_monomials(n - 1, d - e))
    return out


def _check_over_shape(u: ModuleMonomial, shape: FreeModuleShape) -> None:
    if not 1 <= u.component <= shape.r:
        raise ValueError(f"component {u.component} outside 1..{shape.r}")
    if len(u.monomial) != shape.n:
        raise ValueError(f"exponent vector {u.monomial} not in {shape.n} variables")


def lex_segment(n: int, d: int, k: int) -> list[Monomial]:
    """The k lex-largest monomials of degree d, largest first."""
    all_monomials = enumerate_monomials(n, d)
    if not 0 <= k <= len(all_monomials):
        raise CapacityError(f"segment size {k} outside [0, dim S_{d} = {len(all_monomials)}]")
    return all_monomials[:k]


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
        """Build from any generating set; redundant generators are dropped."""
        minimal: list[Monomial] = []
        for g in sorted(set(tuple(g) for g in gens), key=monomial_degree):
            if not any(divides(m, g) for m in minimal):
                minimal.append(g)
        return cls(n=n, gens=tuple(sorted(minimal)))

    def contains(self, mono: Monomial) -> bool:
        return any(divides(g, mono) for g in self.gens)


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

    def contains(self, u: ModuleMonomial) -> bool:
        _check_over_shape(u, self.shape)
        return self.components[u.component - 1].contains(u.monomial)


def enumerate_module_monomials(shape: FreeModuleShape, m: int) -> list[ModuleMonomial]:
    """Monomial basis of F_m in decreasing position-over-term order."""
    out: list[ModuleMonomial] = []
    for i, f in enumerate(shape.degrees, start=1):
        d = m - f
        if d < 0:
            continue
        out.extend(ModuleMonomial(i, mono) for mono in enumerate_monomials(shape.n, d))
    return out


def lex_module_slice(shape: FreeModuleShape, m: int, k: int) -> list[ModuleMonomial]:
    """The k largest module monomials of F_m, largest first.

    Fills component 1's lex segment before touching component 2, and so on.
    """
    basis = enumerate_module_monomials(shape, m)
    if not 0 <= k <= len(basis):
        raise CapacityError(f"slice size {k} outside [0, dim F_{m} = {len(basis)}]")
    return basis[:k]


def module_from_slice(shape: FreeModuleShape, members: Sequence[ModuleMonomial]) -> MonomialModule:
    """Monomial module generated by the given single-degree monomial set."""
    per: list[list[Monomial]] = [[] for _ in range(shape.r)]
    for u in members:
        _check_over_shape(u, shape)
        per[u.component - 1].append(u.monomial)
    return MonomialModule(
        shape=shape,
        components=tuple(MonomialIdeal.from_generators(shape.n, gens) for gens in per),
    )


@dataclass(frozen=True)
class DegreeSlice:
    """The degree-m parts of F and of a submodule M.

    ``basis`` is the monomial basis of F_m in decreasing position-over-term
    order; ``in_module[k]`` records whether ``basis[k]`` lies in M.
    """

    shape: FreeModuleShape
    m: int
    basis: list[ModuleMonomial]
    in_module: list[bool]

    @property
    def quotient_dim(self) -> int:
        """dim (F/M)_m."""
        return self.in_module.count(False)

    @property
    def is_top(self) -> bool:
        """M_m is spanned by the largest dim M_m monomials of F_m: the flags
        are all on, then all off."""
        return all(self.in_module[: self.in_module.count(True)])


def degree_slice(module: MonomialModule, m: int) -> DegreeSlice:
    """Enumerate F_m once and test each basis monomial for membership in M."""
    basis = enumerate_module_monomials(module.shape, m)
    return DegreeSlice(module.shape, m, basis, [module.contains(u) for u in basis])


def hilbert_value_module(module: MonomialModule, m: int) -> int:
    """dim (F/M)_m: module monomials of degree m lying in no component ideal."""
    return degree_slice(module, m).quotient_dim


def restrict_xn_count(module: MonomialModule, m: int) -> int:
    """dim (F/(M + x_n F))_m, computed by dropping every x_n-multiple.

    Exact for monomial modules: the quotient splits componentwise, and in
    each component the degree-m survivors are precisely the x_n-free
    monomials outside the ideal.
    """
    sl = degree_slice(module, m)
    return sum(
        1 for u, inside in zip(sl.basis, sl.in_module) if not inside and u.monomial[-1] == 0
    )


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
        raise ValueError(f"field 'n' must be a positive integer, got {n!r}")
    degrees = data["degrees"]
    if not isinstance(degrees, list) or not all(_is_int(f) for f in degrees):
        raise ValueError("field 'degrees' must be a list of integers")
    shape = FreeModuleShape(n=n, degrees=tuple(degrees))
    raw = data["components"]
    if not isinstance(raw, list) or len(raw) != len(degrees):
        raise ValueError("field 'components' must list one generator set per degree")
    ideals = []
    for idx, gens in enumerate(raw):
        if not isinstance(gens, list):
            raise ValueError(f"field 'components[{idx}]' must be a list of exponent vectors")
        for g in gens:
            if (
                not isinstance(g, list)
                or len(g) != n
                or not all(_is_int(e) and e >= 0 for e in g)
            ):
                raise ValueError(
                    f"field 'components[{idx}]' has a malformed exponent vector: {g!r}"
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
