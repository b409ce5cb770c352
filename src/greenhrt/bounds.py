"""Closed-form restriction bounds for quotients of graded free modules.

Given a free module F = S e_1 + ... + S e_r over S = k[x_1..x_n] with
generator degrees f_1 <= ... <= f_r, the degree-m slice of a quotient F/M
restricted by a generic linear form is bounded by a piecewise formula:
fill the lowest-degree components of F to capacity, then apply the
numerator-decrement operator to the partial head component.

The bound is a function of n and the component degrees d_i = m - f_i
alone. Every dimension it reads is one count, dim S_d = C(n+d-1, d), taken
by ``_dim_s``. Everything in the bound except the head is fixed by n and the
d_i: the capacities, their suffix sums and the full terms of the filled
components. ``_BoundProfile`` builds that part once; the bound at h is then
one pivot search plus kappa of the head.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .macaulay import kappa


class CapacityError(ValueError):
    """A requested dimension exceeds the dimension of the ambient space."""


def _dim_s(n: int, d: int) -> int:
    """dim S_d = C(n+d-1, d) for S = k[x_1..x_n]; zero below degree 0."""
    return comb(n + d - 1, d) if d >= 0 else 0


@dataclass(frozen=True)
class FreeModuleShape:
    """Variable count n and sorted generator degrees of a graded free module."""

    n: int
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one variable, got n={self.n}")
        if len(self.degrees) < 1:
            raise ValueError("a free module needs at least one generator")
        if any(f2 < f1 for f1, f2 in zip(self.degrees, self.degrees[1:])):
            raise ValueError(f"generator degrees must be non-decreasing: {self.degrees}")
        # tolerate list input
        object.__setattr__(self, "degrees", tuple(self.degrees))

    @property
    def r(self) -> int:
        return len(self.degrees)

    def component_degrees(self, m: int) -> tuple[int, ...]:
        """d_i = m - f_i per component; non-increasing."""
        return tuple(m - f for f in self.degrees)

    def component_dims(self, m: int) -> tuple[int, ...]:
        """N_i = dim S_{m - f_i} per component; zero when m < f_i."""
        return tuple(_dim_s(self.n, d) for d in self.component_degrees(m))

    def dim(self, m: int) -> int:
        """dim F_m."""
        return sum(self.component_dims(m))


def green_bound(h: int, d: int) -> int:
    """Upper bound for the generic hyperplane restriction of an h-dimensional
    degree-d quotient slice of S.

    Equals kappa(h, d) for d >= 1. In degree 0 the restriction map is a
    bijection, so the value passes through unchanged.
    """
    if d < 0:
        raise ValueError(f"degree must be non-negative, got d={d}")
    if h < 0:
        raise ValueError(f"dimension must be non-negative, got h={h}")
    if d == 0:
        return h
    return kappa(h, d)


@dataclass(frozen=True)
class BoundBreakdown:
    """Pivot, head and tail terms of the piecewise module bound.

    Components after the pivot j are filled to capacity N_i and contribute
    kappa(N_i, d_i); the head contributes kappa of whatever is left.
    """

    j: int
    head: int
    head_term: int
    tail_terms: tuple[int, ...]
    total: int
    dims: tuple[int, ...]
    capacities: tuple[int, ...]


class _BoundProfile:
    """The part of the module bound that n and the component degrees fix.

    dims[i] = d_i and caps[i] = N_i per component; suffix[j] = N_j + ... + N_r
    with 1-based j and suffix[r+1] = 0; terms[i] = green_bound(N_i, d_i), the
    term of a component filled to capacity; tail[j] = the sum of the terms
    after pivot j. A full term needs no Macaulay pass: N_i = C(n + d_i - 1,
    d_i) is its own representation, so at d_i >= 1 its term is kappa(N_i,
    d_i) = C(n + d_i - 2, d_i) = dim S_{d_i} in n - 1 variables; at d_i = 0
    it passes N_i through, and an empty component's term is 0. The head's
    term is read through ``kappa(h, d)``: a caller that already holds kappa
    values passes its lookup, which must agree with green_bound.
    """

    __slots__ = ("dims", "caps", "suffix", "terms", "tail", "kappa")

    def __init__(
        self, n: int, dims: tuple[int, ...], kappa: Callable[[int, int], int] = green_bound
    ) -> None:
        self.dims = dims
        self.kappa = kappa
        self.caps = tuple(_dim_s(n, d) for d in dims)
        self.terms = tuple(_dim_s(n - 1, d) if d > 0 else v for v, d in zip(self.caps, dims))
        r = len(dims)
        self.suffix = [0] * (r + 2)
        self.tail = [0] * (r + 1)
        for i in range(r, 0, -1):
            self.suffix[i] = self.suffix[i + 1] + self.caps[i - 1]
            self.tail[i - 1] = self.tail[i] + self.terms[i - 1]

    def pivot(self, h: int) -> int:
        """The largest j with h <= suffix[j], for 0 <= h <= dim F_m."""
        j = len(self.caps)
        while h > self.suffix[j]:
            j -= 1
        return j

    def head(self, h: int, j: int) -> tuple[int, int]:
        """The head h - suffix[j+1] at pivot j and its term kappa(head, d_j)."""
        head = h - self.suffix[j + 1]
        return head, self.kappa(head, self.dims[j - 1]) if head else 0

    def total(self, h: int) -> int:
        """The bound at h, 0 <= h <= dim F_m, at the largest admissible pivot."""
        j = self.pivot(h)
        return self.head(h, j)[1] + self.tail[j]


def module_bound(h: int, m: int, shape: FreeModuleShape, pivot: int | None = None) -> BoundBreakdown:
    """Piecewise restriction bound for an h-dimensional degree-m slice of F/M.

    Selects the largest pivot j with sum(N_{j+1}..N_r) <= h <= sum(N_j..N_r);
    at a boundary both admissible pivots give the same total, so the choice
    only fixes the reported breakdown. Pass ``pivot`` to force an admissible
    pivot explicitly.
    """
    if h < 0:
        raise ValueError(f"dimension must be non-negative, got h={h}")
    profile = _BoundProfile(shape.n, shape.component_degrees(m))
    suffix = profile.suffix
    if h > suffix[1]:
        raise CapacityError(f"h={h} exceeds dim F_{m} = {suffix[1]}")
    if pivot is None:
        j = profile.pivot(h)
    else:
        j = pivot
        if not (1 <= j <= shape.r and suffix[j + 1] <= h <= suffix[j]):
            raise ValueError(f"pivot {j} not admissible for h={h}")
    head, head_term = profile.head(h, j)
    return BoundBreakdown(
        j=j,
        head=head,
        head_term=head_term,
        tail_terms=profile.terms[j:],
        total=head_term + profile.tail[j],
        dims=profile.dims,
        capacities=profile.caps,
    )


def rank2_bound(a: int, b: int, d1: int, d2: int, n: int) -> int:
    """Two-component bound: the degree-d2 component is filled first.

    Requires d1 >= d2 >= 0, a <= dim S_{d1} and b <= dim S_{d2}.
    Returns kappa(a+b, d2) when a+b fits inside S_{d2}, else
    kappa(a+b-N2, d1) + kappa(N2, d2); both branches agree at a+b = N2.
    """
    if d1 < d2:
        raise ValueError(f"degrees must satisfy d1 >= d2, got d1={d1} < d2={d2}")
    if d2 < 0:
        raise ValueError(f"degrees must be non-negative, got d2={d2}")
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    n1, n2 = _dim_s(n, d1), _dim_s(n, d2)
    if not 0 <= a <= n1:
        raise ValueError(f"first summand a={a} outside [0, N1={n1}]")
    if not 0 <= b <= n2:
        raise ValueError(f"second summand b={b} outside [0, N2={n2}]")
    if a + b <= n2:
        return green_bound(a + b, d2)
    return green_bound(a + b - n2, d1) + green_bound(n2, d2)


def braced_bound(a: int, i: int, n: int) -> int:
    """Equal-degree module bound: a = q * s_i + r with s_i = dim S_i gives
    q * kappa(s_i, i) + kappa(r, i).

    This is the value the piecewise bound takes when all generator degrees
    coincide, with no cap on the number of components.
    """
    if i < 1:
        raise ValueError(f"degree must be >= 1, got {i}")
    if a < 0:
        raise ValueError(f"dimension must be non-negative, got {a}")
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    s_i = _dim_s(n, i)
    q, r = divmod(a, s_i)
    return q * kappa(s_i, i) + kappa(r, i)


def scaled_bound(h: int, n: int, d: int) -> Fraction:
    """Linear form of the restriction bound: (n-1)/(n+d-1) * h, exact.

    This is h scaled by dim(S'_d)/dim(S_d) where S' has one variable fewer.
    Valid for any module generated in degree 0. The d = 0 case is vacuous
    (the factor is 1); n = 1, d = 0 has no ambient ring and raises.
    """
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if d < 0:
        raise ValueError(f"degree must be non-negative, got d={d}")
    if n + d < 2:
        raise ValueError("d must be at least 1 when n is 1")
    if h < 0:
        raise ValueError(f"dimension must be non-negative, got h={h}")
    return Fraction(n - 1, n + d - 1) * h
