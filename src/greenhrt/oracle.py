"""Randomized certification of generic hyperplane restriction dimensions.

Instead of computing generic initial modules symbolically, sample linear
forms with coefficients in a large prime field and measure the restricted
quotient dimension by exact rank computation. The generic dimension is the
minimum over a Zariski-open set, so every sampled trial can only
overestimate it; the minimum over trials is reported.

One trial restricts component by component. M is monomial, so
F/(M + lF) is the sum of S/(I_i + l) in degree d = m - f_i. Every sampled
form has c_n != 0 (mod p), and substituting for x_n identifies S/(l) with
the ring S' = k[x_1, ..., x_(n-1)] (Green 1989, restriction to a
hyperplane): phi(x^a) = x'^a' * L^(a_n) with L = sum_(k<n) lambda_k x_k,
lambda_k = -c_k / c_n, and dim (S/(I_i + l))_d = dim S'_d - rank phi((I_i)_d)
holds exactly for every such form. Members of (I_i)_d free of x_n map to
distinct unit vectors, so only the others are ranked, on the columns those
units leave: one |(I_i)_d| x dim S'_d block at most per component. Their
rows, columns and entry multinomials depend on the slice and p only, so a
report plans them once and fills them for each trial. S' = k when n = 1.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb, isqrt
from typing import NamedTuple

import numpy as np

from .bounds import module_bound
from .monomials import DegreeSlice, MonomialModule, _exponent_rows, degree_slice

DEFAULT_PRIME = 32003
DEFAULT_TRIALS = 3


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    for q in range(3, isqrt(p) + 1, 2):
        if p % q == 0:
            return False
    return True


@lru_cache(maxsize=8)
def _check_modulus(p: int) -> None:
    # The size test comes first: trial division of a huge p would not end.
    # Cached, so a sweep's reports test their shared modulus once: verify
    # scaled makes ~200 reports with one p and takes ~0.08 s in all, while
    # each uncached is_prime(2147483647) costs ~2 ms. A rejected p raises
    # and is not cached.
    if p >= 2**31:
        raise ValueError(f"modulus {p} too large for int64 arithmetic")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def rank_mod_p(block: np.ndarray, p: int) -> int:
    """Rank over F_p of a 2-D int64 block by Gaussian elimination mod p.

    Entries must already lie in [0, p), and p must be a prime below 2**31,
    checked by the caller, so products of two entries fit in int64. The
    block is not modified.
    """
    mat = block.copy()
    nrows, ncols = mat.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(mat[rank:, col])[0]
        if nz.size == 0:
            continue
        pivot = nz[0] + rank
        if pivot != rank:
            mat[[rank, pivot]] = mat[[pivot, rank]]
        inv = pow(int(mat[rank, col]), -1, p)
        mat[rank] = (mat[rank] * inv) % p
        below = np.nonzero(mat[rank + 1 :, col])[0] + rank + 1
        if below.size:
            mat[below] = (mat[below] - mat[below, col][:, None] * mat[rank]) % p
        rank += 1
    return rank


@dataclass(frozen=True)
class RestrictionReport:
    """Observed restricted dimension versus the theoretical bound.

    ``generic_dim`` is the minimum of the per-trial quotient dimensions and
    ``quotient_dim`` is dim (F/M)_m, the value the bound is taken at; it is
    not part of the JSON payload.
    ``holds`` records generic_dim <= bound; ``equality`` records equality.
    ``expect_equality`` records that the module's degree-m monomials form
    the top slice, where the bound is attained.
    """

    m: int
    p: int
    trials: int
    seed: int
    dims: tuple[int, ...]
    generic_dim: int
    quotient_dim: int
    bound: int
    holds: bool
    equality: bool
    expect_equality: bool

    @property
    def certified(self) -> bool:
        return self.holds and (self.equality or not self.expect_equality)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "p": self.p,
            "trials": self.trials,
            "seed": self.seed,
            "dims": list(self.dims),
            "generic_dim": self.generic_dim,
            "bound": self.bound,
            "holds": self.holds,
            "equality": self.equality,
        }


def _trial_coefficients(n: int, p: int, seed: int, trial: int) -> tuple[int, ...]:
    # Independent per-trial streams, derived deterministically from the root
    # seed so that trial t is the same no matter how many trials run.
    rng = random.Random(f"{seed}:{trial}")
    coeffs = [rng.randrange(p) for _ in range(n - 1)]
    coeffs.append(rng.randrange(1, p))  # keep x_n present in the form
    return tuple(coeffs)


def _suffix_sums(exps: np.ndarray) -> np.ndarray:
    """s[..., k]: the sum of the exponents after position k."""
    return exps.sum(axis=-1, keepdims=True) - np.cumsum(exps, axis=-1)


def _lex_index(sums: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Positions of monomials in the lex-decreasing list of their degree.

    ``sums`` holds the monomials' suffix sums. ``table[k, s]`` counts the
    monomials that agree with one before position k and have a larger
    exponent at k, when its exponents after k add up to s:
    C(N - k - 2 + s, N - k - 1) in N variables.
    """
    index = np.zeros(sums.shape[:-1], dtype=np.int64)
    for k, row in enumerate(table):
        index += row[sums[..., k]]
    return index


class _Plan(NamedTuple):
    """The coefficient-free part of one trial for one slice, pivoting on x_n.

    ``free`` is the dimension before any block is ranked: dim S'_d summed
    over the components, less the unit rows. ``exps`` lists the exponents b
    of S'_0, ..., S'_top in turn, each lex-decreasing; L^|b| has weight[b] *
    prod_k lambda_k^(b_k) at x'^b, ``weight[b]`` = |b|!/(b_1!...b_(n-1)!) mod p.
    Each block is (rows, columns, listed positions, shape): its entry at
    (row, column) is the coefficient of L^(a_n) at that listed monomial.
    """

    free: int
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]], ...] = ()
    exps: np.ndarray | None = None
    weight: np.ndarray | None = None


def _restriction_plan(sl: DegreeSlice, p: int) -> _Plan:
    shape = sl.shape
    if shape.n == 1:
        # S'_d is the field for d = 0 and zero above it.
        return _Plan(sl.xn_free_quotient_dim)
    nvars = shape.n - 1
    big = max(sl.m - min(shape.degrees), 0)
    # Lex positions in S'_d for every d <= big, as _lex_index reads them.
    table = np.array(
        [[comb(nvars - k - 2 + s, nvars - k - 1) for s in range(big + 1)]
         for k in range(nvars - 1)],
        dtype=np.int64,
    ).reshape(nvars - 1, big + 1)

    free = 0
    ranked = []  # (a_n, suffix sums of a', kept columns) of the rows left to rank
    for f, rows, inside in zip(shape.degrees, sl.exps, sl.member):
        d = sl.m - f
        if d < 0:
            continue
        width = comb(nvars - 1 + d, nvars - 1)
        exps = rows[inside]
        pivot = exps[:, -1]
        rest_sums = _suffix_sums(exps[:, :-1])
        unit = pivot == 0
        keep = np.ones(width, dtype=bool)
        keep[_lex_index(rest_sums[unit], table)] = False
        free += width - int(unit.sum())
        if keep.any() and not unit.all():
            ranked.append((pivot[~unit], rest_sums[~unit], keep))
    if not ranked:
        return _Plan(free)

    top = max(int(a_n.max()) for a_n, _, _ in ranked)
    offset = np.array([comb(nvars - 1 + e, nvars) for e in range(top + 2)], dtype=np.int64)
    listed_exps = _exponent_rows(nvars + 1, top)[:, 1:]
    listed_sums = _suffix_sums(listed_exps)
    # n >= 2, so top <= m - min(f) < dim F_m < p: every factorial is a unit mod p.
    factorial = list(accumulate(range(1, top + 1), lambda f, k: f * k % p, initial=1))
    inverse = np.array([pow(f, -1, p) for f in factorial], dtype=np.int64)
    weight = np.array(factorial, dtype=np.int64)[listed_exps.sum(axis=1)]
    for column in listed_exps.T:
        weight = weight * inverse[column] % p

    blocks = []
    for a_n, rest_sums, keep in ranked:
        # Row r is x'^a' * L^(a_n): one entry per monomial b of S'_(a_n), at
        # the column of x'^a' * x'^b unless a unit row dropped that column.
        column = np.cumsum(keep) - 1
        column[~keep] = -1
        counts = offset[a_n + 1] - offset[a_n]
        row_of = np.repeat(np.arange(a_n.size), counts)
        first = np.cumsum(counts) - counts
        listed = np.arange(counts.sum()) + np.repeat(offset[a_n] - first, counts)
        cells = column[_lex_index(rest_sums[row_of] + listed_sums[listed], table)]
        hit = cells >= 0
        blocks.append((row_of[hit], cells[hit], listed[hit], (a_n.size, int(keep.sum()))))
    return _Plan(free, tuple(blocks), listed_exps, weight)


def _evaluate(plan: _Plan, p: int, coeffs: tuple[int, ...]) -> int:
    """Fill the plan's blocks for the form with these coefficients, whose
    c_n is nonzero mod p, and rank them."""
    total = plan.free
    if not plan.blocks:
        return total
    inv = pow(coeffs[-1], -1, p)
    lam = np.array([-c * inv % p for c in coeffs[:-1]], dtype=np.int64)
    powers = np.ones((1, lam.size), dtype=np.int64)  # powers[e, k] = lambda_k^e
    while len(powers) <= plan.exps[-1, -1]:  # top, as x'_(n-1)^top is listed last
        powers = np.concatenate((powers, powers * (powers[-1] * lam % p) % p))
    power = plan.weight
    for k, column in enumerate(plan.exps.T):
        power = power * powers[column, k] % p
    for rows, columns, listed, size in plan.blocks:
        block = np.zeros(size, dtype=np.int64)
        block[rows, columns] = power[listed]
        total -= rank_mod_p(block, p)
    return total


def generic_restriction_dim(
    module: MonomialModule,
    m: int,
    p: int = DEFAULT_PRIME,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> RestrictionReport:
    """Sample random linear forms and report the minimal restricted dimension.

    The theoretical bound for dim (F/M)_m is computed alongside so the
    report carries its own verdict: the bound must dominate in every case,
    and when the degree-m part of the module is a top slice it is attained,
    so equality is expected as well. Certification is probabilistic: a
    trial can only overestimate the generic dimension, never undershoot it.
    A failed check is reported in the verdict flags, not raised. p must be
    a prime below 2**31 and above 2 dim F_m.
    """
    _check_modulus(p)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    shape = module.shape
    dim_fm = shape.dim(m)
    if p <= 2 * dim_fm:
        raise ValueError(f"prime {p} too small for dim F_{m} = {dim_fm}; need p > {2 * dim_fm}")
    sl = degree_slice(module, m)
    plan = _restriction_plan(sl, p)
    dims = tuple(
        _evaluate(plan, p, _trial_coefficients(shape.n, p, seed, t)) for t in range(trials)
    )
    generic = min(dims)
    bound = module_bound(sl.quotient_dim, m, shape).total
    return RestrictionReport(
        m=m,
        p=p,
        trials=trials,
        seed=seed,
        dims=dims,
        generic_dim=generic,
        quotient_dim=sl.quotient_dim,
        bound=bound,
        holds=generic <= bound,
        equality=generic == bound,
        expect_equality=sl.is_top,
    )
