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
units leave: the x_n-free non-members x'^c. Row x'^a' * L^(a_n) has an
entry at x'^c exactly where a' divides c, the coefficient of x'^(c - a')
in L^(a_n). That is one block at most per component. Its rows, columns,
entry positions and multinomials depend on the slice and p only, so a
report plans them once and fills them for each trial.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import isqrt
from typing import NamedTuple

import numpy as np

from .bounds import _refuse_unprintable, _refuse_wide_slice, module_bound
from .monomials import _MAX_EXPONENT_CELLS, DegreeSlice, MonomialModule, degree_slice

DEFAULT_PRIME = 32003
DEFAULT_TRIALS = 3

# The most trials one report runs, checked before its plan is built: each
# trial is a full rank pass over the plan's blocks, and the report keeps one
# dimension per trial.
_MAX_TRIALS = 1 << 10


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

    rank(A) = rank(A^T), so a wide block is transposed and the elimination
    walks the shorter side: one step per column of a tall copy. Rows from
    ``rank`` on are zero left of ``col``, so each step clears only the live
    columns ``col:`` of the rows below its pivot.
    """
    mat = (block.T if block.shape[0] < block.shape[1] else block).copy()
    rank = 0
    for col in range(mat.shape[1]):
        nz = np.nonzero(mat[rank:, col])[0] + rank
        if nz.size:
            top, below = nz[0], nz[1:]
            pivot = mat[top, col:] * pow(int(mat[top, col]), -1, p) % p
            mat[top, col:] = mat[rank, col:]  # the pivot row is spent; row rank takes its place
            mat[below, col:] = (mat[below, col:] - mat[below, col, None] * pivot) % p
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


class _Plan(NamedTuple):
    """The coefficient-free part of one trial for one slice, pivoting on x_n.

    ``free`` is the dimension before any block is ranked: the x_n-free
    basis monomials outside M. Each block is (rows, columns, cells, shape):
    row r is a member x'^a' * x_n^(a_n) of the slice, column c one of the
    x_n-free non-members x'^c, and an entry exists where a' divides c; a
    block with no entry has rank 0 and is left out.
    ``exps`` holds b = c - a' per entry, the entries of all blocks in turn,
    and ``cells`` slices a block's entries out of them; the entry is
    weight * prod_k lambda_k^(b_k), the coefficient of x'^b in L^(a_n), with
    ``weight`` = a_n!/(b_1!...b_(n-1)!) mod p.
    """

    free: int
    blocks: tuple[tuple[np.ndarray, np.ndarray, slice, tuple[int, int]], ...] = ()
    exps: np.ndarray | None = None
    weight: np.ndarray | None = None


def _restriction_plan(sl: DegreeSlice, p: int) -> _Plan:
    blocks, pivots, exps = [], [], []
    cells = 0
    for rows, inside in zip(sl.exps, sl.member):
        xn_free = rows[:, -1] == 0
        ranked = rows[inside & ~xn_free]
        columns = rows[~inside & xn_free, :-1]
        # The mask and the entries' exponents are each held at once, so both
        # are checked against the slice's own cell ceiling before they exist.
        if len(ranked) * len(columns) > _MAX_EXPONENT_CELLS:
            raise ValueError(f"a {len(ranked)} x {len(columns)} restriction block, "
                             f"more than {_MAX_EXPONENT_CELLS} cells")
        fits = np.ones((len(ranked), len(columns)), dtype=bool)
        for k in range(columns.shape[1]):
            fits &= ranked[:, k, None] <= columns[:, k]
        row, column = np.nonzero(fits)
        if not row.size:
            continue  # no entry, so rank 0; always so at n = 1
        if (cells + row.size) * columns.shape[1] > _MAX_EXPONENT_CELLS:
            raise ValueError(f"{cells + row.size} restriction entries of {columns.shape[1]} "
                             f"exponents, more than {_MAX_EXPONENT_CELLS} cells")
        blocks.append((row, column, slice(cells, cells + row.size), fits.shape))
        cells += row.size
        pivots.append(ranked[row, -1])
        exps.append(columns[column] - ranked[row, :-1])
    if not blocks:
        return _Plan(sl.xn_free_quotient_dim)

    pivot = np.concatenate(pivots)
    exps = np.concatenate(exps)
    # n >= 2 here, so a_n <= m - min(f) < dim F_m < p: every factorial is a unit mod p.
    factorial = list(accumulate(range(1, int(pivot.max(initial=0)) + 1),
                                lambda f, k: f * k % p, initial=1))
    inverse = np.array([pow(f, -1, p) for f in factorial], dtype=np.int64)
    weight = np.array(factorial, dtype=np.int64)[pivot]
    for column in exps.T:
        weight = weight * inverse[column] % p
    return _Plan(sl.xn_free_quotient_dim, tuple(blocks), exps, weight)


def _evaluate(plan: _Plan, p: int, coeffs: tuple[int, ...]) -> int:
    """Fill the plan's blocks for the form with these coefficients, whose
    c_n is nonzero mod p, and rank them."""
    total = plan.free
    if not plan.blocks:
        return total
    inv = pow(coeffs[-1], -1, p)
    lam = np.array([-c * inv % p for c in coeffs[:-1]], dtype=np.int64)
    powers = np.ones((1, lam.size), dtype=np.int64)  # powers[e, k] = lambda_k^e
    while len(powers) <= plan.exps.max(initial=0):
        powers = np.concatenate((powers, powers * (powers[-1] * lam % p) % p))
    power = plan.weight
    for k, column in enumerate(plan.exps.T):
        power = power * powers[column, k] % p
    for rows, columns, cells, size in plan.blocks:
        block = np.zeros(size, dtype=np.int64)
        block[rows, columns] = power[cells]
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
    a prime below 2**31 and above 2 dim F_m, and trials at most _MAX_TRIALS.
    n and m whose widest dim S_d passes bounds._MAX_DIM_BITS bits are
    refused before dim F_m is taken; where p is too small, n and m whose
    2 dim F_m has more digits than Python prints are named in its place.
    """
    _check_modulus(p)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if trials > _MAX_TRIALS:
        raise ValueError(f"trials too large: trials={trials} gives more than {_MAX_TRIALS} trials")
    shape = module.shape
    _refuse_wide_slice(shape, m)
    dim_fm = shape.dim(m)
    if p <= 2 * dim_fm:
        _refuse_unprintable(2 * dim_fm, "2 dim F_m", n=shape.n, m=m)
        raise ValueError(f"prime {p} too small for dim F_{m} = {dim_fm}; need p > {2 * dim_fm}")
    sl = degree_slice(module, m)
    try:
        plan = _restriction_plan(sl, p)
    except ValueError as exc:  # a plan past the cell ceiling, which a large p allows
        raise ValueError(f"m and p too large: m={m}, p={p} give {exc}") from None
    dims = tuple(
        _evaluate(plan, p, _trial_coefficients(shape.n, p, seed, t)) for t in range(trials)
    )
    generic = min(dims)
    quotient_dim = sl.quotient_dim
    bound = module_bound(quotient_dim, m, shape).total
    return RestrictionReport(
        m=m,
        p=p,
        trials=trials,
        seed=seed,
        dims=dims,
        generic_dim=generic,
        quotient_dim=quotient_dim,
        bound=bound,
        holds=generic <= bound,
        equality=generic == bound,
        expect_equality=sl.is_top,
    )
