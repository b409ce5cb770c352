"""Randomized certification of generic hyperplane restriction dimensions.

Instead of computing generic initial modules symbolically, sample linear
forms with coefficients in a large prime field and measure the restricted
quotient dimension by exact rank computation. The generic dimension is the
minimum over a Zariski-open set, so every sampled trial can only
overestimate it; the minimum over trials is reported.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .bounds import module_bound
from .monomials import (
    DegreeSlice,
    MonomialModule,
    degree_slice,
    enumerate_module_monomials,
    module_to_data,
)

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


class PrimeFieldMatrix:
    """Dense matrix over F_p with rank by Gaussian elimination mod p.

    Entries are reduced into [0, p); p must stay below 2**31 so products
    of two entries fit in int64.
    """

    def __init__(self, rows: np.ndarray, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p >= 2**31:
            raise ValueError(f"modulus {p} too large for int64 arithmetic")
        self.p = p
        self.rows = np.asarray(rows, dtype=np.int64) % p
        if self.rows.ndim != 2:
            raise ValueError("matrix must be two-dimensional")

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape

    def rank(self) -> int:
        p = self.p
        mat = self.rows.copy()
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

    ``generic_dim`` is the minimum of the per-trial quotient dimensions.
    ``holds`` records generic_dim <= bound; ``equality`` records equality.
    ``expect_equality`` is set by the certifier when the module's degree-m
    monomials form the top slice, where the bound is attained.
    """

    module_data: dict
    m: int
    p: int
    trials: int
    seed: int
    dims: tuple[int, ...]
    generic_dim: int
    bound: int
    holds: bool
    equality: bool
    expect_equality: bool = False

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


def restricted_quotient_dim(sl: DegreeSlice, p: int, coeffs: tuple[int, ...]) -> int:
    """dim (F/(M + l F))_m for the specific linear form l = sum c_i x_i.

    The span of M_m together with l * F_{m-1} is eliminated over F_p in the
    monomial-basis coordinates of F_m, taken from the degree-m slice.
    """
    shape = sl.shape
    if len(coeffs) != shape.n:
        raise ValueError(f"need {shape.n} coefficients, got {len(coeffs)}")
    col = {u: idx for idx, u in enumerate(sl.basis)}
    ncols = len(sl.basis)
    if ncols == 0:
        return 0

    rows: list[np.ndarray] = []
    for idx, inside in enumerate(sl.in_module):
        if inside:
            row = np.zeros(ncols, dtype=np.int64)
            row[idx] = 1
            rows.append(row)
    for u in enumerate_module_monomials(shape, sl.m - 1):
        row = np.zeros(ncols, dtype=np.int64)
        for var, c in enumerate(coeffs):
            if c == 0:
                continue
            bumped = list(u.monomial)
            bumped[var] += 1
            row[col[(u.component, tuple(bumped))]] = c % p
        rows.append(row)

    if not rows:
        return ncols
    rank = PrimeFieldMatrix(np.array(rows, dtype=np.int64), p).rank()
    return ncols - rank


def _sampled_report(
    module: MonomialModule, m: int, p: int, trials: int, seed: int, certify: bool
) -> RestrictionReport:
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    shape = module.shape
    dim_fm = shape.dim(m)
    if p <= 2 * dim_fm:
        raise ValueError(f"prime {p} too small for dim F_{m} = {dim_fm}; need p > {2 * dim_fm}")
    sl = degree_slice(module, m)
    dims = tuple(
        restricted_quotient_dim(sl, p, _trial_coefficients(shape.n, p, seed, t))
        for t in range(trials)
    )
    generic = min(dims)
    bound = module_bound(sl.quotient_dim, m, shape).total
    return RestrictionReport(
        module_data=module_to_data(module),
        m=m,
        p=p,
        trials=trials,
        seed=seed,
        dims=dims,
        generic_dim=generic,
        bound=bound,
        holds=generic <= bound,
        equality=generic == bound,
        expect_equality=certify and sl.is_top,
    )


def generic_restriction_dim(
    module: MonomialModule,
    m: int,
    p: int = DEFAULT_PRIME,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> RestrictionReport:
    """Sample random linear forms and report the minimal restricted dimension.

    The theoretical bound for dim (F/M)_m is computed alongside so the
    report carries its own verdict. Certification is probabilistic: a trial
    can only overestimate the generic dimension, never undershoot it.
    """
    return _sampled_report(module, m, p, trials, seed, certify=False)


def is_top_slice(module: MonomialModule, m: int) -> bool:
    """True when the module's degree-m monomials are exactly the largest
    dim M_m module monomials of F_m."""
    return degree_slice(module, m).is_top


def certify_main_theorem(
    module: MonomialModule,
    m: int,
    p: int = DEFAULT_PRIME,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> RestrictionReport:
    """Check the sampled restriction against the piecewise bound.

    The bound must dominate in every case; when the degree-m part of the
    module is a top slice the bound is attained, so equality is demanded
    as well. A failed check is reported in the returned verdict flags, not
    raised.
    """
    return _sampled_report(module, m, p, trials, seed, certify=True)
