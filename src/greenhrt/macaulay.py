"""Macaulay binomial representations and the numerator-decrement operator.

Every non-negative integer ``a`` has a unique expansion in base ``d``

    a = C(a_d, d) + C(a_{d-1}, d-1) + ... + C(a_delta, delta)

with strictly decreasing numerators ``a_d > a_{d-1} > ... > a_delta >= delta``.
Decrementing every numerator by one (with the convention ``C(c, k) = 0`` for
``c < k``) yields ``kappa(a, d)``, the quantity that bounds the Hilbert
function of a generic hyperplane restriction. One greedy pass yields the
numerators and kappa together. Degrees 1 and 2 are closed form (C(m, 1) = m;
the largest m with C(m, 2) <= rem is an integer square root); degrees 3 and
up bisect cached binomial rows, where C(a_i - 1, i) is the row entry just
below the one the pass picks. The rows are bounded; a remainder past a row's
end is placed by an integer i-th root instead.

The table sweeps read kappa over a whole range from ``_kappa_tables``, one
degree at a time. The greedy pass gives Macaulay's block recurrence: for
C(m, e) <= a < C(m+1, e), write a = C(m, e) + t with t < C(m, e-1); then

    kappa(a, e) = C(m-1, e) + kappa(t, e-1),

so the degree-e table is the degree-(e-1) table's prefixes, shifted by
constants, one block per m, and no other degree is needed to build it. The
tables are int64 and exact, because 0 <= kappa(a, e) <= a.

All arithmetic is exact; binomials are arbitrary-precision integers.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from math import comb, factorial, isqrt

import numpy as np


# Cached rows [C(i,i), C(i+1,i), ...] per degree i >= 3, grown on demand to at
# most _ROW_LIMIT entries and stopped after the first entry above _ROW_TOP: a
# full degree-3 row covers a < C(65538, 3) ~ 4.7e13, and as C(i+k, i) >= 2^k
# for k <= i, no row of degree 64 or more passes 66 entries. _pick_past_row
# places every remainder past a row's end. A pass visits degree i only while
# rem > i, and that pick then takes at least C(i+1, i) = i + 1, so one pass
# over a adds at most ~sqrt(2a) rows, however large d is. Rows are never
# dropped: the cache holds one for each degree any pass has picked at.
_ROW_LIMIT = 1 << 16
_ROW_TOP = 1 << 64
_BINOM_ROWS: dict[int, list[int]] = {}


@dataclass(frozen=True)
class MacaulayRep:
    """Base-d binomial representation: numerators listed highest degree first.

    ``numerators`` is empty exactly when the represented integer is 0.
    """

    d: int
    numerators: tuple[int, ...]

    def __post_init__(self) -> None:
        nums = self.numerators
        if type(nums) is not tuple:
            nums = tuple(nums)
            object.__setattr__(self, "numerators", nums)
        d = self.d
        if d < 1:
            raise ValueError(f"representation base must be >= 1, got d={d}")
        if len(nums) > d:
            raise ValueError("more numerators than degrees in base d")
        prev = None
        for a_i in nums:
            if a_i < 0:
                raise ValueError("numerators must be non-negative")
            if prev is not None and a_i >= prev:
                raise ValueError(f"numerators must strictly decrease, got {nums}")
            prev = a_i
        if nums:
            delta = d - len(nums) + 1
            if nums[-1] < delta:
                raise ValueError(f"terminal numerator {nums[-1]} below degree {delta}")

    @property
    def delta(self) -> int | None:
        """Terminal degree of the expansion; None for the zero representation."""
        if not self.numerators:
            return None
        return self.d - len(self.numerators) + 1

    def terms(self) -> list[tuple[int, int]]:
        """(numerator, degree) pairs, highest degree first."""
        return [(a_i, self.d - k) for k, a_i in enumerate(self.numerators)]

    def padded(self) -> tuple[int, ...]:
        """Extended view: numerators zero-padded down to degree 1 (length d)."""
        return self.numerators + (0,) * (self.d - len(self.numerators))

    def expansion_str(self) -> str:
        """Human-readable sum, e.g. ``C(4,3)+C(3,2)+C(1,1)``."""
        if not self.numerators:
            return "0"
        return "+".join(f"C({a},{i})" for a, i in self.terms())


def _greedy(a: int, d: int) -> tuple[list[int], int, int]:
    """The non-unit numerators of the base-d representation of a, the length
    of its unit tail, and kappa(a, d).

    The greedy choice (largest numerator whose binomial still fits) is the
    standard constructive proof of uniqueness; maximality forces the strict
    decrease of the numerators automatically. The pass runs while rem > i:
    once rem <= i, C(i + 1, i) > rem from there down, so each later pick is
    C(j, j) = 1 and adds C(j - 1, j) = 0 to kappa. The representation ends
    in rem such picks at degrees i, i - 1, ..., i - rem + 1, with
    i = d - len(numerators). With row[k] = C(i + k, i), the pick a_i = i +
    idx (idx >= 1, as C(i + 1, i) = i + 1 <= rem) contributes C(a_i - 1, i)
    = row[idx - 1] to kappa; past a full row, _pick_past_row supplies the
    pick and both binomials. At degree 2 the pick is m = (1 + isqrt(8 rem +
    1)) // 2, the largest m with m(m - 1)/2 <= rem, and C(m - 1, 2) = C(m,
    2) - (m - 1); at degree 1 it is rem itself, contributing rem - 1.
    """
    if d < 1:
        raise ValueError(f"representation base must be >= 1, got d={d}")
    if a < 0:
        raise ValueError(f"cannot represent negative integer {a}")
    nums: list[int] = []
    kap = 0
    rem = a
    i = d
    while rem > i:
        if i == 1:
            nums.append(rem)
            kap += rem - 1
            rem = 0
            break
        if i == 2:
            m = (1 + isqrt(8 * rem + 1)) // 2
            pick = m * (m - 1) // 2
            nums.append(m)
            kap += pick - (m - 1)
            rem -= pick
            i = 1
            continue
        row = _BINOM_ROWS.get(i)
        if row is None:
            row = _BINOM_ROWS[i] = [1]
        while row[-1] <= rem:
            if len(row) == _ROW_LIMIT or row[-1] > _ROW_TOP:
                m, pick, below = _pick_past_row(rem, i)
                nums.append(m)
                kap += below
                rem -= pick
                break
            row.append(comb(i + len(row), i))
        else:
            # largest m with C(m, i) <= rem
            idx = bisect_right(row, rem) - 1
            nums.append(i + idx)
            kap += row[idx - 1]
            rem -= row[idx]
        i -= 1
    return nums, rem, kap


def _pick_past_row(rem: int, i: int) -> tuple[int, int, int]:
    """The largest m with C(m, i) <= rem, C(m, i) and C(m - 1, i), for i >= 3.

    As (m - i + 1)^i / i! <= C(m, i) <= m^i / i!, m lies in r .. r + i - 1 for
    r the integer i-th root of i! * rem, set bit by bit with exact powers (no
    floats). The scan walks down from r + i - 1 by C(m-1, i) = C(m, i) (m-i)/m.
    """
    x = factorial(i) * rem
    r = 0
    for bit in reversed(range(-(-x.bit_length() // i))):
        if (r | 1 << bit) ** i <= x:
            r |= 1 << bit
    m = r + i - 1
    pick = comb(m, i)
    while pick > rem:
        pick = pick * (m - i) // m
        m -= 1
    return m, pick, pick * (m - i) // m


def _kappa_tables(A: int, d_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """(e, kappa(a, e) for 0 <= a <= A as one int64 array), e = 1..d_max.

    Degree 1 is a - 1 (0 at a = 0). Degree e >= 2 fills block m, the a with
    C(m, e) <= a < C(m+1, e), from the first C(m, e-1) entries of degree
    e - 1 plus C(m-1, e); block m = e - 1 is a = 0 alone. One numpy add per
    block, none per entry. Entries are at most a <= A, so int64 is exact.
    Each degree is built when the caller asks for it, from degree e - 1
    alone, so the generator holds two tables whatever d_max is; the callers
    bound A and d_max through their case and degree counts.
    """
    prev = np.arange(-1, A, dtype=np.int64)
    prev[0] = 0
    yield 1, prev
    for e in range(2, d_max + 1):
        table = np.empty(A + 1, dtype=np.int64)
        start, m = 0, e - 1
        while start <= A:
            stop = min(start + comb(m, e - 1), A + 1)
            np.add(prev[: stop - start], comb(m - 1, e), out=table[start:stop])
            start, m = stop, m + 1
        yield e, table
        prev = table


def macaulay_rep(a: int, d: int) -> MacaulayRep:
    """Base-d Macaulay representation of a, built greedily from degree d down.

    The greedy numerators are valid by construction (tests check them against
    ``MacaulayRep``'s validation), so the result skips ``__post_init__``.
    """
    nums, tail, _ = _greedy(a, d)
    i = d - len(nums)
    nums.extend(range(i, i - tail, -1))
    rep = object.__new__(MacaulayRep)
    object.__setattr__(rep, "d", d)
    object.__setattr__(rep, "numerators", tuple(nums))
    return rep


def rep_value(rep: MacaulayRep) -> int:
    """Integer represented by rep: the sum of its binomial terms."""
    total = 0
    i = rep.d
    for a_i in rep.numerators:
        total += comb(a_i, i)
        i -= 1
    return total


def kappa(a: int, d: int) -> int:
    """Decrement every numerator in the base-d representation of a.

    kappa(a, d) = C(a_d - 1, d) + ... + C(a_delta - 1, delta), with terms
    where the numerator drops below the degree contributing zero. Always
    satisfies kappa(a, d) <= a. Accumulated in the same greedy pass that
    finds the numerators, one step per pick that is not C(j, j); the unit
    tail adds 0 and is never listed, and no representation object is built.
    """
    return _greedy(a, d)[2]


def rep_compare(a: int, b: int, d: int) -> int:
    """Compare a and b through their zero-padded base-d numerator vectors.

    Returns -1, 0 or 1. Lexicographic order on the padded vectors agrees
    with the integer order of a and b; that agreement is a testable fact,
    not an assumption of the implementation. The greedy pass's (non-unit
    numerators, tail length) pairs are compared, and no unit is listed: a
    non-unit numerator at degree j is above j, a unit equals j and padding
    is 0, so where the non-unit lists differ, or one is a prefix of the
    other, list order decides as the padded vectors do; equal lists fall
    through to the tails, and the longer tail is the larger number.
    """
    pa = _greedy(a, d)[:2]
    pb = _greedy(b, d)[:2]
    return (pa > pb) - (pa < pb)
