"""Representation core: uniqueness, round trips, order agreement."""
from __future__ import annotations

import itertools
import random
import tracemalloc
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenhrt import macaulay
from greenhrt.macaulay import (
    MacaulayRep,
    kappa,
    macaulay_rep,
    rep_compare,
    rep_value,
)


def enumerate_canonical_reps(d: int, limit: int) -> list[tuple[int, tuple[int, ...]]]:
    """Independent oracle: every strictly-decreasing numerator vector
    (a_d > ... > a_delta >= delta, contiguous degrees) with value <= limit,
    generated without any reference to the greedy construction."""
    found: list[tuple[int, tuple[int, ...]]] = []

    def descend(i: int, prev: int, total: int, nums: list[int]) -> None:
        found.append((total, tuple(nums)))  # stop here: delta = i + 1
        if i == 0:
            return
        a_i = i
        while a_i < prev and total + comb(a_i, i) <= limit:
            nums.append(a_i)
            descend(i - 1, a_i, total + comb(a_i, i), nums)
            nums.pop()
            a_i += 1

    descend(d, limit + d + 2, 0, [])
    return found


def test_binomial_examples():
    assert comb(5, 3) == 10
    assert comb(2, 3) == 0  # convention: zero when the top is smaller
    assert comb(0, 0) == 1


def test_rep_examples_from_exhaustive_oracle():
    # The oracle confirms (4,3,1) and (5,) are the unique vectors for 8 and
    # 10 in base 3; frozen here.
    reps = dict(enumerate_canonical_reps(3, 12))
    assert reps[8] == (4, 3, 1)
    assert reps[10] == (5,)
    assert macaulay_rep(8, 3).numerators == (4, 3, 1)
    assert macaulay_rep(8, 3).delta == 1
    assert macaulay_rep(10, 3).numerators == (5,)
    assert macaulay_rep(10, 3).delta == 3
    assert macaulay_rep(0, 4).numerators == ()
    assert macaulay_rep(0, 4).delta is None


@pytest.mark.parametrize("d", range(1, 7))
def test_uniqueness_and_greedy_agreement(d):
    # Exhaustive: each value <= 2000 has exactly one canonical vector, and
    # the greedy construction finds it.
    by_value: dict[int, list[tuple[int, ...]]] = {}
    for value, nums in enumerate_canonical_reps(d, 2000):
        by_value.setdefault(value, []).append(nums)
    for a in range(2001):
        assert len(by_value[a]) == 1, (a, d, by_value[a])
        assert macaulay_rep(a, d).numerators == by_value[a][0]


def test_rep_value_examples():
    assert rep_value(MacaulayRep(d=3, numerators=(4, 3, 1))) == 8
    assert rep_value(MacaulayRep(d=3, numerators=(5,))) == 10
    assert rep_value(MacaulayRep(d=2, numerators=())) == 0


def test_rep_validation():
    assert MacaulayRep(d=3, numerators=[4, 3, 1]).padded() == (4, 3, 1)  # list ok
    with pytest.raises(ValueError):
        MacaulayRep(d=3, numerators=(3, 3))  # not strictly decreasing
    with pytest.raises(ValueError):
        MacaulayRep(d=2, numerators=(3, 0))  # terminal numerator below degree
    with pytest.raises(ValueError, match=r"^representation base must be >= 1, got d=0$"):
        MacaulayRep(d=0, numerators=())
    with pytest.raises(ValueError, match=r"^more numerators than degrees in base d$"):
        MacaulayRep(d=2, numerators=(3, 2, 1))
    with pytest.raises(ValueError, match=r"^numerators must be non-negative$"):
        MacaulayRep(d=2, numerators=(3, -1))
    with pytest.raises(ValueError):
        macaulay_rep(5, 0)
    with pytest.raises(ValueError):
        macaulay_rep(-1, 3)


def test_round_trip_small_exhaustive():
    for d in range(1, 13):
        for a in range(3000):
            assert rep_value(macaulay_rep(a, d)) == a


@settings(max_examples=300, deadline=None)
@given(a=st.integers(min_value=0, max_value=10**6), d=st.integers(min_value=1, max_value=12))
def test_round_trip_property(a, d):
    rep = macaulay_rep(a, d)
    assert rep_value(rep) == a
    assert rep.padded()[: len(rep.numerators)] == rep.numerators
    assert len(rep.padded()) == d


def test_greedy_reps_pass_validation_and_compare_unpadded():
    # macaulay_rep skips MacaulayRep's validation and rep_compare compares
    # (non-unit numerators, tail length) pairs, not padded vectors; here each
    # greedy output is validated, and each comparison is checked against the
    # padded vectors, a = 0 and prefix pairs included.
    rng = random.Random(20261019)
    pairs = [(0, 0, d) for d in range(1, 13)] + [(0, 1, d) for d in range(1, 13)]
    # C(m, d) has numerators (m,), a proper prefix of C(m, d) + 1's (m, d - 1).
    pairs += [(comb(m, d), comb(m, d) + 1, d) for d in range(2, 13) for m in (d, d + 1, 3 * d)]
    for _ in range(3000):
        d = rng.randint(1, 12)
        a = rng.randrange(10**6)
        pairs.append((a, rng.choice([0, a, a + 1, max(a - 1, 0), rng.randrange(10**6)]), d))
    for _ in range(300):
        d = rng.randint(1, 40)
        pairs.append((rng.randrange(10**30), rng.randrange(10**30), d))
    prefixes = 0
    for a, b, d in pairs:
        reps = macaulay_rep(a, d), macaulay_rep(b, d)
        for value, rep in zip((a, b), reps):
            assert type(rep.numerators) is tuple
            checked = MacaulayRep(d, rep.numerators)  # raises on an invalid rep
            assert rep == checked and hash(rep) == hash(checked), (value, d)
            assert rep_value(rep) == value
        pa, pb = reps[0].padded(), reps[1].padded()
        assert rep_compare(a, b, d) == (pa > pb) - (pa < pb) == (a > b) - (a < b), (a, b, d)
        na, nb = reps[0].numerators, reps[1].numerators
        prefixes += na != nb and (na == nb[: len(na)] or nb == na[: len(nb)])
    assert prefixes >= 40


def test_kappa_examples():
    assert kappa(8, 3) == 2  # C(3,3)+C(2,2)+C(0,1)
    assert kappa(10, 3) == 4  # C(4,3)
    assert kappa(0, 7) == 0


@settings(max_examples=300, deadline=None)
@given(a=st.integers(min_value=0, max_value=10**6), d=st.integers(min_value=1, max_value=12))
def test_kappa_dominated_by_value(a, d):
    assert 0 <= kappa(a, d) <= a


@pytest.mark.parametrize("d", range(1, 7))
def test_kappa_monotone_in_value(d):
    # Adjacent steps cover all pairs a <= b <= 2000 by transitivity.
    values = [kappa(a, d) for a in range(2001)]
    for a in range(2000):
        assert values[a] <= values[a + 1], (a, d)


def test_kappa_on_full_spaces_drops_one_variable():
    for n in range(1, 9):
        for d in range(1, 9):
            assert kappa(comb(n + d - 1, d), d) == comb(n + d - 2, d)


def test_rep_compare_examples():
    assert rep_compare(8, 7, 3) == 1
    assert macaulay_rep(7, 3).numerators == (4, 3)  # C(4,3)+C(3,2)
    assert rep_compare(5, 5, 2) == 0
    assert rep_compare(0, 1, 2) == -1


@pytest.mark.parametrize("d", range(1, 7))
def test_order_agreement_exhaustive(d):
    # Padded vectors must increase strictly with the integer; consecutive
    # agreement gives every pair a <= b <= 2000 by transitivity.
    padded = [macaulay_rep(a, d).padded() for a in range(2001)]
    for a in range(2000):
        assert padded[a] < padded[a + 1], (a, d)
    rng = random.Random(7)
    for _ in range(2000):
        a, b = rng.randrange(2001), rng.randrange(2001)
        assert rep_compare(a, b, d) == (a > b) - (a < b)


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=10**5),
    b=st.integers(min_value=0, max_value=10**5),
    d=st.integers(min_value=1, max_value=9),
)
def test_order_agreement_property(a, b, d):
    assert rep_compare(a, b, d) == (a > b) - (a < b)


def test_expansion_str():
    assert macaulay_rep(8, 3).expansion_str() == "C(4,3)+C(3,2)+C(1,1)"
    assert macaulay_rep(0, 3).expansion_str() == "0"


def test_greedy_core_matches_definitions():
    # kappa and rep_compare share the greedy pass with macaulay_rep; check
    # them against the formulas written over the representation itself.
    rng = random.Random(4)
    large = [int(10 ** rng.uniform(0, 12)) for _ in range(300)]
    for d in range(1, 13):
        padded: dict[int, tuple[int, ...]] = {}

        def pad(a: int) -> tuple[int, ...]:
            if a not in padded:
                padded[a] = macaulay_rep(a, d).padded()
            return padded[a]

        for a in itertools.chain(range(3001), large):
            rep = macaulay_rep(a, d)
            assert kappa(a, d) == sum(comb(a_i - 1, i) for a_i, i in rep.terms()), (a, d)
            others = [a + 1, rng.choice(large)] + ([a - 1] if a else [])
            for b in others:
                expected = (pad(a) > pad(b)) - (pad(a) < pad(b))
                assert rep_compare(a, b, d) == expected, (a, b, d)

    # Degree 2 is closed form: no cached row, however large a is. Inputs sit
    # on and beside C(m, 2) boundaries, where an integer square root that is
    # off by one would pick the wrong numerator. Degrees 3 and 4 draw from
    # both sides of their bounded rows' ends, ~4.7e13 and ~7.7e17. A degree-2
    # row for a = 10^30 would need ~1.4 * 10^15 entries.
    assert 2 not in macaulay._BINOM_ROWS
    tops = {2: 10**30, 3: 10**15, 4: 10**18}
    for d, top in tops.items():
        draws = [rng.randrange(top) for _ in range(200)] + [top]
        edges = [comb(m, 2) + e for m in (2, 3, 10**6, 10**15) for e in (-1, 0, 1)]
        for a in draws + [x for x in edges if 0 <= x <= top]:
            rep = macaulay_rep(a, d)
            assert rep_value(rep) == a, (a, d)
            assert kappa(a, d) == sum(comb(a_i - 1, i) for a_i, i in rep.terms()), (a, d)
    assert 2 not in macaulay._BINOM_ROWS


@pytest.mark.parametrize("call", [kappa, lambda a, d: rep_compare(a, 0, d), macaulay_rep])
def test_entry_points_keep_error_messages(call):
    with pytest.raises(ValueError, match=r"^representation base must be >= 1, got d=0$"):
        call(5, 0)
    with pytest.raises(ValueError, match=r"^cannot represent negative integer -1$"):
        call(-1, 3)


def test_kappa_tables_match_scalar_kappa():
    # The block recurrence is a second formulation of kappa: every entry
    # must equal the greedy pass's value, and kappa(a, e) <= a keeps int64
    # exact.
    tables = dict(macaulay._kappa_tables(4000, 7))
    assert sorted(tables) == list(range(1, 8))
    for e, table in tables.items():
        assert table.dtype == np.int64 and table.shape == (4001,)
        assert table.tolist() == [kappa(a, e) for a in range(4001)], e
        assert (table >= 0).all() and (table <= np.arange(4001)).all(), e


def test_kappa_tables_block_edges_and_large_range():
    A = 10**6
    tables = dict(macaulay._kappa_tables(A, 5))
    for e in range(2, 6):
        table = tables[e]
        assert (table <= np.arange(A + 1)).all(), e
        # Every block starts at C(m, e); check both sides of each edge.
        m = e
        while comb(m, e) - 1 <= A:
            for a in (comb(m, e) - 1, comb(m, e), comb(m, e) + 1):
                if a <= A:
                    assert table[a] == kappa(a, e), (a, e)
            m += 1
        rng = random.Random(e)
        for a in [rng.randrange(A + 1) for _ in range(2000)] + [A]:
            assert table[a] == kappa(a, e), (a, e)
    for A in (0, 1, 2):
        small = dict(macaulay._kappa_tables(A, 4))
        for e in range(1, 5):
            assert small[e].tolist() == [kappa(a, e) for a in range(A + 1)]


def _largest_pick(rem: int, i: int) -> int:
    """Bisection reference: the largest m with C(m, i) <= rem, for rem >= 1."""
    lo, hi = i, i + 1
    while comb(hi, i) <= rem:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if comb(mid, i) <= rem else (lo, mid)
    return lo


def _reference_numerators(a: int, d: int) -> tuple[int, ...]:
    nums = []
    for i in range(d, 0, -1):
        if a == 0:
            break
        nums.append(_largest_pick(a, i))
        a -= comb(nums[-1], i)
    return tuple(nums)


def test_huge_values_take_the_root_path_past_bounded_rows():
    # Rows stop at _ROW_LIMIT entries or after their first entry above
    # _ROW_TOP; past that end an integer root places the pick. macaulay_rep
    # validates its output, and rep_value and kappa close the round trip.
    rng = random.Random(14)
    for _ in range(300):
        d = rng.randint(3, 40)
        a = rng.randrange(10 ** rng.randint(1, 400))
        rep = macaulay_rep(a, d)
        assert rep_value(rep) == a, (a, d)
        assert kappa(a, d) == sum(comb(a_i - 1, i) for a_i, i in rep.terms()), (a, d)
    rows = macaulay._BINOM_ROWS
    assert len(rows[3]) == macaulay._ROW_LIMIT  # the draws reached the cap
    for row in rows.values():
        assert len(row) <= macaulay._ROW_LIMIT
        assert all(entry <= macaulay._ROW_TOP for entry in row[:-1])

    # Both ends: a full row (degrees 3 and 4) and a row stopped by value
    # (degrees 5 and 8). At the end the pick switches from the row to the root.
    L = macaulay._ROW_LIMIT
    ends = {i: comb(i + L - 1, i) for i in (3, 4)}
    for i in (5, 8):
        k = 0
        while comb(i + k, i) <= macaulay._ROW_TOP:
            k += 1
        ends[i] = comb(i + k, i)
    for i, end in ends.items():
        for a in (end - 1, end, end + 1, 2 * end, end**2):
            for d in (i, i + 1):
                ref = _reference_numerators(a, d)
                assert macaulay_rep(a, d).numerators == ref, (a, d)
                expected = sum(comb(a_i - 1, d - k) for k, a_i in enumerate(ref))
                assert kappa(a, d) == expected, (a, d)


def test_small_remainders_finish_without_rows(monkeypatch):
    # Once rem <= i at a degree with no cached row, every later pick is
    # C(j, j) = 1 and adds 0 to kappa, so the pass ends without a row. A
    # row is made only where the pick takes at least i + 1 >= 4, so a pass
    # from a cold cache leaves at most isqrt(2a) rows, however large d is.
    before = len(macaulay._BINOM_ROWS)
    assert kappa(10**6, 10**6) == 0
    assert len(macaulay._BINOM_ROWS) == before
    assert rep_value(macaulay_rep(10**6, 10**6)) == 10**6
    for d in range(3, 41):
        for a in range(300):
            monkeypatch.setattr(macaulay, "_BINOM_ROWS", {})
            ref = _reference_numerators(a, d)
            assert macaulay_rep(a, d).numerators == ref, (a, d)
            assert len(macaulay._BINOM_ROWS) <= isqrt(2 * a), (a, d)
            assert kappa(a, d) == sum(comb(a_i - 1, d - k) for k, a_i in enumerate(ref)), (a, d)


def test_unit_tails_end_the_pass_at_every_degree(monkeypatch):
    # Once rem <= i, every later pick is C(j, j) = 1 and adds 0 to kappa. The
    # pass stops there whether or not degree i has a cached row, so kappa
    # makes no bisection for a <= d (a walk of the unit picks makes ~a), and
    # one per non-unit pick otherwise.
    for i in range(3, 1001):
        assert kappa(i + 1, i) == 1  # the pick C(i + 1, i) caches row i
    assert all(i in macaulay._BINOM_ROWS for i in range(3, 1001))
    calls = []
    real_bisect = macaulay.bisect_right

    def counting_bisect(row, x):
        calls.append(x)
        return real_bisect(row, x)

    monkeypatch.setattr(macaulay, "bisect_right", counting_bisect)
    for a in range(1001):
        assert kappa(a, 1000) == 0, a
    assert calls == []
    assert kappa(1001, 1000) == 1 and len(calls) == 1
    # The representation still lists its unit tail; rep_compare reads only
    # its length.
    assert macaulay_rep(1000, 1000).numerators == tuple(range(1000, 0, -1))
    assert macaulay_rep(1003, 1000).numerators == (1001, 999, 998)
    assert rep_compare(999, 1000, 1000) == -1 and rep_compare(1000, 1000, 1000) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("a, expected", [(10**8, 0), (2 * 10**8, 1)])
def test_kappa_at_a_huge_degree_lists_no_unit_tail(a, expected):
    # A unit tail of ~10^8 picks once took 10^8 list entries (a MemoryError
    # under a 2 GB address-space limit); kappa never lists it now.
    tracemalloc.start()
    try:
        assert kappa(a, 10**8) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("b, expected", [(10**8, 0), (10**8 + 1, -1)])
def test_rep_compare_at_a_huge_degree_lists_no_unit_tail(b, expected):
    # 10^8 in base 10^8 is a tail of 10^8 unit picks, and 10^8 + 1 is the
    # single numerator 10^8 + 1. Listing the tails once took ~2 * 10^8 ints;
    # the comparison reads each tail's length instead.
    tracemalloc.start()
    try:
        assert rep_compare(10**8, b, 10**8) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
