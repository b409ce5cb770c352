"""Verification sweeps: zero counterexamples, honest bookkeeping."""
from __future__ import annotations

import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from test_bounds import _max_plus_bound, _module_bound_reference
from test_cli import _leaf_paths
from test_monomials import brute_monomials

from greenhrt import bounds, macaulay, monomials, oracle, verifiers
from greenhrt.bounds import FreeModuleShape, module_bound, rank2_bound
from greenhrt.cli import COMMANDS, main
from greenhrt.macaulay import _kappa_tables, kappa, macaulay_rep
from greenhrt.verifiers import (
    VerificationOutcome,
    _record,
    check_herz_tail,
    check_higher,
    check_kappa_lemma,
    check_lex_restriction,
    check_rank2,
    check_scaled_corollary,
    nonincreasing_tuples,
)


def test_kappa_lemma_small_sweep():
    outcome = check_kappa_lemma(500, 6)
    assert outcome.ok
    assert outcome.cases == 6 * (501**2 + 501)
    # spot value quoted against the sweep: kappa(20,3) via C(6,3)
    assert kappa(10, 3) + kappa(10, 3) <= kappa(20, 3) == 10


def test_kappa_lemma_rejects_bad_ranges():
    with pytest.raises(ValueError):
        check_kappa_lemma(0, 3)


def test_herz_tail_small_sweep():
    outcome = check_herz_tail(400, 6)
    assert outcome.ok
    assert outcome.cases == 6 * 400
    # direct instances of both sides of the biconditional
    assert kappa(1, 1) == kappa(0, 1) == 0  # rep (1) ends at delta
    assert kappa(2, 2) == kappa(1, 2) == 0  # rep (2,1) ends at delta


def test_rank2_sweeps():
    outcome = check_rank2(3, 3, 2)
    assert outcome.ok
    n1, n2 = comb(5, 3), comb(4, 2)
    assert outcome.cases == (n1 + 1) * (n2 + 1)
    unequal = check_rank2(4, 5, 2)
    assert unequal.ok
    assert unequal.cases == (comb(8, 5) + 1) * (comb(5, 2) + 1) == 57 * 11
    with pytest.raises(ValueError):
        check_rank2(3, 2, 3)


def test_higher_matches_rank2_on_pairs():
    tuples = [t for t in nonincreasing_tuples(4, 2)]
    # r in (1, 2), d <= 4: the pairs above and the single degrees
    outcome = check_higher(3, 4, 2, 50, 1)
    assert outcome.ok
    for d1, d2 in tuples:
        n1 = comb(3 + d1 - 1, d1)
        n2 = comb(3 + d2 - 1, d2)
        shape = FreeModuleShape(n=3, degrees=(0, d1 - d2))
        for a in range(0, n1 + 1, 3):
            for b in range(0, n2 + 1, 2):
                assert module_bound(a + b, d1, shape).total == rank2_bound(a, b, d1, d2, 3)


def test_higher_full_corners_hit_equality():
    # with every component full, both sides agree exactly
    degrees = (3, 2, 1)
    caps = [comb(3 + d - 1, d) for d in degrees]
    lhs = sum(kappa(c, d) for c, d in zip(caps, degrees))
    shape = FreeModuleShape(n=3, degrees=(0, 1, 2))  # generator degrees 3 - d_i
    assert module_bound(sum(caps), 3, shape).total == lhs


@pytest.mark.parametrize(
    "n, d_max, r_max, samples, message",
    [
        (0, 0, 0, -1, "d_max must be at least 1, got 0"),
        (0, 1, 0, -1, "r_max must be at least 1, got 0"),
        (0, 1, 1, -1, "need at least one variable, got n=0"),
        (1, 1, 1, -1, "samples must be non-negative, got -1"),
    ],
    ids=["d_max", "r_max", "n", "samples"],
)
def test_higher_names_the_first_bad_range(capsys, n, d_max, r_max, samples, message):
    # The ranges are checked in the order d_max, r_max, n, samples, so a call
    # with several bad values names the first one, as the CLI does.
    with pytest.raises(ValueError) as exc:
        check_higher(n, d_max, r_max, samples, 0)
    assert str(exc.value) == message
    argv = ["verify", "higher", "--n", str(n), "--d-max", str(d_max),
            "--r-max", str(r_max), "--samples", str(samples)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_nonincreasing_tuples():
    tuples = nonincreasing_tuples(3, 2)
    assert set(tuples) == {(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)}


def test_lex_restriction_sweeps():
    for n in (1, 2, 3):
        for d in (0, 1, 2, 3):
            outcome = check_lex_restriction(n, d)
            assert outcome.ok
            assert outcome.cases == comb(n + d - 1, d) + 1


def test_scaled_corollary_builds_one_slice_per_case(monkeypatch):
    calls = []
    original = monomials.degree_slice

    def counting(module, m):
        calls.append(m)
        return original(module, m)

    monkeypatch.setattr(monomials, "degree_slice", counting)
    monkeypatch.setattr(oracle, "degree_slice", counting)
    # The closed-form count is the only one: each case must be one report.
    # n_max = 1 skips d = 0; d_max = 0 leaves d = 0 alone at n >= 2.
    counts = []
    for n_max, r_max, d_max, samples in ((2, 2, 3, 1), (1, 2, 2, 1), (1, 1, 1, 0),
                                         (3, 1, 0, 2), (2, 3, 1, 0)):
        calls.clear()
        outcome = check_scaled_corollary(n_max, r_max, d_max, samples)
        assert outcome.ok and outcome.cases == len(calls), (n_max, r_max, d_max, samples)
        counts.append(outcome.cases)
    assert counts == [28, 8, 1, 6, 9]


def test_scaled_corollary_sweep_small():
    outcome = check_scaled_corollary(n_max=2, r_max=2, d_max=3, samples=2, seed=4)
    assert outcome.ok
    assert outcome.cases > 0


def test_scaled_records_each_violation_with_its_fraction(capsys, monkeypatch):
    # A bound 1/3 below the real one is under lhs wherever the real one is
    # attained, so every record path of the sweep runs.
    real = verifiers.scaled_bound
    monkeypatch.setattr(verifiers, "scaled_bound", lambda h, n, d: real(h, n, d) - Fraction(1, 3))
    outcome = check_scaled_corollary(n_max=2, r_max=1, d_max=2, samples=1, seed=3)
    zero, square = [[]], [[[2]]]
    squares = [[[0, 2], [2, 0]]]
    assert outcome.cases == 10
    assert outcome.counterexamples == [
        {"n": 1, "r": 1, "d": 1, "generators": zero, "lhs": 0, "rhs": "-1/3"},
        {"n": 1, "r": 1, "d": 2, "generators": zero, "lhs": 0, "rhs": "-1/3"},
        {"n": 1, "r": 1, "d": 1, "generators": square, "lhs": 0, "rhs": "-1/3"},
        {"n": 1, "r": 1, "d": 2, "generators": square, "lhs": 0, "rhs": "-1/3"},
        {"n": 2, "r": 1, "d": 0, "generators": zero, "lhs": 1, "rhs": "2/3"},
        {"n": 2, "r": 1, "d": 1, "generators": zero, "lhs": 1, "rhs": "2/3"},
        {"n": 2, "r": 1, "d": 2, "generators": zero, "lhs": 1, "rhs": "2/3"},
        {"n": 2, "r": 1, "d": 0, "generators": squares, "lhs": 1, "rhs": "2/3"},
        {"n": 2, "r": 1, "d": 1, "generators": squares, "lhs": 1, "rhs": "2/3"},
    ]
    assert all(list(c) == ["n", "r", "d", "generators", "lhs", "rhs"]
               for c in outcome.counterexamples)
    argv = ["verify", "scaled", "--n-max", "2", "--r-max", "1", "--d-max", "2",
            "--samples", "1", "--seed", "3"]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["scaled: 10 cases, 9 counterexamples",
                     *(str(c) for c in outcome.counterexamples)]
    assert main([*argv, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == outcome.to_json_dict()


def test_counterexample_recording_round_trips():
    outcome = VerificationOutcome("demo", {"n": 1})
    _record(outcome, {"a": 1, "b": 2}, 5, 4)
    assert not outcome.ok
    entry = outcome.counterexamples[0]
    assert entry["lhs"] > entry["rhs"]
    assert outcome.to_json_dict() == {
        "statement": "demo",
        "ranges": {"n": 1},
        "cases": 0,
        "counterexamples": [{"a": 1, "b": 2, "lhs": 5, "rhs": 4}],
    }


def test_determinism_of_seeded_sweeps():
    a = check_higher(2, 2, 2, 30, 9)
    b = check_higher(2, 2, 2, 30, 9)
    assert a.cases == b.cases and a.counterexamples == b.counterexamples
    s1 = check_scaled_corollary(n_max=2, r_max=1, d_max=2, samples=1, seed=3)
    s2 = check_scaled_corollary(n_max=2, r_max=1, d_max=2, samples=1, seed=3)
    assert s1.to_json_dict() == s2.to_json_dict()


def _lex_restriction_reference(n, d, kappa_fn):
    # Reference formulation: list S_d by brute force and recount the prefix
    # all_monomials[:k], the lex segment of size k, for every segment size.
    all_monomials = brute_monomials(n, d)
    dim = len(all_monomials)
    ambient_free = sum(1 for mono in all_monomials if mono[-1] == 0)
    cases, bad = 0, []
    for k in range(dim + 1):
        segment = all_monomials[:k]
        codim = ambient_free - sum(1 for mono in segment if mono[-1] == 0)
        expected = kappa_fn(dim - k, d) if d >= 1 else dim - k
        if codim != expected:
            bad.append({"n": n, "d": d, "k": k, "lhs": codim, "rhs": expected})
        cases += 1
    return cases, bad


def test_lex_restriction_matches_segment_by_segment_reference(monkeypatch):
    # With kappa skewed by one wherever dim - k is odd, both formulations
    # must also flag the same segment sizes with the same sides.
    def skewed(a, d):
        return kappa(a, d) + a % 2

    for n in range(1, 6):
        for d in range(0, 5):
            for kappa_fn in (kappa, skewed):
                expected = _lex_restriction_reference(n, d, kappa_fn)
                monkeypatch.setattr(verifiers, "kappa", kappa_fn)
                outcome = check_lex_restriction(n, d)
                assert (outcome.cases, outcome.counterexamples) == expected, (n, d)
                if kappa_fn is skewed and d >= 1:
                    assert outcome.counterexamples


def _kappa_lemma_pair_sums_reference(a_max, d_max, kappa_fn):
    # Reference formulation: gather rhs = table[a + b] through an index array.
    tables = {
        d: np.array([kappa_fn(a, d) for a in range(2 * a_max + 1)], dtype=np.int64)
        for d in range(1, d_max + 2)
    }
    idx = np.arange(a_max + 1)
    pair_sums = idx[:, None] + idx[None, :]
    expected = []
    for d in range(1, d_max + 1):
        table = tables[d]
        head = table[: a_max + 1]
        for a, b in np.argwhere(head[:, None] + head[None, :] > table[pair_sums]):
            a, b = int(a), int(b)
            expected.append({"a": a, "b": b, "d": d, "part": "superadditive",
                             "lhs": kappa_fn(a, d) + kappa_fn(b, d),
                             "rhs": kappa_fn(a + b, d)})
        for (a,) in np.argwhere(tables[d + 1][: a_max + 1] > head):
            a = int(a)
            expected.append({"a": a, "d": d, "part": "degree-monotone",
                             "lhs": kappa_fn(a, d + 1), "rhs": kappa_fn(a, d)})
    return expected


def _tables_of(kappa_fn):
    # Stand-in for verifiers._kappa_tables that tabulates kappa_fn.
    def tables(A, d_max):
        for d in range(1, d_max + 1):
            yield d, np.array([kappa_fn(a, d) for a in range(A + 1)], dtype=np.int64)

    return tables


def test_kappa_lemma_window_matches_pair_sums_reference(monkeypatch):
    # A deliberately non-superadditive stand-in for kappa; the counterexamples
    # must be those of the index-array formulation, in the same order. The
    # a_max around the row-block size pin the block edges.
    def wobbly(a, d):
        return (a * a * (d + 1)) % 17 + a // (d + 1)

    block = verifiers._LEMMA_BLOCK_ROWS
    monkeypatch.setattr(verifiers, "_kappa_tables", _tables_of(wobbly))
    monkeypatch.setattr(verifiers, "kappa", wobbly)
    for a_max, d_max in ((60, 3), (block - 1, 1), (block, 1), (block + 1, 1),
                         (2 * block + 7, 1)):
        expected = _kappa_lemma_pair_sums_reference(a_max, d_max, wobbly)
        outcome = check_kappa_lemma(a_max, d_max)
        assert len(expected) > 100
        assert outcome.counterexamples == expected, (a_max, d_max)
        assert outcome.cases == d_max * ((a_max + 1) ** 2 + (a_max + 1))


def test_kappa_lemma_short_row_blocks_match_the_reference(monkeypatch):
    # With the block patched to one row, every block is one row; at two or
    # three rows, the last of the 41 rows' blocks is short. The
    # counterexamples must be the reference's, in the same order, either way.
    def wobbly(a, d):
        return (a * a * (d + 1)) % 17 + a // (d + 1)

    monkeypatch.setattr(verifiers, "_kappa_tables", _tables_of(wobbly))
    monkeypatch.setattr(verifiers, "kappa", wobbly)
    allocated = []

    class RecordingNumpy:
        # numpy, with each np.empty shape in check_kappa_lemma recorded.
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape, dtype):
            allocated.append(shape)
            return np.empty(shape, dtype)

    monkeypatch.setattr(verifiers, "np", RecordingNumpy())
    a_max, d_max = 40, 2
    expected = _kappa_lemma_pair_sums_reference(a_max, d_max, wobbly)
    assert len(expected) > 100
    for rows in (1, 2, 3):
        monkeypatch.setattr(verifiers, "_LEMMA_BLOCK_ROWS", rows)
        allocated.clear()
        outcome = check_kappa_lemma(a_max, d_max)
        assert allocated == [rows * (a_max + 1)] * 2 * d_max, rows
        assert outcome.counterexamples == expected, rows
        assert outcome.cases == d_max * ((a_max + 1) ** 2 + (a_max + 1))


@pytest.mark.parametrize("bits", [8, 16, 32])
def test_kappa_lemma_pair_sums_cross_dtype_limits(monkeypatch, bits):
    # Head entries reach just over 2^(bits-1), so every table entry fits in
    # `bits` bits but the largest pair sums do not: a dtype chosen for the
    # entries rather than their pair sums wraps and loses counterexamples.
    a_max, d_max = 120, 2
    half = 2 ** (bits - 1)

    def saturating(a, d):
        return half * min(a, a_max) // a_max + (a * a * (d + 1)) % 17

    monkeypatch.setattr(verifiers, "_kappa_tables", _tables_of(saturating))
    monkeypatch.setattr(verifiers, "kappa", saturating)
    head_sums = [saturating(a, 1) + saturating(b, 1)
                 for a in range(a_max + 1) for b in range(a_max + 1)]
    assert min(head_sums) < 2 ** bits < max(head_sums)
    assert max(saturating(a, 1) for a in range(2 * a_max + 1)) < 2 ** bits
    expected = _kappa_lemma_pair_sums_reference(a_max, d_max, saturating)
    outcome = check_kappa_lemma(a_max, d_max)
    assert len(expected) > 100
    assert outcome.counterexamples == expected


def test_pair_hits_refuses_sums_too_short_for_its_view():
    # The window view is built from its shape and strides alone: sums one
    # short of the last pair, a = 2 with b = 3, would be read past its end.
    # A strided sums (every other entry of a longer array) reads its own
    # stride.
    left = np.array([5, 0, 3], dtype=np.int64)
    right = np.array([0, 1, 0, 7], dtype=np.int64)
    values = np.array([4, 0, 2, 6, 1, 9], dtype=np.int64)
    expected = [(a, b) for a in range(3) for b in range(4) if left[a] + right[b] > values[a + b]]
    assert expected == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (2, 0), (2, 2), (2, 3)]
    for short in (values[:5], values[:0], values[::2]):
        with pytest.raises(ValueError, match=r"^sums has \d+ entries, the pairs need 6$"):
            list(verifiers._pair_hits(left, right, short))
    wide = np.zeros(12, dtype=np.int64)
    wide[::2] = values
    for sums in (values, wide[::2], np.append(values, -1)):
        assert list(verifiers._pair_hits(left, right, sums)) == expected


def _pair_hits_reference(left, right, sums):
    # Every cell of the full square, in Python integers.
    return [(a, b) for a in range(len(left)) for b in range(len(right))
            if int(left[a]) + int(right[b]) > int(sums[a + b])]


@pytest.mark.parametrize("bits", [8, 16, 32])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_pair_hits_paired_with_itself_matches_the_full_square(monkeypatch, rows, bits):
    # Values just below half the dtype's range, so the pair sums reach its
    # top, and sums drawn among them: hits fall on and off the diagonal, in
    # bands that end one short of, on and one past N. The hits must be the
    # full square's, in its row-major order, from both the paired and the
    # two-array call.
    monkeypatch.setattr(verifiers, "_LEMMA_BLOCK_ROWS", rows)
    dtype = np.dtype(f"uint{bits}")
    half = 2 ** (bits - 1)
    rng = random.Random(f"pair-hits:{rows}:{bits}")
    on = off = 0
    for k in (1, 2, 3, 5):
        for size in (k * rows - 1, k * rows, k * rows + 1):
            if size < 1:
                continue
            values = np.array([rng.randint(half - 12, half - 1) for _ in range(size)], dtype)
            sums = np.array([rng.randint(2 * half - 24, 2 * half - 1)
                             for _ in range(2 * size - 1)], dtype)
            expected = _pair_hits_reference(values, values, sums)
            assert list(verifiers._pair_hits(values, None, sums)) == expected, (k, size)
            assert list(verifiers._pair_hits(values, values, sums)) == expected, (k, size)
            on += sum(a == b for a, b in expected)
            off += sum(a != b for a, b in expected)
    assert on > 0 and off > 0


@pytest.mark.parametrize("rows", [1, 2, 3, 7, verifiers._LEMMA_BLOCK_ROWS])
def test_kappa_lemma_compares_each_unordered_pair_about_once(monkeypatch, rows):
    # Each np.add in verifiers adds one band of pair sums; its output shape
    # is the band's cells. Per degree they must add up to at most
    # N(N + 1)/2 + rows N, for N = a_max + 1, in ceil(N / rows) bands.
    monkeypatch.setattr(verifiers, "_LEMMA_BLOCK_ROWS", rows)
    bands = []

    class RecordingNumpy:
        # numpy, with the shape of each np.add output recorded.
        def __getattr__(self, name):
            return getattr(np, name)

        def add(self, *args, out):
            bands.append(out.shape)
            return np.add(*args, out=out)

    monkeypatch.setattr(verifiers, "np", RecordingNumpy())
    for a_max, d_max in ((40, 3), (3 * rows - 2, 2), (3 * rows - 1, 2), (3 * rows, 2),
                         (600, 1)):
        bands.clear()
        assert check_kappa_lemma(a_max, d_max).ok
        size = a_max + 1
        per_degree = -(-size // min(rows, size))
        assert len(bands) == d_max * per_degree, (a_max, d_max)
        for d in range(d_max):
            cells = sum(r * c for r, c in bands[d * per_degree : (d + 1) * per_degree])
            assert cells <= size * (size + 1) // 2 + min(rows, size) * size, (a_max, d)
            if rows == 1:
                assert cells == size * (size + 1) // 2


def _traced_peak(fn, *args):
    # The smaller tracemalloc peak of two calls: numpy's sliding_window_view
    # alone, a few thousand calls in a bare loop, now and then peaks at
    # ~1 MB under tracemalloc, in one run of several.
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            fn(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


@pytest.mark.parametrize("check, a_max, d_max, A", [(check_herz_tail, 2000, 200, 2000),
                                                    (check_kappa_lemma, 250, 400, 500)])
def test_table_sweeps_hold_a_few_kappa_tables(check, a_max, d_max, A):
    # herz reads one kappa table of A + 1 int64 cells per degree, kappa-lemma
    # two, and neither keeps the others: holding every degree's table peaked
    # at 3.3 MB (herz, ~209 tables) and 1.9 MB (kappa-lemma). kappa-lemma
    # also holds its two row-block buffers, uint16 sums and a bool mask. The
    # allowance of 24 tables covers the few tables held at once and numpy's
    # temporaries; the peaks were 8.8 and 11.4 tables past the buffers.
    blocks = 3 * (a_max + 1) ** 2 if check is check_kappa_lemma else 0
    assert check(a_max, d_max).ok
    assert _traced_peak(check, a_max, d_max) < blocks + 24 * 8 * (A + 1)


def _herz_reference(a_max, d_max, kappa_fn):
    # Reference formulation: the stall side from kappa_fn, one call per case,
    # and the tail side from the validated representation object.
    cases, bad = 0, []
    for d in range(1, d_max + 1):
        for a in range(1, a_max + 1):
            prev, cur = kappa_fn(a - 1, d), kappa_fn(a, d)
            rep = macaulay_rep(a, d)
            tail_hits = rep.numerators[-1] == rep.delta
            if (prev == cur) != tail_hits:
                bad.append({"a": a, "d": d, "ends_at_delta": tail_hits,
                            "lhs": prev, "rhs": cur})
            cases += 1
    return cases, bad


def test_herz_matches_per_case_reference(monkeypatch):
    # With skewed tables the stall side moves and the tail side must not, so
    # counterexamples exist; reading both sides from the table would hide
    # them.
    def skewed(a, d):
        return kappa(a, d) + (a + d) % 2

    for kappa_fn in (kappa, skewed):
        monkeypatch.setattr(verifiers, "_kappa_tables", _tables_of(kappa_fn))
        for a_max, d_max in ((2, 1), (2, 4), (61, 3), (400, 7)):
            expected = _herz_reference(a_max, d_max, kappa_fn)
            outcome = check_herz_tail(a_max, d_max)
            assert (outcome.cases, outcome.counterexamples) == expected, (a_max, d_max)
            assert bool(outcome.counterexamples) == (kappa_fn is skewed), (a_max, d_max)


@pytest.mark.parametrize("a_max, d", [(20_000, d) for d in range(1, 9)] + [(5_000, 25), (5_000, 40)])
def test_unit_tails_match_greedy(a_max, d):
    # The whole-range pass must give the greedy pass's unit tail at every a.
    # a = 1..d is its own unit tail C(d, d) + ... down to degree d - a + 1,
    # and a = d + 1 is the single numerator d + 1, as C(d + 1, d) = d + 1.
    tails = verifiers._unit_tails(a_max, d, {})
    assert tails.dtype == bool and tails.shape == (a_max,)
    expected = [macaulay._greedy(a, d)[1] > 0 for a in range(1, a_max + 1)]
    assert tails.tolist() == expected
    assert tails[: d].all() and not tails[d]


@pytest.mark.parametrize("a_max, d", [(2, 2), (5, 5), (3, 7), (2, 262_144)])
def test_unit_tails_are_all_tails_up_to_the_degree(a_max, d):
    # a <= d is its own unit tail, so no entry makes a pick and no
    # binomial row is built.
    rows = {}
    assert verifiers._unit_tails(a_max, d, rows).tolist() == [True] * a_max
    assert rows == {}


@pytest.mark.parametrize("a, d", [(15, 3), (16, 3), (2, 1), (400, 6)])
def test_herz_tail_side_mutant_is_recorded(monkeypatch, a, d):
    # A tail side flipped at one (a, d), present to absent or back, must give
    # exactly that counterexample, with the table's kappa(a - 1, d) and
    # kappa(a, d); a tail side read from the table instead of the greedy
    # pass would record nothing.
    real = verifiers._unit_tails

    def flipped(a_max, e, rows):
        tails = real(a_max, e, rows)
        if e == d:
            tails[a - 1] = not tails[a - 1]
        return tails

    monkeypatch.setattr(verifiers, "_unit_tails", flipped)
    rep = macaulay_rep(a, d)
    ends = rep.numerators[-1] == rep.delta
    outcome = check_herz_tail(400, 6)
    assert outcome.cases == 6 * 400
    assert outcome.counterexamples == [
        {"a": a, "d": d, "ends_at_delta": not ends, "lhs": kappa(a - 1, d), "rhs": kappa(a, d)}
    ]


def _low_total(h, r, total):
    # Under-reports the bound at some h, so some cases become counterexamples.
    return total - (h + r) % 3


def _no_total(h, r, total):
    # Below every lhs, so every case becomes a counterexample.
    return -1


def _patch_profile_bound(monkeypatch, mutant):
    # check_higher reads its tuple's bound one h at a time through the
    # profile's total on the sampled path, and one block per tuple through
    # _append_block on the box path. mutant(profile, h, total) replaces the
    # bound at h in both; on the box path it sees each block once, with the
    # profile of the tuple that the block completes. The box then fails
    # wherever the mutant is wrong somewhere, and the sampled path decides.
    real_total, real_step = bounds._BoundProfile.total, verifiers._append_block
    path = [(bounds._EMPTY_BOUND, ())]  # the walk's current path: each B and its tuple

    def total(self, h):
        return mutant(self, h, real_total(self, h))

    def step(n, d, row, bound, full):
        while path[-1][0] is not bound:
            path.pop()
        degrees = (d, *path[-1][1])
        profile = bounds._BoundProfile(n, degrees)
        new, new_full = real_step(n, d, row, bound, full)
        for h in range(len(bound), len(new)):
            new[h] = mutant(profile, h, int(new[h]))
        path.append((new, degrees))
        return new, new_full

    monkeypatch.setattr(bounds._BoundProfile, "total", total)
    monkeypatch.setattr(verifiers, "_append_block", step)


def _patch_profile_total(monkeypatch, mutant):
    _patch_profile_bound(monkeypatch, lambda self, h, total: mutant(h, len(self.caps), total))


def _higher_reference(n, degree_tuples, samples, seed, mutant=None):
    # Reference formulation: every case calls kappa r times and the per-call
    # bound once, with the mutant applied to its total.
    cases, bad = 0, []
    rng = random.Random(seed)
    for degrees in degree_tuples:
        caps = [comb(n + d - 1, d) for d in degrees]
        m = degrees[0]
        shape = FreeModuleShape(n=n, degrees=tuple(m - d for d in degrees))
        corner_values = itertools.product(*[(0, c) for c in caps])
        sampled = (tuple(rng.randint(0, c) for c in caps) for _ in range(samples))
        for values in itertools.chain(corner_values, sampled):
            lhs = sum(verifiers.kappa(a, d) for a, d in zip(values, degrees))
            h = sum(values)
            rhs = _module_bound_reference(h, m, shape).total
            if mutant is not None:
                rhs = mutant(h, shape.r, rhs)
            if lhs > rhs:
                bad.append({"values": list(values), "degrees": list(degrees), "n": n,
                            "lhs": lhs, "rhs": rhs})
            cases += 1
    return cases, bad


def test_higher_memos_match_per_case_reference(monkeypatch):
    # The under-reporting bound makes counterexamples, so a kappa memo keyed
    # by a alone or a bound memo shared across tuples changes a recorded side.
    for mutant in (None, _low_total):
        if mutant is not None:
            _patch_profile_total(monkeypatch, mutant)
        for n in (1, 2, 3):
            for d_max, r_max in ((2, 3), (4, 2), (3, 3)):
                tuples = [t for r in range(1, r_max + 1)
                          for t in nonincreasing_tuples(d_max, r)]
                for seed in (0, 5, 11):
                    expected = _higher_reference(n, tuples, 12, seed, mutant)
                    outcome = check_higher(n, d_max, r_max, 12, seed)
                    assert (outcome.cases, outcome.counterexamples) == expected, (
                        n, d_max, r_max, seed)
                    assert bool(outcome.counterexamples) == (mutant is _low_total)


def test_higher_samples_draw_the_randint_stream(monkeypatch):
    # Caps on both sides of every 32-bit word boundary of getrandbits, and
    # c = 0, which still draws one bit, as randint(0, 0) does. With the block
    # size patched down, the draws span several blocks and must still follow
    # one randint loop.
    caps = [0, 1, 2, 3, 2**32 - 1, 2**32, comb(51, 12), 2**64 - 1, 2**64, 3**50]
    for block, samples, sizes in ((verifiers._HIGHER_BLOCK, 10, [10]),
                                  (3, 10, [3, 3, 3, 1]), (5, 10, [5, 5])):
        monkeypatch.setattr(verifiers, "_HIGHER_BLOCK", block)
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            blocks = list(verifiers._sample_blocks(rng.getrandbits, caps, samples))
            assert [len(col) for cols in blocks for col in cols] == [
                size for size in sizes for _ in caps]
            drawn = [t for cols in blocks for t in zip(*cols)]
            assert drawn == [tuple(ref.randint(0, c) for c in caps)
                             for _ in range(samples)], (block, seed)
            assert rng.getstate() == ref.getstate(), (block, seed)


def _decline_box(monkeypatch):
    # check_higher then runs every corner and seeded draw.
    monkeypatch.setattr(verifiers, "_box_fits", lambda *args: False)


# The sweeps pool's check_higher arguments.
_HIGHER_POOL = [(n, d_max, r_max, 100, 0)
                for n in (2, 3) for d_max in (3, 4, 5) for r_max in (2, 4)]


def _higher_json(capsys, args):
    n, d_max, r_max, samples, seed = args
    argv = ["verify", "higher", "--n", n, "--d-max", d_max, "--r-max", r_max,
            "--samples", samples, "--seed", seed, "--format", "json"]
    code = main([str(x) for x in argv])
    return code, capsys.readouterr().out


def test_higher_box_matches_the_sampled_path(capsys, monkeypatch):
    # The box draws nothing and evaluates the bound at no more sums than a
    # tuple has cases. Where it fails, under _low_total or under a bound 1
    # too low at the full corner h = sum N_i alone, the call reruns the
    # sampled path. Either way the outcome and the CLI JSON are the sampled
    # path's.
    small = [(n, d_max, r_max, samples, seed) for n in (1, 2, 3)
             for d_max, r_max in ((2, 3), (4, 2), (3, 3)) for samples in (0, 7, 40)
             for seed in (0, 5)]
    assert all(verifiers._box_fits(*args[:4]) for args in _HIGHER_POOL)
    assert 0 < sum(verifiers._box_fits(*args[:4]) for args in small) < len(small)
    calls = {"draws": 0, "bound": 0}
    real_samples = verifiers._sample_blocks

    def counting_samples(*args):
        calls["draws"] += 1
        return real_samples(*args)

    def counting_total(self, h, total):
        calls["bound"] += 1
        return total

    def low_total(self, h, total):
        return _low_total(h, len(self.caps), total)

    def low_at_the_full_corner(self, h, total):
        return total - (h == self.suffix[1])

    for total in (counting_total, low_total, low_at_the_full_corner):
        monkeypatch.undo()  # each mutant wraps the real bound, not the last mutant
        monkeypatch.setattr(verifiers, "_sample_blocks", counting_samples)
        _patch_profile_bound(monkeypatch, total)
        for args in _HIGHER_POOL + small:
            calls.update(draws=0, bound=0)
            outcome = check_higher(*args)
            if total is counting_total and verifiers._box_fits(*args[:4]):
                assert calls["draws"] == 0 and 0 < calls["bound"] <= outcome.cases, args
            cli = _higher_json(capsys, args)
            with monkeypatch.context() as declined:
                _decline_box(declined)
                sampled = check_higher(*args)
                assert cli == _higher_json(capsys, args), args
            assert (outcome.cases, outcome.counterexamples) == (
                sampled.cases, sampled.counterexamples), args
            assert bool(outcome.counterexamples) == (total is not counting_total), args


@pytest.mark.parametrize("raised", ["top", "odd"])
def test_higher_box_reads_the_lhs_kappa(monkeypatch, raised):
    # The bound never reads kappa(0, d), so raising it raises the left side
    # alone. A box whose G read other kappa values than the cases (say the
    # block-recurrence tables) would certify these boxes and record nothing.
    def mutant(a, d):
        bump = a == 0 and (d == d_max if raised == "top" else d % 2 == 1)
        return kappa(a, d) + bump

    monkeypatch.setattr(verifiers, "kappa", mutant)
    for n in (1, 2, 3):
        for d_max, r_max in ((3, 2), (2, 3)):
            assert verifiers._box_fits(n, d_max, r_max, 30)
            tuples = [t for r in range(1, r_max + 1) for t in nonincreasing_tuples(d_max, r)]
            for seed in (0, 5):
                expected = _higher_reference(n, tuples, 30, seed)
                outcome = check_higher(n, d_max, r_max, 30, seed)
                assert (outcome.cases, outcome.counterexamples) == expected, (n, d_max, seed)
                assert expected[1]


def test_higher_box_sums_match_the_max_plus_reference(monkeypatch):
    # The box certifies a tuple when G <= B, so a G below the true maximum
    # would pass cases that fail. test_bounds' G folds the block-recurrence
    # tables with sliding windows: an independent formulation. The walk
    # must visit every tuple once, in whatever order.
    tables = dict(_kappa_tables(comb(3 + 5 - 1, 5), 5))
    sums = []
    real = verifiers._box_walk

    def recording(n, d_max, r_max, rows):
        for degrees, g, bound in real(n, d_max, r_max, rows):
            sums.append((degrees, g.tolist()))
            yield degrees, g, bound

    monkeypatch.setattr(verifiers, "_box_walk", recording)
    for n, d_max, r_max, samples, seed in _HIGHER_POOL:
        sums.clear()
        assert check_higher(n, d_max, r_max, samples, seed).ok
        tuples = [t for r in range(1, r_max + 1) for t in nonincreasing_tuples(d_max, r)]
        assert sorted(dims for dims, _ in sums) == sorted(tuples)
        for dims, g in sums:
            assert g == _max_plus_bound(n, dims, tables), (n, dims)


def test_higher_box_bounds_match_the_profile_with_no_profile_built(monkeypatch):
    # The box appends one bound block per tuple instead of building its
    # profile; every walked B must still be the profile's total at every h.
    walked, built = [], []
    real_walk, real_init = verifiers._box_walk, bounds._BoundProfile.__init__

    def recording(n, d_max, r_max, rows):
        for degrees, g, bound in real_walk(n, d_max, r_max, rows):
            walked.append((n, degrees, bound.tolist()))
            yield degrees, g, bound

    def counting_init(self, n, dims, *args, **kwargs):
        built.append((n, dims))
        real_init(self, n, dims, *args, **kwargs)

    monkeypatch.setattr(verifiers, "_box_walk", recording)
    monkeypatch.setattr(bounds._BoundProfile, "__init__", counting_init)
    for args in _HIGHER_POOL:
        n, d_max, r_max = args[:3]
        before = len(walked)
        assert check_higher(*args).ok
        tuples = sum(comb(d_max + r - 1, r) for r in range(1, r_max + 1))
        assert len(walked) - before == tuples, args
    assert built == []
    monkeypatch.undo()
    for n, degrees, bound in walked:
        profile = bounds._BoundProfile(n, degrees)
        assert bound == [profile.total(h) for h in range(profile.suffix[1] + 1)], (n, degrees)


def test_higher_box_is_chosen_by_its_two_conditions(monkeypatch):
    # n = 2, d_max = 3: N = 4. (a) r N + 1 <= 2^r + samples is tightest at
    # r = 2: 9 <= 4 + 5. (b) (r N + 1)(N + 1) <= _HIGHER_BLOCK is 45 cells
    # at r = 2.
    assert verifiers._box_fits(2, 3, 2, 5)
    assert not verifiers._box_fits(2, 3, 2, 4)
    assert verifiers._box_fits(2, 3, 1, 3) and not verifiers._box_fits(2, 3, 1, 2)
    monkeypatch.setattr(verifiers, "_HIGHER_BLOCK", 45)
    assert verifiers._box_fits(2, 3, 2, 100)
    monkeypatch.setattr(verifiers, "_HIGHER_BLOCK", 44)
    assert not verifiers._box_fits(2, 3, 2, 100)


@pytest.mark.parametrize("n", [1, 3], ids=["box", "sampled"])
def test_higher_drops_each_degree_memo_after_its_last_tuple(monkeypatch, n):
    # The box walks the tuples grouped by their smallest degree e, ascending,
    # so no tuple after group e holds e: at every tuple, no kappa row may
    # sit below its smallest degree. On the sampled path the same holds at
    # r = r_max for the kappa memo. Keeping every degree's memo to the end
    # of the call took 578 MB max RSS at n = 2, d_max = 32768, r_max = 1 and
    # 254 samples. At n = 3 the box is declined: a tuple of length 1 has
    # N + 1 > 22 sums and 22 cases.
    seen = []
    real = verifiers._degree_tuples
    if n == 1:
        real_walk = verifiers._box_walk

        def recording(n, d_max, r_max, rows):
            for degrees, g, bound in real_walk(n, d_max, r_max, rows):
                seen.append(bool(rows) and all(d >= degrees[-1] for d in rows))
                yield degrees, g, bound

        monkeypatch.setattr(verifiers, "_box_walk", recording)
    else:
        def recording(d_max, r_max, memo):
            for degrees in real(d_max, r_max, memo):
                if len(degrees) == r_max:
                    seen.append(all(d >= degrees[-1] for d in memo))
                yield degrees

        monkeypatch.setattr(verifiers, "_degree_tuples", recording)
    for d_max, r_max in ((300, 1), (6, 3)):
        seen.clear()
        assert verifiers._box_fits(n, d_max, r_max, 20) == (n == 1)
        assert check_higher(n, d_max, r_max, 20, 0).ok
        walked = range(1, r_max + 1) if n == 1 else [r_max]
        assert len(seen) == sum(comb(d_max + r - 1, r) for r in walked) and all(seen)
    tuples = list(real(4, 3, {}))
    assert tuples == [t for r in (1, 2, 3) for t in nonincreasing_tuples(4, r)]


def test_higher_blocks_stay_within_the_block_size(monkeypatch):
    # At r = 14 a tuple has 2^14 corners, and 5000 samples pass one block
    # too; every block must still hold at most _HIGHER_BLOCK cases, and the
    # blocks must cover every case once.
    sizes = []

    def recording(blocks):
        def wrapped(*args):
            for cols in blocks(*args):
                assert len({len(col) for col in cols}) == 1
                sizes.append(len(cols[0]))
                yield cols
        return wrapped

    _decline_box(monkeypatch)
    monkeypatch.setattr(verifiers, "_corner_blocks", recording(verifiers._corner_blocks))
    monkeypatch.setattr(verifiers, "_sample_blocks", recording(verifiers._sample_blocks))
    outcome = check_higher(2, 1, 14, 5000, 3)
    block = verifiers._HIGHER_BLOCK
    assert outcome.ok
    assert outcome.cases == sum(2**r + 5000 for r in range(1, 15)) == sum(sizes)
    assert max(sizes) == block < 2**14
    assert sizes.count(5000 - block) == 14


def test_higher_wide_caps_match_the_randint_reference(monkeypatch):
    # A bound below every lhs records every case, so the counterexamples list
    # every sampled value in order; _low_total records only some of them.
    # n = 40 puts N_i past 2**32 and n = 10**6 past 2**64.
    for mutant in (_low_total, _no_total):
        monkeypatch.undo()  # each mutant wraps the real total, not the last mutant
        _patch_profile_total(monkeypatch, mutant)
        for n, d_max, r_max, top_bits in ((40, 11, 2, 36), (10**6, 4, 3, 76)):
            assert comb(n + d_max - 1, d_max).bit_length() == top_bits
            tuples = [t for r in range(1, r_max + 1) for t in nonincreasing_tuples(d_max, r)]
            for seed in (0, 13):
                expected = _higher_reference(n, tuples, 4, seed, mutant)
                outcome = check_higher(n, d_max, r_max, 4, seed)
                assert (outcome.cases, outcome.counterexamples) == expected, (n, seed)
                if mutant is _no_total:
                    assert len(outcome.counterexamples) == outcome.cases
                else:
                    assert 0 < len(outcome.counterexamples) < outcome.cases


def test_rank2_hoisted_kappa_matches_per_case_reference(monkeypatch):
    # Also with the pair blocks patched to one, two and three rows: every
    # block is one row, or the last block is short, and at (3, 4, 2) the
    # 16 x 7 window is not square.
    def skewed(a, d):
        return kappa(a, d) + (a + d) % 3

    monkeypatch.setattr(verifiers, "kappa", skewed)
    for rows in (verifiers._LEMMA_BLOCK_ROWS, 1, 2, 3):
        monkeypatch.setattr(verifiers, "_LEMMA_BLOCK_ROWS", rows)
        for n, d1, d2 in ((1, 2, 1), (2, 3, 2), (3, 3, 3), (3, 4, 2)):
            expected = []
            n1, n2 = comb(n + d1 - 1, d1), comb(n + d2 - 1, d2)
            for a in range(n1 + 1):
                for b in range(n2 + 1):
                    lhs = skewed(a, d1) + skewed(b, d2)
                    rhs = rank2_bound(a, b, d1, d2, n)
                    if lhs > rhs:
                        expected.append({"a": a, "b": b, "d1": d1, "d2": d2, "n": n,
                                         "lhs": lhs, "rhs": rhs})
            outcome = check_rank2(n, d1, d2)
            assert outcome.cases == (n1 + 1) * (n2 + 1)
            assert outcome.counterexamples == expected and expected, (rows, n, d1, d2)


@pytest.mark.parametrize("bits", [8, 16, 32])
def test_rank2_pair_sums_cross_dtype_limits(monkeypatch, bits):
    # Every kappa value and bound fits in `bits` unsigned bits, but the
    # largest pair sums do not: a dtype chosen for the entries rather than
    # their pair sums wraps and loses counterexamples. The bound depends on
    # a + b alone, as the real one does.
    n, d1, d2 = 3, 5, 3
    half = 2 ** (bits - 1)

    def saturating(a, d):
        return half * min(a, 8) // 8 + (a * a * (d + 1)) % 17

    def near_half(a, b, d1, d2, n):
        return half + (a + b) * 7 % 23

    monkeypatch.setattr(verifiers, "kappa", saturating)
    monkeypatch.setattr(verifiers, "rank2_bound", near_half)
    n1, n2 = comb(n + d1 - 1, d1), comb(n + d2 - 1, d2)
    cells = [(a, b) for a in range(n1 + 1) for b in range(n2 + 1)]
    sums = [saturating(a, d1) + saturating(b, d2) for a, b in cells]
    assert min(sums) < 2 ** bits < max(sums)
    assert max(saturating(a, d) for a in range(n1 + 1) for d in (d1, d2)) < 2 ** bits
    expected = [{"a": a, "b": b, "d1": d1, "d2": d2, "n": n,
                 "lhs": lhs, "rhs": near_half(a, b, d1, d2, n)}
                for (a, b), lhs in zip(cells, sums) if lhs > near_half(a, b, d1, d2, n)]
    outcome = check_rank2(n, d1, d2)
    assert len(expected) > 100
    assert outcome.counterexamples == expected


# The sweeps pool's check_rank2 arguments.
_RANK2_POOL = [(n, d1, d2) for n in (1, 2, 3, 4)
               for d1, d2 in ((3, 1), (3, 3), (4, 2), (4, 4), (5, 3), (5, 5))]


def test_rank2_bound_depends_on_the_sum_alone():
    # check_rank2 evaluates the bound once per a + b, at one split.
    for n, d1, d2 in _RANK2_POOL:
        n1, n2 = comb(n + d1 - 1, d1), comb(n + d2 - 1, d2)
        by_sum = {}
        for a in range(n1 + 1):
            for b in range(n2 + 1):
                assert by_sum.setdefault(a + b, rank2_bound(a, b, d1, d2, n)) == (
                    rank2_bound(a, b, d1, d2, n)), (n, d1, d2, a, b)
        assert len(by_sum) == n1 + n2 + 1


def test_rank2_hoisted_bound_matches_per_cell_reference(monkeypatch):
    # The mutant depends on a + b alone, as the real bound does, and makes
    # counterexamples wherever it drops below an lhs.
    real_bound = verifiers.rank2_bound

    def low_bound(a, b, d1, d2, n):
        return real_bound(a, b, d1, d2, n) - (a + b + d1) % 3

    for bound in (real_bound, low_bound):
        monkeypatch.setattr(verifiers, "rank2_bound", bound)
        for n, d1, d2 in _RANK2_POOL:
            expected = []
            n1, n2 = comb(n + d1 - 1, d1), comb(n + d2 - 1, d2)
            for a in range(n1 + 1):
                for b in range(n2 + 1):
                    lhs = kappa(a, d1) + kappa(b, d2)
                    rhs = bound(a, b, d1, d2, n)
                    if lhs > rhs:
                        expected.append({"a": a, "b": b, "d1": d1, "d2": d2, "n": n,
                                         "lhs": lhs, "rhs": rhs})
            outcome = check_rank2(n, d1, d2)
            assert outcome.cases == (n1 + 1) * (n2 + 1)
            assert outcome.counterexamples == expected, (n, d1, d2)
            assert bool(expected) == (bound is low_bound), (n, d1, d2)


def test_rank2_at_equal_degrees_reads_one_kappa_list(monkeypatch):
    # At d1 == d2 both sides are kappa(., d1): the list is built once and
    # paired with itself; at d1 > d2 each side has its own.
    calls, pairings = [], []
    real_hits = verifiers._pair_hits
    monkeypatch.setattr(verifiers, "kappa", lambda a, d: calls.append(d) or kappa(a, d))
    monkeypatch.setattr(verifiers, "_pair_hits",
                        lambda left, right, sums: pairings.append(right is None)
                        or real_hits(left, right, sums))
    for n, d1, d2 in _RANK2_POOL:
        calls.clear()
        pairings.clear()
        assert check_rank2(n, d1, d2).ok
        n1, n2 = comb(n + d1 - 1, d1), comb(n + d2 - 1, d2)
        assert len(calls) == (n1 + 1 if d1 == d2 else n1 + n2 + 2), (n, d1, d2)
        assert pairings == [d1 == d2], (n, d1, d2)


def test_higher_work_is_bounded_by_cases(monkeypatch):
    # At n = 40, d = 5, N_i is about 1.09M: tabulating kappa over [0, N_i]
    # would cost far more than the cases drawn.
    calls = {"kappa": 0, "bound": 0}
    real_kappa = verifiers.kappa

    def counting_kappa(a, d):
        calls["kappa"] += 1
        return real_kappa(a, d)

    def counting_total(h, r, total):
        calls["bound"] += 1
        return total

    monkeypatch.setattr(verifiers, "kappa", counting_kappa)
    _patch_profile_total(monkeypatch, counting_total)
    tuples = [t for r in (1, 2) for t in nonincreasing_tuples(5, r)]
    outcome = check_higher(40, 5, 2, 5, 2)
    per_case_kappa = sum(len(t) * (2 ** len(t) + 5) for t in tuples)
    assert outcome.ok and outcome.cases == sum(2 ** len(t) + 5 for t in tuples)
    # Corners repeat a_i in {0, N_i} across tuples, so the memo saves calls.
    assert calls["kappa"] < per_case_kappa
    assert 0 < calls["bound"] <= outcome.cases


def test_higher_bisects_only_non_unit_picks(monkeypatch):
    # At n = 2 each cap is d + 1, so almost every value drawn at degree d
    # is at most d: a unit tail whose picks add 0 to kappa. Walking it took
    # ~265 bisections per kappa call at d_max = 1000; the pass now stops
    # where the tail starts.
    calls = {"kappa": 0, "bisect": 0}
    real_kappa, real_bisect = verifiers.kappa, macaulay.bisect_right

    def counting_kappa(a, d):
        calls["kappa"] += 1
        return real_kappa(a, d)

    def counting_bisect(row, x):
        calls["bisect"] += 1
        return real_bisect(row, x)

    monkeypatch.setattr(verifiers, "kappa", counting_kappa)
    monkeypatch.setattr(macaulay, "bisect_right", counting_bisect)
    outcome = check_higher(2, 1000, 1, 100, 0)
    assert outcome.ok and outcome.cases == 1000 * (2 + 100)
    assert outcome.ranges["tuples"] == 1000
    assert calls["kappa"] > 1000
    assert calls["bisect"] < 2 * calls["kappa"]


# Each verify leaf's flags, in the order of its library call's arguments,
# with pairwise distinct values: every outcome records its arguments in its
# ranges, except higher's d_max and r_max, whose swap changes its cases. So
# a leaf that passed two flags in swapped places would print other JSON.
_VERIFY_LEAVES = {
    "kappa-lemma": (check_kappa_lemma, ("--a-max", 30), ("--d-max", 3)),
    "herz": (check_herz_tail, ("--a-max", 25), ("--d-max", 4)),
    "rank2": (check_rank2, ("--n", 2), ("--d1", 3), ("--d2", 1)),
    "higher": (check_higher, ("--n", 3), ("--d-max", 4), ("--r-max", 2),
               ("--samples", 5), ("--seed", 6)),
    "lex-restriction": (check_lex_restriction, ("--n", 3), ("--d", 2)),
    "scaled": (check_scaled_corollary, ("--n-max", 2), ("--r-max", 1), ("--d-max", 3),
               ("--samples", 4), ("--p", 101), ("--trials", 5), ("--seed", 6)),
}


def test_every_verify_leaf_is_its_library_call(capsys):
    leaves = sorted(path for path in _leaf_paths(COMMANDS) if path[0] == "verify")
    assert leaves == sorted(("verify", name) for name in _VERIFY_LEAVES)
    for name, (check, *flags) in _VERIFY_LEAVES.items():
        values = [value for _, value in flags]
        assert len(set(values)) == len(values), name
        argv = ["verify", name, *(str(x) for flag in flags for x in flag), "--format", "json"]
        assert main(argv) == 0, name
        assert capsys.readouterr().out == json.dumps(check(*values).to_json_dict()) + "\n"
    assert check_higher(3, 2, 4, 5, 6).cases != check_higher(3, 4, 2, 5, 6).cases
