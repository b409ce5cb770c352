"""Level-algebra bound sequences and the bundled comparison dataset."""
from __future__ import annotations

import random
from math import comb

import pytest

from greenhrt.cli import main
from greenhrt.level import (
    LevelHilbert,
    TheoremViolation,
    compare_bounds,
    load_level_table,
    parse_level_table,
    reproduce_table,
)


def test_level_validation(capsys):
    with pytest.raises(ValueError):
        LevelHilbert(h=(1,))
    with pytest.raises(ValueError):
        LevelHilbert(h=(1, 0, 1))
    message = "need at least one variable, got n=0"
    with pytest.raises(ValueError, match=f"^{message}$"):
        LevelHilbert(h=(1, 2), n=0)
    assert main(["level", "analyze", "--h", "1,2", "--n", "0"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    lh = LevelHilbert(h=(1, 3, 3, 3, 2))
    assert lh.c == 4 and lh.n == 3


def test_hG_rows():
    assert compare_bounds(LevelHilbert(h=(1, 3, 3, 3, 2))).hG == (1, 2, 3, 2)
    assert compare_bounds(LevelHilbert(h=(1, 3, 6, 8, 5, 2))).hG == (1, 3, 6, 4, 2)
    assert compare_bounds(LevelHilbert(h=(1, 1))).hG == (1,)


def test_hGM_rows():
    assert compare_bounds(LevelHilbert(h=(1, 3, 3, 3, 2))).hGM == (1, 3, 2, 1)
    assert compare_bounds(LevelHilbert(h=(1, 3, 6, 8, 5, 2))).hGM == (1, 3, 5, 5, 2)
    assert compare_bounds(LevelHilbert(h=(1, 1))).hGM == (1,)


def test_win_positions():
    assert sorted(compare_bounds(LevelHilbert(h=(1, 3, 3, 3, 2))).win_positions) == [2]
    assert sorted(compare_bounds(LevelHilbert(h=(1, 3, 6, 8, 5, 2))).win_positions) == [4]
    assert sorted(compare_bounds(LevelHilbert(h=(1, 3, 6, 10, 6, 2))).win_positions) == [4]


def test_proposition_examples():
    cmp = compare_bounds(LevelHilbert(h=(1, 3, 3, 3, 2)))
    check = cmp.proposition_flags[1]
    assert check.i == 1 and check.all_hold
    assert cmp.hGM[1] > cmp.hG[1]

    cmp2 = compare_bounds(LevelHilbert(h=(1, 3, 6, 8, 5, 2)))
    check2 = cmp2.proposition_flags[3]
    assert not check2.plateau and not check2.all_hold
    # the win still happens: the conditions are sufficient, not necessary
    assert cmp2.hGM[3] > cmp2.hG[3]

    check3 = compare_bounds(LevelHilbert(h=(1, 1))).proposition_flags[0]
    assert check3.all_hold


def test_proposition_randomized_sweep():
    rng = random.Random(101)
    for _ in range(4000):
        c = rng.randint(1, 8)
        h = tuple(rng.randint(1, 20) for _ in range(c + 1))
        cmp = compare_bounds(LevelHilbert(h=h))  # raises on violation
        for i in range(c):
            if cmp.proposition_flags[i].all_hold:
                assert cmp.hGM[i] >= cmp.hG[i]


def test_single_block_hGM_reduces_to_kappa():
    # when h_i fits under dim S_{c-i} the braced bound is a plain decrement
    from greenhrt.bounds import braced_bound
    from greenhrt.macaulay import kappa

    for c in (2, 3, 4):
        for i in range(c):
            s = comb((c - i) + 2, c - i)
            for h_i in range(1, s):
                assert braced_bound(h_i, c - i, 3) == kappa(h_i, c - i)


def test_table_loads_and_reproduces():
    rows = load_level_table()
    assert len(rows) == 21
    results = reproduce_table(rows)
    assert all(r.ok for r in results)
    # spot rows quoted directly
    assert rows[1].h == (1, 3, 3, 3, 3)
    assert rows[1].hGM == (1, 3, 2, 1) and rows[1].hG == (1, 2, 3, 3)
    assert rows[17].h == (1, 3, 6, 9, 12, 6, 2)
    assert rows[17].hGM == (1, 3, 5, 6, 6, 2) and rows[17].hG == (1, 3, 6, 9, 5, 2)


def test_table_parser_rejects_malformed():
    with pytest.raises(ValueError, match="4 fields"):
        parse_level_table("2;1,3;1\n")
    with pytest.raises(ValueError, match="bad integer"):
        parse_level_table("2;1,x;1;1\n")
    with pytest.raises(ValueError, match="^line 3: invalid literal for int.*'x'$"):
        parse_level_table("# c\n\nx;1,3;1;1\n")
    # Caught here, not later in reproduce_table where no line is known.
    with pytest.raises(ValueError, match=r"^line 2: .* entries must be >= 1: \(1, 0, 3\)$"):
        parse_level_table("2;1,3,3,3,2;1,3,2,1;1,2,3,2\n2;1,0,3;1,3;1,2\n")
    assert parse_level_table("# comment only\n\n") == []


def test_table_detects_transcription_errors():
    rows = parse_level_table("2;1,3,3,3,2;1,3,2,2;1,2,3,2\n")
    results = reproduce_table(rows)
    assert not results[0].ok


def test_empty_dataset_is_vacuous_pass():
    results = reproduce_table([])
    assert results == [] and all(r.ok for r in results)


def test_conclusion_is_checked_where_the_conditions_hold(monkeypatch):
    # A braced bound equal to its input drives hGM_0 to 0 below hG_0 = 1,
    # at a position where all three conditions hold.
    from greenhrt import level

    monkeypatch.setattr(level, "braced_bound", lambda a, i, n: a)
    with pytest.raises(TheoremViolation, match=r"^conditions hold at i=0 .* hG_i=1 "):
        compare_bounds(LevelHilbert(h=(1, 1)))


def test_theorem_violation_is_distinguishable():
    assert issubclass(TheoremViolation, AssertionError)
