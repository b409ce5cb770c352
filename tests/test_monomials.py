"""Monomial enumeration, slices and specialization counts."""
from __future__ import annotations

import functools
import itertools
import json
import random
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenhrt import cli, monomials
from greenhrt.bounds import CapacityError, FreeModuleShape, _dim_s, module_bound
from greenhrt.macaulay import kappa
from greenhrt.monomials import (
    MonomialIdeal,
    MonomialModule,
    _exponent_rows,
    degree_slice,
    lex_module,
    module_from_data,
    module_to_data,
    random_monomial_ideal,
    random_monomial_module,
)


def _divides(g, mono):
    return all(e >= ge for e, ge in zip(mono, g))


def _in_ideal(ideal, mono):
    """Scalar membership reference: some generator divides mono."""
    return any(_divides(g, mono) for g in ideal.gens)


def _minimal_reference(n, gens):
    """The pairwise reference: visit distinct generators by degree and keep
    each one that no generator kept so far divides. Returns the sorted tuple,
    never an ideal, so the constructor under test cannot re-minimise it."""
    minimal = []
    for g in sorted(set(map(tuple, gens)), key=sum):
        if not any(_divides(m, g) for m in minimal):
            minimal.append(g)
    return tuple(sorted(minimal))


@functools.cache
def brute_monomials(n, d):
    """Reference: the exponent vectors of the box 0..d that sum to d, sorted
    lex-decreasing; no stars and bars."""
    box = itertools.product(range(d + 1), repeat=n)
    return tuple(sorted((t for t in box if sum(t) == d), reverse=True))


def brute_module_basis(shape, m):
    """Reference: the monomial basis of F_m as (component, exponents) pairs,
    components numbered 1..r, in decreasing position-over-term order."""
    return [
        (i, mono)
        for i, f in enumerate(shape.degrees, start=1)
        if m >= f
        for mono in brute_monomials(shape.n, m - f)
    ]


def _rows(n, d):
    """The exponent rows of S_d as tuples."""
    return list(map(tuple, _exponent_rows(n, d).tolist()))


def test_enumeration_examples():
    assert _rows(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert _rows(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert _rows(4, 0) == [(0, 0, 0, 0)]


def test_enumeration_matches_brute_force():
    for n in range(1, 6):
        for d in range(7):
            assert _rows(n, d) == list(brute_monomials(n, d)), (n, d)


def test_enumeration_counts_and_order():
    for n in range(1, 9):
        for d in range(9):
            monos = _rows(n, d)
            assert len(monos) == comb(n + d - 1, d)
            assert _dim_s(n, d) == len(monos)
            assert all(sum(m) == d for m in monos)
            # lex-decreasing, no duplicates
            assert all(a > b for a, b in zip(monos, monos[1:]))
        assert _dim_s(n, -1) == 0
    # n = 1 keeps any degree exact
    assert _rows(1, 10**30) == [(10**30,)]


@pytest.mark.parametrize("n, d, ratio", [(8, 10, 2.1), (3, 2000, 2.1), (2**18, 0, 1.1)])
def test_exponent_rows_peak_near_their_size(n, d, ratio):
    tracemalloc.start()
    try:
        rows = _exponent_rows(n, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ratio * rows.nbytes, (peak, rows.nbytes)
    # The rows are unchanged: C(n+d-1, d) distinct non-negative vectors of
    # degree d, strictly lex-decreasing, are exactly S_d's rows in order.
    assert rows.dtype == np.int64 and rows.flags.c_contiguous
    assert rows.shape == (comb(n + d - 1, d), n)
    assert (rows >= 0).all() and (rows.sum(axis=1) == d).all()
    step = rows[:-1] - rows[1:]
    first = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
    assert (first > 0).all()


def test_lex_segment_is_downset():
    for n in (2, 3):
        for d in (1, 2, 3):
            monos = brute_monomials(n, d)
            for k in range(len(monos) + 1):
                segment = set(monos[:k])
                for mono in monos:
                    greater = {m for m in monos if m > mono}
                    if mono in segment:
                        assert greater <= segment


def test_lex_segment_examples():
    assert brute_monomials(3, 2)[:2] == ((2, 0, 0), (1, 1, 0))
    assert len(brute_monomials(2, 3)[:4]) == 4 == comb(4, 3)


def test_lex_module_examples():
    shape = FreeModuleShape(n=2, degrees=(0, 1))
    assert lex_module(shape, 2, 4) == MonomialModule(
        shape=shape,
        components=(
            MonomialIdeal(n=2, gens=((0, 2), (1, 1), (2, 0))),
            MonomialIdeal(n=2, gens=((1, 0),)),
        ),
    )
    assert lex_module(shape, 2, 0) == MonomialModule.zero(shape)
    for k in (-1, 6):
        with pytest.raises(CapacityError, match=rf"^slice size {k} outside \[0, dim F_2 = 5\]$"):
            lex_module(shape, 2, k)
    # m below every generator degree: F_m = 0, so only k = 0 fits.
    high = FreeModuleShape(n=3, degrees=(2, 4))
    assert lex_module(high, 1, 0) == MonomialModule.zero(high)
    with pytest.raises(CapacityError):
        lex_module(high, 1, 1)
    # m between the degrees: all of F_3 lies in the first component.
    assert [ideal.gens for ideal in lex_module(high, 3, 3).components] == [
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)), ()
    ]
    # n = 1 keeps a huge degree exact: Python ints, never int64 or float.
    line = FreeModuleShape(n=1, degrees=(0, 0, 2))
    module = lex_module(line, 10**30, 2)
    assert [ideal.gens for ideal in module.components] == [((10**30,),), ((10**30,),), ()]
    assert type(module.components[0].gens[0][0]) is int
    assert module_to_data(lex_module(line, 10**30, 3))["components"][2] == [[10**30 - 2]]


def test_lex_module_matches_the_reference_basis():
    # Against the brute-force basis: the generators are the first k monomials
    # of F_m, grouped by component, with M_m a top slice of codimension
    # dim F_m - k; membership masks nest as k grows.
    cases = 0
    for n in (1, 2, 3):
        for degrees in [(0,), (0, 1), (1, 1, 3), (0, 2)]:
            shape = FreeModuleShape(n=n, degrees=degrees)
            for m in range(-1, 5):
                basis = brute_module_basis(shape, m)
                assert shape.dim(m) == len(basis)
                masks = []
                for k in range(len(basis) + 1):
                    module = lex_module(shape, m, k)
                    # Each ideal lists its generators ascending.
                    assert all(ideal.gens == tuple(sorted(ideal.gens))
                               for ideal in module.components)
                    gens = [(i, g) for i, ideal in enumerate(module.components, start=1)
                            for g in reversed(ideal.gens)]
                    assert gens == basis[:k], (shape, m, k)
                    sl = degree_slice(module, m)
                    assert sl.is_top and sl.quotient_dim == len(basis) - k, (shape, m, k)
                    masks.append(np.concatenate(sl.member))
                    cases += 1
                for k1, small in enumerate(masks):
                    for big in masks[k1:]:
                        assert not (small & ~big).any(), (shape, m, k1)
    assert cases > 300


def test_ideal_minimality_and_membership():
    ideal = MonomialIdeal(3, [(2, 0, 0), (2, 1, 0), (0, 1, 1), (0, 1, 1)])
    assert ideal.gens == ((0, 1, 1), (2, 0, 0))
    assert _in_ideal(ideal, (2, 2, 0))
    assert _in_ideal(ideal, (0, 1, 1))
    assert not _in_ideal(ideal, (1, 1, 0))
    assert MonomialIdeal(2, []).gens == ()
    # As floats, 2**63 and 2**63 + 1 would divide each other and both drop.
    wide = MonomialIdeal(2, [(2**63 + 1, 0), (2**63, 0), (10**30, 1)])
    assert wide.gens == ((2**63, 0),)
    apart = MonomialIdeal(2, [(2**63 + 1, 0), (2**63, 1)])
    assert apart.gens == ((2**63, 1), (2**63 + 1, 0))
    line = MonomialIdeal(1, [(10**30 + 1,), (10**30,), (10**30,)])
    assert line.gens == ((10**30,),)
    # The exponent array stays out of equality and hashing.
    for gens in ([(2, 0, 0), (0, 1, 1)], [], [(2**63, 0, 0)]):
        a, b = MonomialIdeal(3, gens), MonomialIdeal(3, gens)
        assert a.exps is not b.exps
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # The dtype follows the given set: a dropped wide generator leaves object rows.
    dropped = MonomialIdeal(2, [(1, 0), (2**64, 0)])
    assert dropped.gens == ((1, 0),) and dropped.exps.dtype == object
    # Malformed generators, in int64 range and beyond it; of two, the first
    # in ascending order is named.
    for gens, message in (
        (((1, 2, 3),), r"^generator \(1, 2, 3\) not in 2 variables$"),
        (((0, 1), (5, -1)), r"^generator \(5, -1\) has a negative exponent$"),
        (((2**64, -1),), rf"^generator \({2**64}, -1\) has a negative exponent$"),
        (((1, 2, 3), (0, 5, 0)), r"^generator \(0, 5, 0\) not in 2 variables$"),
        (((5, -1), (3, -2)), r"^generator \(3, -2\) has a negative exponent$"),
    ):
        with pytest.raises(ValueError, match=message):
            MonomialIdeal(n=2, gens=gens)


def _generator_sets():
    """3000 seeded generating sets, n = 1..6, with duplicates, the zero
    vector, empty sets and exponents on both sides of 2**63."""
    rng = random.Random(12)
    for case in range(3000):
        n = case % 6 + 1
        top = rng.choice((1, 3, 6))
        gens = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(0, 12))]
        gens += rng.sample(gens, min(len(gens), rng.randint(0, 3)))
        if rng.random() < 0.1:
            gens.append((0,) * n)
        if rng.random() < 0.2:
            # 2**63 - 2 .. 2**63 + 1 are one float64; alone, nothing small divides them.
            base = rng.choice((2**63 - 2, 10**30))
            wide = [
                tuple(rng.choice((0, rng.randint(0, 2), base + rng.randint(0, 3))) for _ in range(n))
                for _ in range(rng.randint(1, 4))
            ]
            gens = wide if rng.random() < 0.5 else gens + wide
        rng.shuffle(gens)
        yield n, gens


def test_minimal_generators_match_pairwise_reference():
    seen = {"empty": 0, "duplicates": 0, "zero vector": 0, "wide": 0, "redundant": 0}
    for n, gens in _generator_sets():
        ideal = MonomialIdeal(n, gens)
        assert ideal.gens == _minimal_reference(n, gens), (n, gens)
        # Another order, more duplicates and added multiples give the same ideal.
        shuffled = MonomialIdeal(n, gens[::-1] + gens[: len(gens) // 2])
        multiples = [tuple(e + (i == j % n) for i, e in enumerate(g)) for j, g in enumerate(gens)]
        padded = MonomialIdeal(n, gens + multiples + [tuple(2 * e for e in g) for g in gens])
        for other in (shuffled, padded):
            assert other == ideal and hash(other) == hash(ideal), (n, gens)
        seen["empty"] += not gens
        seen["duplicates"] += len(set(gens)) < len(gens)
        seen["zero vector"] += (0,) * n in gens
        seen["wide"] += any(e >= 2**63 for g in ideal.gens for e in g)
        seen["redundant"] += len(ideal.gens) < len(set(gens))
    assert all(seen.values()), seen


def test_divisibility_blocks_straddle_the_cell_count(monkeypatch):
    # Compare blocks of 1, 2, 3, all but one and all rows, each with a cell
    # count one below, at and one above the block, so a block that skips,
    # repeats or shifts a row shows up in the minimal generators or in the
    # slice members.
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(1, 6)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 16))]
        expected = _minimal_reference(n, gens)
        shape = FreeModuleShape(n=n, degrees=(0,))
        m = rng.randint(0, 6 if n < 4 else 4)
        basis = brute_monomials(n, m)
        unique = len(set(gens))
        # The constructor compares against the generators below the top degree,
        # the slice against the minimal ones.
        top = max(map(sum, gens))
        below = sum(sum(g) < top for g in set(gens))
        for rows in {1, 2, 3, max(1, unique - 1), unique}:
            for size in {rows * below * n, rows * unique * n}:
                for cells in (size - 1, size, size + 1):
                    monkeypatch.setattr(monomials, "_DIVISOR_BLOCK_CELLS", cells)
                    ideal = MonomialIdeal(n, gens)
                    assert ideal.gens == expected, (n, gens, cells)
                    module = MonomialModule(shape=shape, components=(ideal,))
                    member = degree_slice(module, m).member[0].tolist()
                    assert member == [_in_ideal(ideal, mono) for mono in basis], (n, gens, m, cells)


def test_hilbert_value_examples():
    shape = FreeModuleShape(n=3, degrees=(0,))
    assert degree_slice(MonomialModule.zero(shape), 2).quotient_dim == 6
    ideal = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0)])
    module = MonomialModule(shape=shape, components=(ideal,))
    assert degree_slice(module, 2).quotient_dim == 4
    unit = MonomialModule(
        shape=shape,
        components=(MonomialIdeal(3, [(0, 0, 0)]),),
    )
    assert degree_slice(unit, 2).quotient_dim == 0


def test_restrict_xn_examples():
    shape = FreeModuleShape(n=2, degrees=(0, 1))
    slice_module = lex_module(shape, 2, 1)
    assert degree_slice(slice_module, 2).xn_free_quotient_dim == 1
    free3 = FreeModuleShape(n=3, degrees=(0,))
    assert degree_slice(MonomialModule.zero(free3), 2).xn_free_quotient_dim == 3
    xn_only = MonomialModule(
        shape=free3,
        components=(MonomialIdeal(3, [(0, 0, 1)]),),
    )
    assert degree_slice(xn_only, 2).xn_free_quotient_dim == degree_slice(
        MonomialModule.zero(free3), 2
    ).xn_free_quotient_dim


def _slice_modules():
    """240 seeded modules, n = 1..4: random, zero, lex top slices and mixes
    of unit and random component ideals. Generator degrees run past m, so
    some components have m < f_i. Then 12 modules whose int64-range
    generators have an int64 row sum that would wrap, beside small ones."""
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 4)
        r = rng.randint(1, 3)
        shape = FreeModuleShape(n=n, degrees=tuple(sorted(rng.randint(0, 3) for _ in range(r))))
        m = rng.randint(0, 4)
        yield random_monomial_module(rng, shape, max_gens=3, max_degree=4), m
        yield MonomialModule.zero(shape), m
        k = rng.randint(0, shape.dim(m))
        yield lex_module(shape, m, k), m
        unit = MonomialIdeal(n=n, gens=((0,) * n,))
        mixed = tuple(
            unit if rng.random() < 0.5 else random_monomial_ideal(rng, n, 3, 4)
            for _ in range(r)
        )
        yield MonomialModule(shape=shape, components=mixed), m
    for wide, small in (((2**62, 2**62), (0, 1)), ((2**63 - 1, 2**63 - 1, 3), (0, 1, 4))):
        n = len(wide)
        shape = FreeModuleShape(n=n, degrees=(0, 1))
        ideals = (MonomialIdeal(n, [wide]), MonomialIdeal(n, [wide, small]))
        assert ideals[0].exps.dtype == object
        for m in range(6):
            yield MonomialModule(shape=shape, components=ideals), m


def test_slice_readers_match_direct_formulations():
    # The references read the module through the brute-force basis and
    # scalar membership, not through the slice's arrays.
    seen = {"top": 0, "not top": 0, "n = 1": 0, "m < f_i": 0, "unit": 0, "wide": 0}
    for module, m in _slice_modules():
        basis = brute_module_basis(module.shape, m)
        inside = [_in_ideal(module.components[i - 1], mono) for i, mono in basis]
        members = [u for u, flag in zip(basis, inside) if flag]
        expected_top = members == basis[: len(members)]
        sl = degree_slice(module, m)
        rows = [
            (i, tuple(row))
            for i, exps in enumerate(sl.exps, start=1)
            for row in exps.tolist()
        ]
        assert rows == basis
        assert [bool(flag) for mask in sl.member for flag in mask] == inside
        assert sl.is_top == expected_top
        assert sl.quotient_dim == len(basis) - len(members)
        assert sl.xn_free_quotient_dim == sum(
            1 for (_, mono), flag in zip(basis, inside) if not flag and mono[-1] == 0
        )
        seen["top" if expected_top else "not top"] += 1
        seen["n = 1"] += module.shape.n == 1
        seen["m < f_i"] += m < module.shape.degrees[-1]
        seen["unit"] += any(ideal.gens == ((0,) * module.shape.n,)
                            for ideal in module.components)
        seen["wide"] += any(ideal.exps.dtype == object for ideal in module.components)
    assert all(seen.values()), seen


def test_slice_arrays_are_read_only():
    shape = FreeModuleShape(n=2, degrees=(0, 1))
    module = lex_module(shape, 2, 2)
    wide = MonomialIdeal(1, [(10**30,)])
    arrays = [ideal.exps for ideal in module.components + (wide,)]
    for sl in (degree_slice(module, 2), degree_slice(module, 0)):
        arrays += sl.exps + sl.member
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_slice_drops_generators_above_the_component_degree():
    # A huge generator divides nothing in a low degree and must not reach
    # the int64 compare; at n = 1 the degree itself may be huge.
    shape = FreeModuleShape(n=2, degrees=(0,))
    big = MonomialModule(
        shape=shape, components=(MonomialIdeal(2, [(10**30, 0), (0, 1)]),)
    )
    assert [mask.tolist() for mask in degree_slice(big, 3).member] == [[False, True, True, True]]
    line = FreeModuleShape(n=1, degrees=(0, 0, 2))
    module = MonomialModule(
        shape=line,
        components=(
            MonomialIdeal(1, [(3,)]),
            MonomialIdeal(1, [(10**30,)]),
            MonomialIdeal(1, []),
        ),
    )
    sl = degree_slice(module, 10**20)
    assert [mask.tolist() for mask in sl.member] == [[True], [False], [False]]
    assert sl.quotient_dim == 2 and sl.xn_free_quotient_dim == 0
    assert degree_slice(module, 1).quotient_dim == 2


def test_lex_segment_restriction_identity_small():
    # Specialized codimension of a lex segment equals kappa of its codimension.
    for n in (2, 3, 4):
        for d in (1, 2, 3, 4):
            monos = brute_monomials(n, d)
            free_count = sum(1 for m in monos if m[-1] == 0)
            for k in range(len(monos) + 1):
                segment = monos[:k]
                specialized = free_count - sum(1 for m in segment if m[-1] == 0)
                assert specialized == kappa(len(monos) - k, d)


def test_lex_slice_restriction_matches_module_bound_small():
    # The equality half of the restriction theorem, on a small shape grid.
    for n in (1, 2, 3):
        for degrees in [(0,), (0, 1), (1, 2), (0, 0, 1)]:
            shape = FreeModuleShape(n=n, degrees=degrees)
            for m in range(4):
                dim = shape.dim(m)
                for k in range(dim + 1):
                    module = lex_module(shape, m, k)
                    assert degree_slice(module, m).xn_free_quotient_dim == module_bound(
                        dim - k, m, shape
                    ).total, (n, degrees, m, k)


def test_module_data_round_trip():
    shape = FreeModuleShape(n=3, degrees=(0, 1))
    module = MonomialModule(
        shape=shape,
        components=(
            MonomialIdeal(3, [(2, 0, 0)]),
            MonomialIdeal(3, [(0, 1, 0), (0, 0, 2)]),
        ),
    )
    data = module_to_data(module)
    assert data == {
        "n": 3,
        "degrees": [0, 1],
        "components": [[[2, 0, 0]], [[0, 0, 2], [0, 1, 0]]],
    }
    assert module_from_data(data) == module


@pytest.mark.parametrize(
    "bad,field",
    [
        ({}, "n"),
        ({"n": 2, "degrees": [0]}, "components"),
        ({"n": 0, "degrees": [0], "components": [[]]}, "n"),
        ({"n": 2, "degrees": "x", "components": [[]]}, "degrees"),
        ({"n": 2, "degrees": [0], "components": [[[1]]]}, "components[0]"),
        ({"n": 2, "degrees": [0, 1], "components": [[]]}, "components"),
        ({"n": True, "degrees": [0], "components": [[[True]]]}, "n"),
        ({"n": 2, "degrees": [False], "components": [[]]}, "degrees"),
        ({"n": 1, "degrees": [0], "components": [[[True]]]}, "components[0]"),
    ],
)
def test_module_data_validation_names_field(bad, field):
    with pytest.raises(ValueError, match=field.replace("[", "\\[").replace("]", "\\]")):
        module_from_data(bad)


def test_module_components_must_fit_the_shape():
    shape = FreeModuleShape(n=2, degrees=(0, 0))
    with pytest.raises(ValueError, match=r"^expected 2 component ideals, got 1$"):
        MonomialModule(shape, (MonomialIdeal(2, ()),))
    with pytest.raises(ValueError, match=r"^all component ideals must share the shape's n$"):
        MonomialModule(shape, (MonomialIdeal(2, ()), MonomialIdeal(3, ())))


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "module description must be a JSON object"),
        ({"n": 2, "degrees": [0], "components": [5]},
         "field 'components[0]' must be a list of exponent vectors"),
    ],
    ids=["not-an-object", "component-not-a-list"],
)
def test_module_file_faults_exit_two_with_their_message(capsys, tmp_path, data, message):
    with pytest.raises(ValueError) as exc:
        module_from_data(data)
    assert str(exc.value) == message
    module_file = tmp_path / "module.json"
    module_file.write_text(json.dumps(data))
    assert cli.main(["oracle", "certify", "--module", str(module_file), "--m", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: module file {module_file}: {message}\n")


def test_exponent_cell_ceiling_is_checked_before_allocating(monkeypatch):
    monkeypatch.setattr(monomials, "_MAX_EXPONENT_CELLS", 18)
    assert _exponent_rows(3, 2).shape == (6, 3)  # C(4, 2) rows of 3 cells: at the ceiling
    shape = FreeModuleShape(n=3, degrees=(0,))
    for build in (lambda: _exponent_rows(3, 3), lambda: lex_module(shape, 3, 1),
                  lambda: degree_slice(MonomialModule.zero(shape), 3)):
        with pytest.raises(ValueError, match="degree 3 in n=3 variables needs more than 18"):
            build()  # C(5, 3) rows of 3 cells
    # C(n+d-1, d) >= 2**min(d, n - 1): past the ceiling without the binomial.
    monkeypatch.setattr(monomials, "_dim_s", lambda *args: pytest.fail(f"_dim_s{args}"))
    for n, d in ((5, 4), (10**6, 10**6), (10**40, 10**40)):
        with pytest.raises(ValueError, match=f"degree {d} in n={n} variables"):
            _exponent_rows(n, d)
    assert module_from_data({"n": 18, "degrees": [0], "components": [[]]}).shape.n == 18
    with pytest.raises(ValueError, match="field 'n' must be at most 18, got 19"):
        module_from_data({"n": 19, "degrees": [0], "components": [[]]})


@pytest.mark.parametrize(
    "argv, n, message",
    [
        (["oracle", "certify", "--m", "0"], 2**40,
         "field 'n' must be at most 67108864, got 1099511627776"),
        (["oracle", "certify", "--m", "0"], 10**40,
         "field 'n' must be at most 67108864, got 1000"),
        (["verify", "lex-restriction", "--n", "30", "--d", "30"], None,
         "degree 30 in n=30 variables needs more than 67108864 exponent cells"),
        (["verify", "lex-restriction", "--n", "1000000", "--d", "1000000"], None,
         "degree 1000000 in n=1000000 variables needs more than 67108864 exponent cells"),
    ],
    ids=["n-2**40", "n-10**40", "lex-restriction", "lex-restriction-huge"],
)
def test_unbounded_slices_exit_two_naming_n(capsys, tmp_path, argv, n, message):
    # These once ended in an 8 TiB MemoryError traceback, in numpy's "Maximum
    # allowed dimension exceeded" and "array is too big", which name no
    # field, and in 40 s of math.comb before numpy's error.
    if n is not None:
        module_file = tmp_path / "module.json"
        module_file.write_text(json.dumps({"n": n, "degrees": [0], "components": [[]]}))
        argv = [*argv, "--module", str(module_file)]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert peak < 1 << 20  # no slice was allocated


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=0, max_value=5),
    data=st.data(),
)
def test_segment_prefix_property(n, d, data):
    dim = comb(n + d - 1, d)
    k = data.draw(st.integers(min_value=0, max_value=dim))
    monos = _rows(n, d)
    segment = monos[:k]
    assert len(segment) == k
    # the k lex-largest monomials, found by sorting rather than by listing order
    assert segment == sorted(monos, reverse=True)[:k]
