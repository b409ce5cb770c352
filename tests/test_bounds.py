"""Closed-form bound formulas: pivots, boundaries, degenerations."""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenhrt import verifiers
from greenhrt.bounds import (
    BoundBreakdown,
    CapacityError,
    FreeModuleShape,
    _BoundProfile,
    _dim_s,
    braced_bound,
    green_bound,
    module_bound,
    rank2_bound,
    scaled_bound,
)
from greenhrt.macaulay import _kappa_tables, kappa


def nondecreasing_tuples(values, r):
    return itertools.combinations_with_replacement(values, r)


def test_shape_validation():
    with pytest.raises(ValueError):
        FreeModuleShape(n=0, degrees=(0,))
    with pytest.raises(ValueError):
        FreeModuleShape(n=2, degrees=())
    with pytest.raises(ValueError):
        FreeModuleShape(n=2, degrees=(1, 0))
    shape = FreeModuleShape(n=2, degrees=(0, 1))
    assert shape.r == 2
    assert shape.component_degrees(2) == (2, 1)
    assert shape.component_dims(2) == (3, 2)
    assert shape.dim(2) == 5
    assert shape.component_dims(0) == (1, 0)


def test_green_bound_examples():
    assert green_bound(5, 2) == 2
    assert green_bound(4, 2) == 1
    assert green_bound(0, 3) == 0
    assert green_bound(7, 0) == 7  # degree-0 restriction is a bijection
    with pytest.raises(ValueError):
        green_bound(3, -1)
    with pytest.raises(ValueError, match=r"^dimension must be non-negative, got h=-1$"):
        green_bound(-1, 2)


def test_rank2_examples():
    assert rank2_bound(2, 2, 2, 1, 2) == 1
    # empty first summand
    for b0 in range(3):
        assert rank2_bound(0, b0, 3, 1, 2) == kappa(b0, 1)
    # full-space case
    n1, n2 = comb(4, 2), comb(3, 1)
    assert rank2_bound(n1, n2, 2, 1, 3) == kappa(n1, 2) + kappa(n2, 1)


def test_rank2_branch_agreement_at_join():
    for n in (1, 2, 3):
        for d1 in range(1, 5):
            for d2 in range(1, d1 + 1):
                n2 = comb(n + d2 - 1, d2)
                for a in range(min(n2, comb(n + d1 - 1, d1)) + 1):
                    b = n2 - a
                    low = green_bound(a + b, d2)
                    high = green_bound(a + b - n2, d1) + green_bound(n2, d2)
                    assert low == high == rank2_bound(a, b, d1, d2, n)


def test_rank2_precondition_reporting():
    with pytest.raises(ValueError, match="d1 >= d2"):
        rank2_bound(1, 1, 1, 2, 3)
    with pytest.raises(ValueError, match="first summand"):
        rank2_bound(100, 0, 2, 1, 2)
    with pytest.raises(ValueError, match="second summand"):
        rank2_bound(0, 100, 2, 1, 2)
    with pytest.raises(ValueError, match=r"^degrees must be non-negative, got d2=-1$"):
        rank2_bound(0, 0, 1, -1, 2)
    with pytest.raises(ValueError, match=r"^need at least one variable, got n=0$"):
        rank2_bound(0, 0, 1, 1, 0)


def test_module_bound_frozen_example():
    shape = FreeModuleShape(n=2, degrees=(0, 1))
    bb = module_bound(4, 2, shape)
    assert bb.total == 1
    assert bb.j == 1 and bb.head == 2
    assert bb.head_term == 0 and bb.tail_terms == (1,)
    assert bb.capacities == (3, 2) and bb.dims == (2, 1)


def test_module_bound_extremes():
    shape = FreeModuleShape(n=3, degrees=(0, 1, 1))
    full = shape.dim(3)
    bb = module_bound(full, 3, shape)
    assert bb.total == sum(
        green_bound(c, d) for c, d in zip(bb.capacities, bb.dims)
    )
    assert module_bound(0, 3, shape).total == 0
    with pytest.raises(CapacityError):
        module_bound(full + 1, 3, shape)
    with pytest.raises(ValueError):
        module_bound(-1, 3, shape)
    # Capacities (10, 6, 6): h = 5 <= N_3 admits pivot 3 alone.
    for pivot in (2, 4):
        with pytest.raises(ValueError, match=rf"^pivot {pivot} not admissible for h=5$"):
            module_bound(5, 3, shape, pivot=pivot)


def test_module_bound_rank_one_degenerates_to_green():
    for n in range(1, 5):
        shape = FreeModuleShape(n=n, degrees=(0,))
        for m in range(7):
            for h in range(comb(n + m - 1, m) + 1):
                assert module_bound(h, m, shape).total == green_bound(h, m)


def test_boundary_pivot_consistency():
    # Where h lands exactly on a capacity boundary, both admissible pivots
    # must give the same total.
    for n in (1, 2, 3):
        for r in (2, 3, 4):
            for degrees in nondecreasing_tuples((0, 1, 2), r):
                shape = FreeModuleShape(n=n, degrees=degrees)
                for m in range(6):
                    caps = shape.component_dims(m)
                    for j in range(1, r):
                        h = sum(caps[j:])
                        at_j = module_bound(h, m, shape, pivot=j)
                        at_next = module_bound(h, m, shape, pivot=j + 1)
                        assert at_j.total == at_next.total, (n, degrees, m, j)


def test_equal_degree_shapes_match_braced_bound():
    for n in (1, 2, 3):
        for r in (1, 2, 3, 4):
            for f in (0, 1, 2):
                shape = FreeModuleShape(n=n, degrees=(f,) * r)
                for m in range(f + 1, 6):
                    for h in range(shape.dim(m) + 1):
                        assert (
                            module_bound(h, m, shape).total
                            == braced_bound(h, m - f, n)
                        ), (n, r, f, m, h)


def test_module_bound_monotone_in_h():
    for n in (1, 2, 3):
        for degrees in [(0,), (0, 0), (0, 1), (0, 1, 2), (1, 1, 2)]:
            shape = FreeModuleShape(n=n, degrees=degrees)
            for m in range(6):
                totals = [
                    module_bound(h, m, shape).total for h in range(shape.dim(m) + 1)
                ]
                assert all(x <= y for x, y in zip(totals, totals[1:]))


def _module_bound_reference(h, m, shape, pivot=None):
    # The per-call formulation: degrees, capacities, suffix sums and every
    # tail term rebuilt from the shape on each call.
    if h < 0:
        raise ValueError(f"dimension must be non-negative, got h={h}")
    dims = shape.component_degrees(m)
    caps = shape.component_dims(m)
    r = shape.r
    suffix = [0] * (r + 2)
    for i in range(r, 0, -1):
        suffix[i] = suffix[i + 1] + caps[i - 1]
    if h > suffix[1]:
        raise CapacityError(f"h={h} exceeds dim F_{m} = {suffix[1]}")
    if pivot is None:
        j = 1
        for jj in range(1, r + 1):
            if h <= suffix[jj]:
                j = jj
    else:
        j = pivot
        if not (1 <= j <= r and suffix[j + 1] <= h <= suffix[j]):
            raise ValueError(f"pivot {j} not admissible for h={h}")
    head = h - suffix[j + 1]
    head_term = green_bound(head, dims[j - 1]) if head else 0
    tail_terms = tuple(green_bound(v, d) if v else 0 for v, d in zip(caps[j:], dims[j:]))
    return BoundBreakdown(
        j=j,
        head=head,
        head_term=head_term,
        tail_terms=tail_terms,
        total=head_term + sum(tail_terms),
        dims=dims,
        capacities=caps,
    )


def _criterion_9_shapes():
    # Every shape criterion 9 evaluates: mixed degrees, equal degrees and
    # rank one.
    for n in (1, 2, 3):
        for r in (2, 3, 4):
            for degrees in nondecreasing_tuples((0, 1, 2), r):
                yield FreeModuleShape(n=n, degrees=degrees)
        for r in (1, 2, 3, 4):
            for f in (0, 1, 2):
                yield FreeModuleShape(n=n, degrees=(f,) * r)
    for n in (1, 2, 3, 4):
        yield FreeModuleShape(n=n, degrees=(0,))


def _raised(fn, *args, **kwargs):
    with pytest.raises(ValueError) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


def test_profile_matches_the_per_call_reference():
    # m from -1 puts m below some generator degrees: those capacities are 0,
    # suffix sums repeat and pivots tie (at m = -1 every h = 0 takes pivot r).
    # The memo-lookup profile reads kappa through one memo per degree, as
    # check_higher passes it; its totals and breakdowns must be the same.
    memo = verifiers._Memo(lambda d: verifiers._Memo(lambda a: green_bound(a, d)))
    boundaries = 0
    for shape in _criterion_9_shapes():
        for m in range(-1, 7):
            dims = shape.component_degrees(m)
            profiles = (_BoundProfile(shape.n, dims),
                        _BoundProfile(shape.n, dims, kappa=lambda a, d: memo[d][a]))
            dim = shape.dim(m)
            for h in range(dim + 1):
                want = _module_bound_reference(h, m, shape)
                for profile in profiles:
                    j = profile.pivot(h)
                    assert profile.total(h) == want.total, (shape, m, h)
                    assert (j, *profile.head(h, j), profile.terms[j:]) == (
                        want.j, want.head, want.head_term, want.tail_terms), (shape, m, h)
                if want.head:
                    assert want.head in memo[dims[want.j - 1]], (shape, m, h)
                assert module_bound(h, m, shape) == want, (shape, m, h)
            # Each suffix boundary h = N_j + ... + N_r, with every pivot
            # forced: the admissible ones give the reference's breakdown,
            # the others its error.
            caps = shape.component_dims(m)
            for j in range(1, shape.r + 2):
                h = sum(caps[j - 1:])
                for pivot in range(0, shape.r + 2):
                    try:
                        want = _module_bound_reference(h, m, shape, pivot=pivot)
                    except ValueError:
                        assert _raised(module_bound, h, m, shape, pivot=pivot) == _raised(
                            _module_bound_reference, h, m, shape, pivot=pivot
                        )
                    else:
                        assert module_bound(h, m, shape, pivot=pivot) == want
                        boundaries += 1
            for h in (-1, dim + 1):
                assert _raised(module_bound, h, m, shape) == _raised(
                    _module_bound_reference, h, m, shape
                )
    assert module_bound(0, -1, FreeModuleShape(n=2, degrees=(0, 1, 1))).j == 3
    assert boundaries > 0


def test_full_terms_are_closed_form():
    # N = C(n + d - 1, d) is its own base-d representation, so its term is
    # C(n + d - 2, d) at d >= 1 and N itself at d = 0; below degree 0 the
    # component is empty. The profile builds them with no kappa call.
    for n in range(1, 9):
        dims = tuple(range(39, -3, -1))
        profile = _BoundProfile(n, dims, kappa=lambda a, d: pytest.fail(f"kappa({a}, {d})"))
        want = [green_bound(_dim_s(n, d), d) if d >= 0 else 0 for d in dims]
        assert list(profile.terms) == want, n
        assert [_dim_s(n - 1, d) for d in dims if d >= 1] == want[:-3], n


def test_rank2_is_shifted_module_bound():
    for n in (1, 2, 3):
        for d1 in range(1, 5):
            for d2 in range(0, d1 + 1):
                n1, n2 = (comb(n + d - 1, d) for d in (d1, d2))
                for shift in (0, 2):
                    m = d1 + shift
                    shape = FreeModuleShape(n=n, degrees=(m - d1, m - d2))
                    for a in range(0, n1 + 1, max(1, n1 // 3)):
                        for b in range(0, n2 + 1, max(1, n2 // 3)):
                            assert (
                                rank2_bound(a, b, d1, d2, n)
                                == module_bound(a + b, m, shape).total
                            )


# Far below any kappa sum: a pad of -1 would leak -1 + kappa(k) into the max.
_NO_SPLIT = -(1 << 40)


def _max_plus_bound(n, dims, tables):
    # G(h), the largest sum kappa(a_i, d_i) over the splits 0 <= a_i <= N_i
    # with sum a_i = h: the max-plus convolution of the kappa rows. Row h of
    # the window view over the padded G, reversed, holds G(h - k) at k. Below
    # degree 1 a row is green_bound's: h itself at d_i = 0 (N_i = 1), and
    # the single entry 0 at d_i < 0 (N_i = 0).
    rows = [tables[d][: _dim_s(n, d) + 1] if d >= 1 else np.arange(_dim_s(n, d) + 1)
            for d in dims]
    g = rows[0]
    for row in rows[1:]:
        pad = np.full(len(row) - 1, _NO_SPLIT)
        windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([pad, g, pad]), len(row))
        g = (windows[:, ::-1] + row).max(axis=1)
    return g.tolist()


def test_bounds_are_the_max_plus_convolution_of_kappa_rows():
    # The bound is the kappa sum of one split (the fill order), so G >= bound;
    # G <= bound is the inequality the paper proves. So both sides must agree
    # at every h: this pins attainment, which verify higher and verify rank2
    # (lhs <= rhs only) cannot. G reads only the kappa tables, not the pivots.
    # The ranges are the sweeps pool's (250 degree tuples, 24 rank2 triples)
    # and the shapes of the acceptance battery's criterion 9 at m <= 6, whose
    # component degrees m - f_i reach 0 and below.
    tables = dict(_kappa_tables(_dim_s(4, 6), 6))
    cases = [(n, dims) for n in (2, 3)
             for r in range(1, 5) for dims in verifiers.nonincreasing_tuples(5, r)]
    shapes = [FreeModuleShape(n, degrees) for n in (1, 2, 3) for r in (2, 3, 4)
              for degrees in itertools.combinations_with_replacement((0, 1, 2), r)]
    shapes += [FreeModuleShape(n, (f,) * r)
               for n in (1, 2, 3) for r in (1, 2, 3, 4) for f in (0, 1, 2)]
    shapes += [FreeModuleShape(n, (0,)) for n in (1, 2, 3, 4)]
    cases += [(shape.n, shape.component_degrees(m)) for shape in shapes for m in range(7)]
    for n, dims in cases:
        profile = _BoundProfile(n, dims)
        g = _max_plus_bound(n, dims, tables)
        assert g == [profile.total(h) for h in range(profile.suffix[1] + 1)], (n, dims)
    for n in (1, 2, 3, 4):
        for d1, d2 in ((3, 1), (3, 3), (4, 2), (4, 4), (5, 3), (5, 5)):
            g = _max_plus_bound(n, (d1, d2), tables)
            for a in range(_dim_s(n, d1) + 1):
                for b in range(_dim_s(n, d2) + 1):
                    assert rank2_bound(a, b, d1, d2, n) == g[a + b], (n, d1, d2, a, b)


def test_braced_examples():
    assert braced_bound(3, 1, 3) == 2
    assert braced_bound(3, 3, 3) == 0
    assert braced_bound(0, 4, 2) == 0
    with pytest.raises(ValueError):
        braced_bound(3, 0, 3)
    with pytest.raises(ValueError, match=r"^dimension must be non-negative, got -1$"):
        braced_bound(-1, 1, 2)
    with pytest.raises(ValueError, match=r"^need at least one variable, got n=0$"):
        braced_bound(0, 1, 0)


def test_scaled_examples():
    assert scaled_bound(6, 3, 2) == Fraction(3)
    assert scaled_bound(0, 4, 3) == 0
    assert scaled_bound(7, 5, 0) == 7  # factor is exactly 1 at d = 0
    assert scaled_bound(5, 3, 3) == Fraction(2, 5) * 5
    with pytest.raises(ValueError, match="^d must be at least 1 when n is 1$"):
        scaled_bound(1, 1, 0)
    with pytest.raises(ValueError, match=r"^need at least one variable, got n=0$"):
        scaled_bound(0, 0, 1)
    with pytest.raises(ValueError, match=r"^degree must be non-negative, got d=-1$"):
        scaled_bound(0, 2, -1)
    with pytest.raises(ValueError, match=r"^dimension must be non-negative, got h=-1$"):
        scaled_bound(-1, 2, 1)


def test_scaling_identity_on_full_spaces():
    # The algebraic identity behind the linear bound: on a full component
    # the decremented dimension is exactly the (n-1)/(n+d-1) fraction.
    for n in range(2, 9):
        for d in range(1, 9):
            full = comb(n + d - 1, d)
            assert kappa(full, d) * (n + d - 1) == (n - 1) * full


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
def test_module_bound_head_invariants(n, m, data):
    r = data.draw(st.integers(min_value=1, max_value=4))
    degrees = tuple(sorted(data.draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=r, max_size=r)
    )))
    shape = FreeModuleShape(n=n, degrees=degrees)
    h = data.draw(st.integers(min_value=0, max_value=shape.dim(m)))
    bb = module_bound(h, m, shape)
    caps = shape.component_dims(m)
    assert sum(caps[bb.j:]) <= h <= sum(caps[bb.j - 1:])
    assert bb.head == h - sum(caps[bb.j:])
    assert bb.total == bb.head_term + sum(bb.tail_terms)
