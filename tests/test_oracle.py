"""Prime-field restriction oracle: exactness, determinism, cross-checks."""
from __future__ import annotations

import json
import random
from math import comb

import numpy as np
import pytest
from test_monomials import brute_module_basis

from greenhrt import oracle
from greenhrt.bounds import FreeModuleShape, module_bound
from greenhrt.cli import main
from greenhrt.monomials import (
    MonomialIdeal,
    MonomialModule,
    degree_slice,
    lex_module,
    random_monomial_module,
)
from greenhrt.oracle import (
    _evaluate,
    _restriction_plan,
    _trial_coefficients,
    generic_restriction_dim,
    is_prime,
    rank_mod_p,
)


def test_plan_cells_are_checked_before_allocating(monkeypatch):
    # n = 3, (x_3), m = 2: the block is x_1 x_3, x_2 x_3, x_3^2 against
    # x_1^2, x_1 x_2, x_2^2, a 3 x 3 mask with 7 entries of 2 exponents.
    module = MonomialModule(shape=FreeModuleShape(n=3, degrees=(0,)),
                            components=(MonomialIdeal(3, [(0, 0, 1)]),))
    sl = degree_slice(module, 2)
    assert [size for *_, size in _restriction_plan(sl, 32003).blocks] == [(3, 3)]
    monkeypatch.setattr(oracle, "_MAX_EXPONENT_CELLS", 14)
    assert _restriction_plan(sl, 32003).exps.shape == (7, 2)
    monkeypatch.setattr(oracle, "_MAX_EXPONENT_CELLS", 13)
    with pytest.raises(ValueError, match="^7 restriction entries of 2 exponents, more than 13"):
        _restriction_plan(sl, 32003)
    monkeypatch.setattr(oracle, "_MAX_EXPONENT_CELLS", 8)
    with pytest.raises(ValueError) as exc:
        generic_restriction_dim(module, 2, p=32003)
    assert str(exc.value) == ("m and p too large: m=2, p=32003 give a 3 x 3 restriction block,"
                              " more than 8 cells")


def test_large_prime_plan_is_refused(capsys, tmp_path):
    # A prime above 2 dim F_m = 4,006,002 admits m = 2000, whose block would
    # be a 2,001,000 x 2001 mask: the command ends in one error line.
    module_file = tmp_path / "x3.json"
    module_file.write_text(json.dumps({"n": 3, "degrees": [0], "components": [[[0, 0, 1]]]}))
    argv = ["oracle", "certify", "--module", str(module_file), "--m", "2000", "--p", "4006007"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: m and p too large: m=2000, p=4006007 give a"
                                   " 2001000 x 2001 restriction block, more than 67108864 cells\n")


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(32003)
    assert not is_prime(1) and not is_prime(0) and not is_prime(32001)


def test_modulus_is_tested_once_per_certify(monkeypatch):
    # The report checks its modulus on entry and ranks every trial's blocks
    # through rank_mod_p; trial division of p must run only once.
    divisions, blocks = [], []
    original_is_prime, original_rank = oracle.is_prime, oracle.rank_mod_p

    def counting_is_prime(p):
        divisions.append(p)
        return original_is_prime(p)

    def counting_rank(block, p):
        blocks.append(block.shape)
        return original_rank(block, p)

    oracle._check_modulus.cache_clear()
    monkeypatch.setattr(oracle, "is_prime", counting_is_prime)
    monkeypatch.setattr(oracle, "rank_mod_p", counting_rank)
    shape = FreeModuleShape(n=3, degrees=(0, 0, 1, 1))
    module = MonomialModule(
        shape=shape,
        components=tuple(MonomialIdeal(3, [(0, 0, 1)]) for _ in range(4)),
    )
    report = generic_restriction_dim(module, 2, p=2147483647, trials=3, seed=1)
    assert report.certified
    assert len(blocks) >= 3 and all(rows > 0 for rows, _ in blocks)
    assert divisions == [2147483647]


def test_matrix_rank_known_cases():
    p = 101
    assert rank_mod_p(np.eye(4, dtype=np.int64), p) == 4
    dependent = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    assert rank_mod_p(dependent, p) == 2
    # rows collapsing only mod p, passed reduced as the oracle passes them
    modp = np.array([[1, 1], [1 + p, 1 - p]], dtype=np.int64) % p
    before = modp.copy()
    assert rank_mod_p(modp, p) == 1
    assert np.array_equal(modp, before)  # the argument is not modified


def _reference_rank(rows: list[list[int]], p: int) -> int:
    """Gauss-Jordan over F_p in Python ints, walking the columns as given."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col] % p:
                factor = row[col]
                rows[i] = [(a - factor * b) % p for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


def test_rank_matches_a_pure_python_reference():
    # Independent of numpy: blocks are drawn and ranked in Python ints.
    rng = random.Random(19)
    seen = {"wide": 0, "tall": 0, "square": 0, "vector": 0, "deficient": 0, "zero lines": 0}
    for case in range(600):
        p = (2, 3, 32003, 2**31 - 1)[case % 4]
        kind = case // 4 % 4
        if kind == 0:  # 1 x k or k x 1
            size = rng.randint(1, 40)
            nrows, ncols = rng.choice(((1, size), (size, 1)))
        else:  # wide, tall or square
            short, long = sorted((rng.randint(1, 30), rng.randint(1, 30)))
            nrows, ncols = rng.choice(((short, long), (long, short), (short, short)))
        if kind == 1:  # a product of two thin factors, so rank <= k
            k = rng.randint(1, min(nrows, ncols))
            left = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
            right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
            rows = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                    for row in left]
        else:  # sparse or dense entries
            density = rng.choice((0.1, 0.5, 1.0))
            rows = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(ncols)]
                    for _ in range(nrows)]
        if kind == 3:  # all-zero rows and columns
            for i in rng.sample(range(nrows), rng.randint(0, nrows)):
                rows[i] = [0] * ncols
            for j in rng.sample(range(ncols), rng.randint(0, ncols)):
                for row in rows:
                    row[j] = 0
        block = np.array(rows, dtype=np.int64)
        before = block.copy()
        expected = _reference_rank(rows, p)
        assert rank_mod_p(block, p) == expected, (case, p, rows)
        assert np.array_equal(block, before)  # the argument is not modified
        shape = "wide" if nrows < ncols else "tall" if nrows > ncols else "square"
        seen[shape] += 1
        seen["vector"] += min(nrows, ncols) == 1
        seen["deficient"] += 0 < expected < min(nrows, ncols)
        seen["zero lines"] += kind == 3 and not all(map(any, rows))
    assert min(seen.values()) >= 30, seen


def test_restriction_checks_the_modulus_without_a_block_to_rank():
    # The zero module has no member to rank, so no block would test p.
    module = MonomialModule.zero(FreeModuleShape(n=2, degrees=(0,)))
    for p, message in ((10, "is not prime"), (2**31, "too large"), (2**40, "too large")):
        with pytest.raises(ValueError, match=f"modulus {p} {message}"):
            generic_restriction_dim(module, 2, p=p)
    assert generic_restriction_dim(module, 2).generic_dim == 1


def test_free_module_restriction_dimension():
    shape = FreeModuleShape(n=3, degrees=(0,))
    report = generic_restriction_dim(MonomialModule.zero(shape), 2, seed=5)
    assert report.generic_dim == 3  # two variables remain in degree 2
    assert report.holds and report.equality


def test_single_square_generator_matches_green():
    shape = FreeModuleShape(n=3, degrees=(0,))
    module = MonomialModule(
        shape=shape, components=(MonomialIdeal(3, [(2, 0, 0)]),)
    )
    report = generic_restriction_dim(module, 2, seed=1)
    assert report.generic_dim == 2
    assert report.bound == 2
    assert report.equality


def test_lex_slice_example_hits_module_bound():
    shape = FreeModuleShape(n=2, degrees=(0, 1))
    module = lex_module(shape, 2, 1)
    report = generic_restriction_dim(module, 2, seed=3)
    assert report.generic_dim == 1
    assert report.bound == module_bound(4, 2, shape).total == 1


def test_determinism_and_trial_prefix():
    shape = FreeModuleShape(n=3, degrees=(0, 1))
    rng = random.Random(11)
    module = random_monomial_module(rng, shape, max_gens=3, max_degree=3)
    a = generic_restriction_dim(module, 3, trials=3, seed=42)
    b = generic_restriction_dim(module, 3, trials=3, seed=42)
    assert a == b
    more = generic_restriction_dim(module, 3, trials=6, seed=42)
    assert more.dims[:3] == a.dims
    assert more.generic_dim <= a.generic_dim


def test_xn_form_reproduces_combinatorial_count():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        degrees = tuple(sorted(rng.randint(0, 2) for _ in range(r)))
        shape = FreeModuleShape(n=n, degrees=degrees)
        module = random_monomial_module(rng, shape, max_gens=3, max_degree=4)
        m = rng.randint(0, 4)
        coeffs = (0,) * (n - 1) + (1,)
        plan = _restriction_plan(degree_slice(module, m), 32003)
        assert _evaluate(plan, 32003, coeffs) == degree_slice(module, m).xn_free_quotient_dim


def _divides(g, mono):
    return all(e >= ge for e, ge in zip(mono, g))


def _dense_quotient_dim(module, m, p, coeffs):
    """Reference: dim F_m minus the rank over F_p of M_m stacked on l * F_{m-1},
    in the brute-force monomial basis of F_m, read from the module itself
    rather than from its degree slice."""
    basis = brute_module_basis(module.shape, m)
    col = {u: idx for idx, u in enumerate(basis)}
    ncols = len(basis)
    if ncols == 0:
        return 0
    rows = []
    for idx, (i, mono) in enumerate(basis):
        if any(_divides(g, mono) for g in module.components[i - 1].gens):
            row = np.zeros(ncols, dtype=np.int64)
            row[idx] = 1
            rows.append(row)
    for i, mono in brute_module_basis(module.shape, m - 1):
        row = np.zeros(ncols, dtype=np.int64)
        for var, c in enumerate(coeffs):
            if c == 0:
                continue
            bumped = list(mono)
            bumped[var] += 1
            row[col[(i, tuple(bumped))]] = c % p
        rows.append(row)
    if not rows:
        return ncols
    return ncols - rank_mod_p(np.array(rows, dtype=np.int64), p)


def test_substitution_matches_dense_elimination():
    # The per-component substitution and the dense elimination compute the
    # same dimension for every form with c_n != 0 mod p, not just for
    # generic ones.
    rng = random.Random(31)
    differs_from_xn = 0
    for case in range(320):
        n = rng.randint(1, 4)
        r = rng.randint(1, 3)
        shape = FreeModuleShape(n=n, degrees=tuple(sorted(rng.randint(0, 2) for _ in range(r))))
        m = rng.randint(0, 6)
        if case % 4 == 0:
            module = MonomialModule.zero(shape)
        elif case % 4 == 1:
            k = rng.randint(0, shape.dim(m))
            module = lex_module(shape, m, k)
        else:
            module = random_monomial_module(rng, shape, max_gens=4, max_degree=m)
        p = (7, 101, 32003)[case % 3]
        plan = _restriction_plan(degree_slice(module, m), p)
        head = [rng.randrange(p) for _ in range(n - 1)]
        last = rng.randrange(1, p)
        forms = [
            _trial_coefficients(n, p, case, 0),
            _trial_coefficients(n, p, case, 1),
            tuple(rng.choice((0, rng.randrange(p), p * rng.randint(1, 3)))
                  for _ in range(n - 1)) + (last,),
            tuple(head) + (last + p,),  # c_n reduced mod p only
            (p,) * (n - 1) + (last,),  # only x_n survives mod p
            tuple(-c for c in head) + (-last,),
            (0,) * (n - 1) + (1,),
        ]
        xn_free = degree_slice(module, m).xn_free_quotient_dim
        for coeffs in forms:
            expected = _dense_quotient_dim(module, m, p, coeffs)
            assert _evaluate(plan, p, coeffs) == expected, (module, m, p, coeffs)
            differs_from_xn += expected != xn_free
    # Substituting x_n -> 0 instead of L would miss these.
    assert differs_from_xn > 100


def test_substitution_matches_dense_elimination_at_high_powers():
    # The cases above stop at m = 6, so no block entry there comes from L^e
    # with e >= 7. These reach L^e up to e = 200 (n = 2) and n = 6, as the
    # certify pool does, and check the closed-form powers against the dense
    # elimination; m - min(f) < p keeps every factorial up to top a unit
    # mod p.
    rng = random.Random(47)
    high = 0
    for n, m_max in ((2, 200), (3, 20), (4, 10), (5, 7), (6, 7)):
        for case in range(32):
            degrees = tuple(sorted(rng.randint(0, 2) for _ in range(rng.randint(1, 2))))
            shape = FreeModuleShape(n=n, degrees=degrees)
            m = rng.randint(7, m_max)
            module = random_monomial_module(rng, shape, max_gens=4, max_degree=m)
            p = 101 if case % 2 and m - shape.degrees[0] < 101 else 32003
            plan = _restriction_plan(degree_slice(module, m), p)
            high += bool(plan.blocks) and plan.exps.sum(axis=1).max(initial=0) >= 7
            for t in range(2):
                coeffs = _trial_coefficients(n, p, case, t)
                expected = _dense_quotient_dim(module, m, p, coeffs)
                assert _evaluate(plan, p, coeffs) == expected, (module, m, p, coeffs)
    assert high >= 45  # plans whose blocks read some L^e with e >= 7


def test_two_variable_restriction_at_the_largest_pool_power():
    # The shape of the largest certify op: n = 2, powers of L up to ~2200.
    # S'_d = k x_1^d, so a component adds 0 when x_1^d is in I_d, 0 when
    # lambda = -c_1 / c_2 is nonzero and I_d is not 0, and 1 otherwise.
    p, m = 32003, 2213
    shape = FreeModuleShape(n=2, degrees=(0, 0, 1, 2))
    gens = ([(5, 0)], [(0, 1100)], [], [(1, 1000), (3, 900)])
    module = MonomialModule(
        shape=shape, components=tuple(MonomialIdeal(2, g) for g in gens)
    )
    plan = _restriction_plan(degree_slice(module, m), p)
    assert plan.blocks and plan.exps.sum(axis=1).max(initial=0) >= 1000
    for coeffs in ((0, 1), (p, 7), (1, 1), (5, 31999), (-3, 2)):
        zero_lambda = coeffs[0] % p == 0
        expected = 0
        for f, g in zip(shape.degrees, gens):
            d = m - f
            if not any(b == 0 and a <= d for a, b in g):  # x_1^d is not in I_d
                expected += zero_lambda or not any(a + b <= d for a, b in g)
        assert _evaluate(plan, p, coeffs) == expected, coeffs


def _strongly_stable_ideal(rng, n, max_gens, max_degree):
    """A random ideal in which x_j * u in I implies x_i * u in I for i < j.

    It is generated by the closure of random monomials under the moves
    x_j -> x_(j-1), which compose to every move x_j -> x_i with i < j.
    """
    todo, closed = [], set()
    for _ in range(rng.randint(0, max_gens)):
        mono = [0] * n
        for _ in range(rng.randint(1, max_degree)):
            mono[rng.randrange(n)] += 1
        todo.append(tuple(mono))
    while todo:
        g = todo.pop()
        if g not in closed:
            closed.add(g)
            todo.extend(g[: j - 1] + (g[j - 1] + 1, g[j] - 1) + g[j + 1 :]
                        for j in range(1, n) if g[j])
    return MonomialIdeal(n, closed)


def _has_rows_and_columns(sl):
    # Some component has both members divisible by x_n (the rows to rank)
    # and x_n-free non-members (the columns), whether or not an entry joins them.
    return any(
        (inside & (rows[:, -1] > 0)).any() and (~inside & (rows[:, -1] == 0)).any()
        for rows, inside in zip(sl.exps, sl.member)
    )


def test_strongly_stable_modules_restrict_like_x_n():
    # For a strongly stable ideal, x_n -> x_n + sum_(k<n) (c_k / c_n) x_k
    # maps I onto itself in any characteristic, so every trial equals the
    # x_n-free count. In the plan, x'^a' * L^(a_n) only reaches monomials
    # that strong stability puts in I free of x_n: every block entry lands
    # on a column that a unit row dropped. So this pins the plan's rows,
    # columns and unit-row handling at and beyond the certify pool's sizes
    # (n <= 5, dim F_m up to 3640); the dense comparisons pin the values of
    # the powers of L.
    rng = random.Random(5)
    ranked = large = differs = biggest = 0
    for case in range(300):
        p = (7, 101, 32003)[case % 3]
        n = rng.randint(2, 5)
        r = rng.randint(1, 3)
        shape = FreeModuleShape(n=n, degrees=tuple(sorted(rng.randint(0, 2) for _ in range(r))))
        span = 6 if p == 7 else {2: 60, 3: 30, 4: 16, 5: 12}[n]
        m = shape.degrees[0] + rng.randint(0, span)
        max_degree = max(min(m, 5), 1)
        stable = MonomialModule(
            shape=shape,
            components=tuple(_strongly_stable_ideal(rng, n, 3, max_degree) for _ in range(r)),
        )
        sl = degree_slice(stable, m)
        plan = _restriction_plan(sl, p)
        assert not plan.blocks  # every entry lands on a member, so no block has one
        ranked += _has_rows_and_columns(sl)
        large += shape.dim(m) >= 1000
        biggest = max(biggest, shape.dim(m))
        for t in range(3):
            coeffs = _trial_coefficients(n, p, case, t)
            assert _evaluate(plan, p, coeffs) == sl.xn_free_quotient_dim, (stable, m, p, t)
        # Control: random modules, mostly not stable, often restrict otherwise.
        other = random_monomial_module(rng, shape, max_gens=3, max_degree=max_degree)
        other = degree_slice(other, m)
        coeffs = _trial_coefficients(n, p, case, 0)
        differs += _evaluate(_restriction_plan(other, p), p, coeffs) != other.xn_free_quotient_dim
    assert ranked >= 100 and large >= 20 and differs >= 100 and biggest >= 3640


def test_certify_builds_one_plan_and_each_trial_matches_the_single_form_path(monkeypatch):
    plans = []
    original = oracle._restriction_plan

    def counting(sl, p):
        plans.append(sl)
        return original(sl, p)

    monkeypatch.setattr(oracle, "_restriction_plan", counting)
    rng = random.Random(17)
    ranked = 0
    for case in range(100):
        n = rng.randint(1, 4)
        shape = FreeModuleShape(n=n, degrees=tuple(sorted(rng.randint(0, 2) for _ in range(2))))
        m = rng.randint(2, 5)
        module = random_monomial_module(rng, shape, max_gens=5, max_degree=m)
        plans.clear()
        report = generic_restriction_dim(module, m, trials=3, seed=case)
        assert len(plans) == 1
        ranked += _has_rows_and_columns(plans[0])
        assert report.dims == tuple(
            _dense_quotient_dim(module, m, 32003, _trial_coefficients(n, 32003, case, t))
            for t in range(3)
        )
    assert ranked >= 20  # the plans shared between trials hold blocks to fill


@pytest.mark.parametrize(
    "n, degrees, gens, m, shapes, dim",
    [
        (4, (0, 1), ([(0, 0, 0, 1)], [(1, 0, 0, 1)]), 20, [(1540, 231), (1140, 210)], 60),
        (6, (0,), ([(1, 0, 0, 0, 0, 1)],), 9, [(792, 715)], 385),
        (5, (0, 1), ([(0, 0, 0, 0, 8)], [(0, 1, 0, 0, 7)]), 16, [(495, 969), (330, 816)], 1500),
    ],
    ids=["tall-2", "tall-1", "wide-2"],
)
def test_large_rank_deficient_blocks_keep_their_dims(n, degrees, gens, m, shapes, dim):
    # Hand-made blocks far above the certify pool's, tall and wide, each of
    # rank well below its shorter side. The dims are pinned values.
    shape = FreeModuleShape(n=n, degrees=degrees)
    module = MonomialModule(shape, tuple(MonomialIdeal(n, g) for g in gens))
    sl = degree_slice(module, m)
    assert [size for *_, size in _restriction_plan(sl, 32003).blocks] == shapes
    report = generic_restriction_dim(module, m, trials=1, seed=0)
    assert report.dims == (dim,)
    assert dim <= sl.xn_free_quotient_dim and report.holds


def _disjoint_support_dim(module, m):
    # Exact generic dim (F/(M + l F))_m when each component's generators have
    # pairwise disjoint supports and number k < n. They form a regular
    # sequence, so S/I is Cohen-Macaulay of dimension n - k >= 1 and a generic
    # l is a non-zero-divisor on it: the restriction's Hilbert series is
    # prod_i (1 - t^e_i) / (1 - t)^(n-1), e_i the generator degrees (Stanley
    # 1978; Bruns-Herzog ch. 4). n >= 2, so [t^j] (1 - t)^(1-n) = C(j+n-2, j).
    n, total = module.shape.n, 0
    for f, ideal in zip(module.shape.degrees, module.components):
        numerator = [1]
        for g in ideal.gens:
            e = sum(g)
            numerator = [c - (numerator[i - e] if i >= e else 0)
                         for i, c in enumerate(numerator + [0] * e)]
        total += sum(c * comb(m - f - i + n - 2, n - 2)
                     for i, c in enumerate(numerator) if i <= m - f)
    return total


@pytest.mark.parametrize("p", [32003, 2**31 - 1])
@pytest.mark.parametrize(
    "n, degrees, gens, m, dim",
    [
        (4, (0, 1), ([(0, 0, 0, 1)], [(1, 0, 0, 1)]), 20, 60),
        (6, (0,), ([(1, 0, 0, 0, 0, 1)],), 9, 385),
        (5, (0, 1), ([(0, 0, 0, 0, 8)], [(0, 1, 0, 0, 7)]), 16, 1500),
    ],
    ids=["tall-2", "tall-1", "wide-2"],
)
def test_large_blocks_meet_the_disjoint_support_closed_form(n, degrees, gens, m, dim, p):
    # The large blocks above have one generator per component, so their
    # generic dims are known exactly; every trial must reach them, at a
    # small prime and at the largest one allowed.
    module = MonomialModule(FreeModuleShape(n=n, degrees=degrees),
                            tuple(MonomialIdeal(n, g) for g in gens))
    assert _disjoint_support_dim(module, m) == dim
    report = generic_restriction_dim(module, m, p=p, trials=2, seed=0)
    assert report.dims == (dim, dim)


def _disjoint_support_module(rng, n, degrees):
    # Per component: k < n generators on disjoint, shuffled sets of variables.
    components = []
    for _ in degrees:
        variables = rng.sample(range(n), n)
        k = rng.randint(0, n - 1)
        gens = []
        for i in range(k):
            support = variables[i::k]
            g = [0] * n
            for v in support[: rng.randint(1, len(support))]:
                g[v] = rng.randint(1, 3)
            gens.append(tuple(g))
        components.append(MonomialIdeal(n, gens))
    return MonomialModule(FreeModuleShape(n=n, degrees=degrees), tuple(components))


@pytest.mark.parametrize("p", [32003, 2**31 - 1])
def test_disjoint_support_modules_meet_the_closed_form(p):
    # Seeded modules with k < n disjoint-support generators per component: the
    # oracle must give the closed form's exact dim in every trial. In many of
    # them the dim is below the x_n-free count, so elimination does work.
    rng = random.Random(17)
    ranked = 0
    for case in range(100):
        n = rng.randint(2, 6)
        degrees = tuple(sorted(rng.randint(0, 2) for _ in range(rng.randint(1, 2))))
        module = _disjoint_support_module(rng, n, degrees)
        m = rng.randint(2, 10)
        expected = _disjoint_support_dim(module, m)
        report = generic_restriction_dim(module, m, p=p, trials=2, seed=case)
        assert report.dims == (expected, expected), (case, n, degrees, module, m)
        ranked += expected < degree_slice(module, m).xn_free_quotient_dim
    assert ranked >= 40


def test_certify_flags_lex_slices():
    shape = FreeModuleShape(n=2, degrees=(0, 1))
    slice_module = lex_module(shape, 2, 2)
    assert degree_slice(slice_module, 2).is_top
    report = generic_restriction_dim(slice_module, 2, seed=9)
    assert report.expect_equality and report.certified and report.equality

    other = MonomialModule(
        shape=shape,
        components=(
            MonomialIdeal(2, [(0, 2)]),
            MonomialIdeal(2, []),
        ),
    )
    assert not degree_slice(other, 2).is_top
    report = generic_restriction_dim(other, 2, seed=9)
    assert not report.expect_equality
    assert report.holds


def test_zero_module_certifies_with_equality():
    shape = FreeModuleShape(n=3, degrees=(0, 1, 1))
    report = generic_restriction_dim(MonomialModule.zero(shape), 3, seed=2)
    # the zero module's empty degree-m part is trivially a top slice
    assert report.expect_equality and report.certified


def test_report_json_fields_exact():
    shape = FreeModuleShape(n=2, degrees=(0,))
    report = generic_restriction_dim(MonomialModule.zero(shape), 2, seed=0)
    payload = report.to_json_dict()
    assert list(payload) == [
        "m",
        "p",
        "trials",
        "seed",
        "dims",
        "generic_dim",
        "bound",
        "holds",
        "equality",
    ]


def test_oracle_input_validation():
    shape = FreeModuleShape(n=2, degrees=(0,))
    module = MonomialModule.zero(shape)
    with pytest.raises(ValueError):
        generic_restriction_dim(module, 2, p=10)
    with pytest.raises(ValueError):
        generic_restriction_dim(module, 2, trials=0)
    with pytest.raises(ValueError):
        generic_restriction_dim(module, 6, p=5)  # prime below 2*dim margin


def test_empty_degree_component_paths():
    # m below every generator degree: F_m = 0, all dims zero, bound zero.
    shape = FreeModuleShape(n=3, degrees=(2, 3))
    report = generic_restriction_dim(MonomialModule.zero(shape), 1, seed=0)
    assert report.generic_dim == 0 and report.bound == 0
    assert report.holds and report.equality
    # degree-0 components pass through the restriction untouched
    report0 = generic_restriction_dim(MonomialModule.zero(shape), 2, seed=0)
    assert report0.generic_dim == 1 == report0.bound
