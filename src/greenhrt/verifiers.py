"""Brute-force verification sweeps for every inequality the library encodes.

Each check sweeps an explicit parameter range, evaluates both sides of its
inequality independently, and collects counterexamples instead of aborting:
if an implementation bug exists, the violating tuples are the useful output.
All sweeps are deterministic given their ranges and seed.
"""
from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from math import comb
from operator import add, gt

import numpy as np

from .bounds import FreeModuleShape, _BoundProfile, _dim_s, rank2_bound, scaled_bound
from .macaulay import _kappa_tables, kappa
from .monomials import MonomialModule, _exponent_rows, random_monomial_module
from .oracle import DEFAULT_PRIME, DEFAULT_TRIALS, generic_restriction_dim


@dataclass
class VerificationOutcome:
    """Result of one sweep: ranges, case count and any violations found."""

    statement: str
    ranges: dict
    cases: int = 0
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "statement": self.statement,
            "ranges": self.ranges,
            "cases": self.cases,
            "counterexamples": self.counterexamples,
        }


def _record(outcome: VerificationOutcome, inputs: dict, lhs, rhs) -> None:
    # Counterexamples are stored with both sides so they re-verify on replay.
    outcome.counterexamples.append({**inputs, "lhs": lhs, "rhs": rhs})


# Rows per block of _pair_hits, the one pair-sum comparator of kappa-lemma
# and rank2: a block's sums and mask are held, never the full square.
_LEMMA_BLOCK_ROWS = 256

# The most cases a verify sweep other than scaled takes on, checked from its
# closed-form count before any case or table is built.
_MAX_CASES = 1 << 26

# The most degrees (kappa-lemma, herz) or degree tuples (higher) a sweep
# walks, checked after its case count: each one costs a kappa table, a
# bound profile or a kappa memo however few cases it holds, so the case
# ceiling alone does not bound them.
_MAX_DEGREES = 1 << 18

# Cases per block of verify higher: one block's values, sides and sums are
# held at once, whatever r and samples are.
_HIGHER_BLOCK = 1 << 12


def _refuse_above(count: int, limit: int, unit: str, **fields) -> None:
    """Raise ValueError naming the fields when count passes limit."""
    if count > limit:
        *rest, last = fields
        names = f"{', '.join(rest)} and {last}" if rest else last
        values = ", ".join(f"{k}={v}" for k, v in fields.items())
        verb = "give" if rest else "gives"
        raise ValueError(f"{names} too large: {values} {verb} more than {limit} {unit}")


class _Memo(dict):
    """A dict that fills a missing key with fn(key) on first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _pair_hits(left: np.ndarray, right: np.ndarray, sums: np.ndarray) -> Iterator[tuple[int, int]]:
    """Every (a, b) with left[a] + right[b] > sums[a + b], in row-major order.

    The three arrays share one dtype that holds every pair sum, which the
    caller picks from values it already holds. Row a of the window view is
    sums[a : a + len(right)], so the sums line up without an index array.
    Pair sums are added _LEMMA_BLOCK_ROWS rows at a time into two buffers
    allocated once per call, and only a block with a hit is searched.
    """
    rows = min(_LEMMA_BLOCK_ROWS, len(left))
    lhs = np.empty((rows, len(right)), dtype=sums.dtype)
    mask = np.empty((rows, len(right)), dtype=bool)
    windows = np.lib.stride_tricks.sliding_window_view(sums, len(right))
    for start in range(0, len(left), rows):
        stop = min(start + rows, len(left))
        block, hits = lhs[: stop - start], mask[: stop - start]
        np.add(left[start:stop, None], right[None, :], out=block)
        np.greater(block, windows[start:stop], out=hits)
        if hits.any():
            for a, b in np.argwhere(hits).tolist():
                yield start + a, b


def check_kappa_lemma(a_max: int, d_max: int) -> VerificationOutcome:
    """Superadditivity kappa(a,d)+kappa(b,d) <= kappa(a+b,d) and degree
    monotonicity kappa(a,d+1) <= kappa(a,d), exhaustively for a,b <= a_max
    and d <= d_max. Degree d reads the kappa tables of degrees d and d + 1,
    2 a_max + 1 cells each, and no more than three are held at once; its
    pair sums go through _pair_hits, and the case ceiling keeps a_max <=
    8190. Each degree costs a table and a pass however small a_max is, so
    more than _MAX_DEGREES degrees are refused too."""
    if a_max < 1:
        raise ValueError(f"a_max must be at least 1, got {a_max}")
    if d_max < 1:
        raise ValueError(f"d_max must be at least 1, got {d_max}")
    cases = d_max * ((a_max + 1) ** 2 + (a_max + 1))
    _refuse_above(cases, _MAX_CASES, "cases", a_max=a_max, d_max=d_max)
    _refuse_above(d_max, _MAX_DEGREES, "degrees", d_max=d_max)
    out = VerificationOutcome("kappa-lemma", {"a_max": a_max, "d_max": d_max}, cases)
    for (d, table), (_, upper) in itertools.pairwise(_kappa_tables(2 * a_max, d_max + 1)):
        # The narrowest unsigned dtype that holds every pair sum of this
        # degree's entries: uint16 at a_max <= 2000, since 0 <= kappa(a, d) <= a.
        narrow = table.astype(np.min_scalar_type(2 * int(table.max())))
        head = narrow[: a_max + 1]
        for a, b in _pair_hits(head, head, narrow):
            _record(out, {"a": a, "b": b, "d": d, "part": "superadditive"},
                    kappa(a, d) + kappa(b, d), kappa(a + b, d))
        for a in (upper[: a_max + 1] > table[: a_max + 1]).nonzero()[0].tolist():
            _record(out, {"a": a, "d": d, "part": "degree-monotone"}, kappa(a, d + 1), kappa(a, d))
    return out


def _unit_tails(a_max: int, d: int, rows: dict[int, np.ndarray]) -> np.ndarray:
    """``_greedy(a, d)[1] > 0`` for a = 1..a_max, as one bool array: whether
    the base-d representation of a ends in a unit tail.

    One greedy pass runs over the whole range at once, from rem = a and
    degree i = d down. An entry whose remainder is at most i stops there,
    and that remainder is its unit-tail length. Each live entry subtracts
    the largest C(k, i) <= rem, found by searchsorted in rows[i] = [C(i, i),
    C(i + 1, i), ...] up to its first entry above a_max (built on first use,
    so every entry stays far inside int64); at i = 1 it picks rem itself and
    ends at 0. The pass runs while some remainder exceeds i, as ``_greedy``
    does, so a_max <= d costs no pass.
    """
    tails = np.ones(a_max, dtype=bool)
    if a_max <= d:
        return tails
    at = np.arange(a_max)  # the live entries' positions
    rem = at + 1
    for i in range(d, 0, -1):
        live = rem > i
        if not live.any():
            break
        at, rem = at[live], rem[live]
        if i == 1:
            tails[at] = False
            break
        row = rows.get(i)
        if row is None:
            row = [1]
            while row[-1] <= a_max:
                row.append(comb(i + len(row), i))
            row = rows[i] = np.array(row, dtype=np.int64)
        rem = rem - row[np.searchsorted(row, rem, side="right") - 1]
        tails[at[rem == 0]] = False
    return tails


def check_herz_tail(a_max: int, d_max: int) -> VerificationOutcome:
    """kappa(a-1,d) = kappa(a,d) exactly when the base-d representation of a
    terminates with numerator equal to its degree. The stall side is
    np.diff of the degree's kappa table, the tail side ``_unit_tails``, one
    greedy pass over a = 1..a_max per degree. Each table has a_max + 1
    cells, and no more than two are held at once; as in kappa-lemma, more
    than _MAX_DEGREES degrees are refused."""
    if a_max < 2:
        raise ValueError(f"a_max must be at least 2, got {a_max}")
    if d_max < 1:
        raise ValueError(f"d_max must be at least 1, got {d_max}")
    cases = a_max * d_max
    _refuse_above(cases, _MAX_CASES, "cases", a_max=a_max, d_max=d_max)
    _refuse_above(d_max, _MAX_DEGREES, "degrees", d_max=d_max)
    out = VerificationOutcome("herz", {"a_max": a_max, "d_max": d_max}, cases)
    rows: dict[int, np.ndarray] = {}
    for d, table in _kappa_tables(a_max, d_max):
        # The stall side comes from the block-recurrence table, the tail side
        # from a greedy pass over a = 1..a_max that reads neither the table
        # nor macaulay's pass: two independent formulations.
        stalls = np.diff(table) == 0
        tails = _unit_tails(a_max, d, rows)
        for (i,) in np.argwhere(stalls != tails):
            _record(out, {"a": int(i) + 1, "d": d, "ends_at_delta": bool(tails[i])},
                    int(table[i]), int(table[i + 1]))
    return out


def check_rank2(n: int, d1: int, d2: int) -> VerificationOutcome:
    """kappa(a,d1)+kappa(b,d2) <= rank2_bound(a,b,d1,d2,n), exhaustively over
    all admissible a, b."""
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if d1 < d2 or d2 < 1:
        raise ValueError(f"need d1 >= d2 >= 1, got d1={d1}, d2={d2}")
    ranges = {"n": n, "d1": d1, "d2": d2}
    # N_i = C(n+d_i-1, d_i) >= 2^min(d_i, n-1): a huge n or d is refused from
    # that lower bound, clipped past the ceiling, before any binomial.
    _refuse_above(1 << min(min(d1, n - 1) + min(d2, n - 1), _MAX_CASES.bit_length()),
                  _MAX_CASES, "cases", **ranges)
    n1, n2 = _dim_s(n, d1), _dim_s(n, d2)
    cases = (n1 + 1) * (n2 + 1)
    _refuse_above(cases, _MAX_CASES, "cases", **ranges)
    out = VerificationOutcome("rank2", ranges, cases)
    ka = [kappa(a, d1) for a in range(n1 + 1)]
    kb = [kappa(b, d2) for b in range(n2 + 1)]
    # The bound depends on a + b alone: one admissible split per sum.
    bound = [rank2_bound(s - min(s, n2), min(s, n2), d1, d2, n) for s in range(n1 + n2 + 1)]
    # One dtype for both sides: signed only when the bound can be negative.
    dtype = np.result_type(np.min_scalar_type(min(bound)),
                           np.min_scalar_type(max(max(ka) + max(kb), max(bound))))
    for a, b in _pair_hits(np.array(ka, dtype), np.array(kb, dtype), np.array(bound, dtype)):
        _record(out, {"a": a, "b": b, "d1": d1, "d2": d2, "n": n}, ka[a] + kb[b], bound[a + b])
    return out


def _corner_blocks(caps: Sequence[int]) -> Iterator[list[tuple[int, ...]]]:
    """Every corner, each a_i in {0, caps[i]}, in product order: blocks of
    at most _HIGHER_BLOCK cases, one column of values per component."""
    corners = itertools.product(*[(0, c) for c in caps])
    while block := list(zip(*itertools.islice(corners, _HIGHER_BLOCK))):
        yield block


def _sample_blocks(
    getrandbits: Callable[[int], int], caps: Sequence[int], samples: int
) -> Iterator[list[list[int]]]:
    """`samples` cases, entry i uniform in 0..caps[i] and drawn as randint
    does: blocks of at most _HIGHER_BLOCK cases, one column per component.

    randint(0, c) is _randbelow(c + 1): draw (c + 1).bit_length() bits and
    draw again while the value passes c. Calling getrandbits directly skips
    randint's three Python call layers; one flat loop draws a block's
    entries in case order, so it consumes the same stream.
    """
    r = len(caps)
    draws = [(c, (c + 1).bit_length()) for c in caps]
    for start in range(0, samples, _HIGHER_BLOCK):
        values = []
        append = values.append
        for c, k in draws * min(_HIGHER_BLOCK, samples - start):
            v = getrandbits(k)
            while v > c:
                v = getrandbits(k)
            append(v)
        yield [values[i::r] for i in range(r)]


def _box_fits(n: int, d_max: int, r_max: int, samples: int) -> bool:
    """Whether check_higher certifies whole boxes: at every r <= r_max the
    widest tuple (d_max,) * r, with N = dim S_{d_max}, evaluates its bound
    at no more sums than it has cases (r N + 1 <= 2^r + samples), and each
    max-plus step holds at most one block's cells ((r N + 1)(N + 1) <=
    _HIGHER_BLOCK). Every other tuple's box is narrower."""
    wide = _dim_s(n, d_max)
    return all(r * wide + 1 <= 2**r + samples and (r * wide + 1) * (wide + 1) <= _HIGHER_BLOCK
               for r in range(1, r_max + 1))


def _box_sums(rows: Sequence[np.ndarray], windows: _Memo) -> np.ndarray:
    """G(h), the largest rows[0][a_1] + ... + rows[-1][a_r] over the splits
    a_1 + ... + a_r = h, for h = 0..sum(len(row) - 1): the max-plus
    convolution of the rows, one step per row after the first.

    A step pads G with k = len(row) - 1 entries on each side and gathers
    row h of windows[len(G), k], the indices h - i + k for i = 0..k, so that
    G(h - i) + row[i] lines up in column i. The pad is so negative that no
    sum through it can win the max; -1 would leak -1 + row[i] into it.
    """
    g = rows[0]
    for row in rows[1:]:
        k = len(row) - 1
        pad = np.full(k, -(1 << 62), dtype=np.int64)
        g = (np.concatenate([pad, g, pad])[windows[len(g), k]] + row).max(axis=1)
    return g


def _degree_tuples(d_max: int, r_max: int, memos: Sequence[dict]) -> Iterator[tuple[int, ...]]:
    """Every non-increasing tuple with entries in 1..d_max and length 1..r_max,
    by r ascending, then in ``nonincreasing_tuples(d_max, r)``'s order.

    At r = r_max the tuples whose smallest degree is d are contiguous, and
    no later tuple holds d: each dict in memos drops its entry for d there.
    At r < r_max, d recurs in the levels above, so nothing is dropped.
    """
    for r in range(1, r_max):
        yield from nonincreasing_tuples(d_max, r)
    low = None
    for degrees in nonincreasing_tuples(d_max, r_max):
        if degrees[-1] != low:
            for memo in memos:
                memo.pop(low, None)
            low = degrees[-1]
        yield degrees


def _boxes_hold(
    n: int, d_max: int, r_max: int, kappa_memo: _Memo, memo_kappa: Callable[[int, int], int]
) -> bool:
    """Whether G(h) <= B(h) at every h of every degree tuple's box, stopping
    at the first tuple where it fails. A degree's kappa row is built once,
    from kappa_memo, and dropped with its memo entry."""
    rows: dict[int, np.ndarray] = {}
    # Column i of row h is h - i + k: one index array per (len(G), k).
    windows = _Memo(lambda key: np.add.outer(np.arange(sum(key)), np.arange(key[1], -1, -1)))
    for degrees in _degree_tuples(d_max, r_max, [kappa_memo, rows]):
        profile = _BoundProfile(n, degrees, kappa=memo_kappa)
        for d, cap in zip(degrees, profile.caps):
            if d not in rows:
                rows[d] = np.fromiter(map(kappa_memo[d].__getitem__, range(cap + 1)),
                                      dtype=np.int64, count=cap + 1)
        g = _box_sums([rows[d] for d in degrees], windows)
        if any(map(gt, g.tolist(), map(profile.total, range(len(g))))):
            return False
    return True


def check_higher(n: int, d_max: int, r_max: int, samples: int, seed: int) -> VerificationOutcome:
    """sum kappa(a_i, d_i) <= piecewise bound over random and corner tuples.

    The degree tuples are every non-increasing tuple with entries in
    1..d_max and length r in 1..r_max: by r ascending, then in
    ``nonincreasing_tuples(d_max, r)``'s order. The seeded draws follow
    that order. Every boundary corner (each a_i in {0, N_i}) is always
    included; piecewise formulas break at boundaries, so uniform sampling
    alone would under-test them. Each sampled a_i is drawn with
    ``getrandbits`` exactly as ``random.Random(seed).randint(0, N_i)`` draws
    it, so a seed gives the same cases as a ``randint`` loop would. A degree
    tuple's cases are checked in blocks of at most _HIGHER_BLOCK, so a
    block's memory does not grow with r or samples; the kappa memo holds one
    entry per distinct (d, a) a case or its bound reads, and at r = r_max
    drops a degree once no later tuple holds it. More than _MAX_CASES cases
    or _MAX_DEGREES degree tuples in all are refused before any tuple is
    built.

    Where ``_box_fits`` holds, decided once per call from n, d_max, r_max
    and samples, each tuple's whole box 0 <= a_i <= N_i is checked first,
    with no draw: G(h), the largest sum kappa(a_i, d_i) over the splits of
    h (``_box_sums`` over kappa rows built once per degree through the same
    memo as the cases), against B(h) = the profile's total at every h in
    0..sum N_i. If G <= B at every h of every tuple, no case of the box,
    corner or sample, can fail, so the call returns the cases it stands for
    and no counterexample. Its conditions keep the bound evaluations per
    tuple at most its cases, and each max-plus step within one block. If
    any tuple has G > B at some h, the whole call runs the corners and the
    seeded draws as above, from a fresh Random(seed), so every failing
    output is the one the sampled cases give. Either way ``cases`` counts
    the corners and samples (2^r + samples per tuple), not the box, so the
    outcome reads the same on both paths.
    """
    # Empty tuple lists would pass with 0 cases; name the field instead.
    if d_max < 1:
        raise ValueError(f"d_max must be at least 1, got {d_max}")
    if r_max < 1:
        raise ValueError(f"r_max must be at least 1, got {r_max}")
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    # C(d_max+r-1, r) tuples of length r, each with 2^r corners plus its
    # samples; 2^r alone passes the ceiling by r = 27. A tuple has at least
    # two corners, so the tuples stay below the cases.
    cases = tuples = 0
    for r in range(1, r_max + 1):
        # Non-increasing r-tuples over 1..d_max count as degree-r monomials
        # in d_max variables.
        count = _dim_s(d_max, r)
        tuples += count
        cases += count * (2**r + samples)
        _refuse_above(cases, _MAX_CASES, "cases", d_max=d_max, r_max=r_max, samples=samples)
    _refuse_above(tuples, _MAX_DEGREES, "degree tuples", d_max=d_max, r_max=r_max)
    out = VerificationOutcome(
        "higher", {"n": n, "tuples": tuples, "samples": samples, "seed": seed}, cases
    )
    # kappa(a, d) by degree, shared by every tuple of this call and by both
    # sides (the bound's terms read it too); filled on demand, never
    # tabulated over [0, N_i] on the sampled path, so no value is computed
    # twice and none that no case asks for.
    kappa_memo = _Memo(lambda d: _Memo(lambda a: kappa(a, d)))

    def memo_kappa(a: int, d: int) -> int:
        return kappa_memo[d][a]

    if _box_fits(n, d_max, r_max, samples) and _boxes_hold(n, d_max, r_max, kappa_memo, memo_kappa):
        return out
    getrandbits = random.Random(seed).getrandbits
    for degrees in _degree_tuples(d_max, r_max, [kappa_memo]):
        profile = _BoundProfile(n, degrees, kappa=memo_kappa)
        caps = profile.caps
        # The bound depends on h = sum(values) and on this tuple's profile.
        bound = _Memo(profile.total)
        memos = [kappa_memo[d] for d in degrees]
        blocks = itertools.chain(_corner_blocks(caps), _sample_blocks(getrandbits, caps, samples))
        for cols in blocks:
            lhs = map(memos[0].__getitem__, cols[0])
            h = cols[0]
            for memo, col in zip(memos[1:], cols[1:]):
                lhs = map(add, lhs, map(memo.__getitem__, col))
                h = list(map(add, h, col))
            lhs = list(lhs)
            rhs = list(map(bound.__getitem__, h))
            for i in itertools.compress(range(len(h)), map(gt, lhs, rhs)):
                values = [col[i] for col in cols]
                _record(out, {"values": values, "degrees": list(degrees), "n": n}, lhs[i], rhs[i])
    return out


def nonincreasing_tuples(d_max: int, r: int) -> list[tuple[int, ...]]:
    """All non-increasing tuples of length r with entries in 1..d_max."""
    # combinations_with_replacement yields non-decreasing tuples in order.
    return [t[::-1] for t in itertools.combinations_with_replacement(range(1, d_max + 1), r)]


def check_lex_restriction(n: int, d: int) -> VerificationOutcome:
    """Restricting a lex segment to one fewer variable drops its codimension
    exactly to kappa of the codimension, for every segment size k <= dim S_d.
    The rows go first: their ceiling refuses a huge n or d before any binomial."""
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if d < 0:
        raise ValueError(f"degree must be non-negative, got d={d}")
    xn_free = _exponent_rows(n, d)[:, -1] == 0
    dim = _dim_s(n, d)
    out = VerificationOutcome("lex-restriction", {"n": n, "d": d}, dim + 1)
    # The lex segment of size k is the first k rows, so running counts give
    # the x_n-free members of every segment.
    segment_free = [0, *np.cumsum(xn_free).tolist()]
    ambient_free = segment_free[-1]
    for k, free in enumerate(segment_free):
        specialized_codim = ambient_free - free
        expected = kappa(dim - k, d) if d >= 1 else dim - k
        if specialized_codim != expected:
            _record(out, {"n": n, "d": d, "k": k}, specialized_codim, expected)
    return out


def check_scaled_corollary(
    n_max: int,
    r_max: int,
    d_max: int,
    samples: int,
    p: int = DEFAULT_PRIME,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> VerificationOutcome:
    """Sampled restriction of F/M stays under (n-1)/(n+d-1) of its dimension
    for modules presented over free modules generated in degree zero. A case
    is one oracle report: samples + 1 modules per (n, r), each at d = 0..d_max
    but d = 0 at n = 1. Its count is not held to _MAX_CASES."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if r_max < 1:
        raise ValueError(f"r_max must be at least 1, got {r_max}")
    if d_max < 0:
        raise ValueError(f"d_max must be non-negative, got {d_max}")
    if n_max + d_max < 2:
        # n = 1, d = 0 has no ambient ring to restrict to: no case at all.
        raise ValueError("d_max must be at least 1 when n_max is 1")
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    out = VerificationOutcome(
        "scaled",
        {
            "n_max": n_max,
            "r_max": r_max,
            "d_max": d_max,
            "samples": samples,
            "p": p,
            "trials": trials,
            "seed": seed,
        },
        r_max * (samples + 1) * (n_max * (d_max + 1) - 1),
    )
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        for r in range(1, r_max + 1):
            shape = FreeModuleShape(n=n, degrees=(0,) * r)
            modules = [MonomialModule.zero(shape)] + [
                random_monomial_module(rng, shape, max_gens=3, max_degree=d_max)
                for _ in range(samples)
            ]
            for module in modules:
                for d in range(d_max + 1):
                    if n + d - 1 < 1:
                        continue  # no ambient ring to restrict to
                    report = generic_restriction_dim(
                        module, d, p=p, trials=trials, seed=rng.randrange(2**30)
                    )
                    lhs = report.generic_dim
                    rhs = scaled_bound(report.quotient_dim, n, d)
                    if lhs > rhs:
                        _record(
                            out,
                            {
                                "n": n,
                                "r": r,
                                "d": d,
                                "generators": [
                                    [list(g) for g in ideal.gens]
                                    for ideal in module.components
                                ],
                            },
                            lhs,
                            str(rhs),
                        )
    return out
