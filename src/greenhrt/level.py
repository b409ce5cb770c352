"""Bound comparison for level artinian algebras.

For a level algebra with Hilbert function (h_0, ..., h_c), multiplication
by a generic linear form admits two lower bounds on the Hilbert function of
the principal ideal it generates: one from the classical hyperplane
restriction bound applied degree by degree (hG), and one from the module
bound applied to the dual level module (hGM). ``compare_bounds`` evaluates
each once per position, beside the sufficient conditions for hGM_i >= hG_i;
``reproduce_table`` re-derives a bundled dataset of published comparisons
to guard against transcription slips.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .bounds import _dim_s, braced_bound
from .macaulay import kappa

DATA_RESOURCE = "level_comparisons.csv"


class TheoremViolation(AssertionError):
    """A proved inequality failed; indicates an implementation bug."""


@dataclass(frozen=True)
class LevelHilbert:
    """Candidate Hilbert function of a level algebra, socle degree c = len-1.

    Entries are taken at face value; no check that a level algebra with
    this Hilbert function actually exists.
    """

    h: tuple[int, ...]
    n: int = 3

    def __post_init__(self) -> None:
        if len(self.h) < 2:
            raise ValueError("need at least degrees 0 and 1 (socle degree >= 1)")
        if any(v < 1 for v in self.h):
            raise ValueError(f"level Hilbert function entries must be >= 1: {self.h}")
        if self.n < 1:
            raise ValueError(f"need at least one variable, got n={self.n}")
        object.__setattr__(self, "h", tuple(self.h))

    @property
    def c(self) -> int:
        return len(self.h) - 1


@dataclass(frozen=True)
class PropositionCheck:
    """The three sufficient conditions at one position, plus the conclusion."""

    i: int
    low_half: bool  # i + 1 <= c - i, so the dual base dominates the direct one
    plateau: bool  # h_i = h_{i+1}
    fits_single_segment: bool  # dim S_{c-i} > h_{i+1}
    all_hold: bool


@dataclass(frozen=True)
class LevelComparison:
    """Both bound sequences plus the positions where the module bound wins.

    Positions are 1-based: position p in win_positions means
    hGM_{p-1} > hG_{p-1}.
    """

    h: tuple[int, ...]
    hG: tuple[int, ...]
    hGM: tuple[int, ...]
    win_positions: frozenset[int]
    proposition_flags: tuple[PropositionCheck, ...]


def compare_bounds(lh: LevelHilbert) -> LevelComparison:
    """hG_i = h_{i+1} - kappa(h_{i+1}, i+1), hGM_i = h_i - braced_bound(h_i, c-i, n),
    the positions where hGM wins, and per position the three sufficient conditions
    for hGM_i >= hG_i. Where all three hold, hGM_i < hG_i would contradict a proved
    statement and raises TheoremViolation."""
    h, c = lh.h, lh.c
    hg, hgm, flags = [], [], []
    for i in range(c):
        hg.append(h[i + 1] - kappa(h[i + 1], i + 1))
        hgm.append(h[i] - braced_bound(h[i], c - i, lh.n))
        # With a plateau and a single-segment value, the two bounds differ
        # only in the base of the numerator decrement (c-i versus i+1); the
        # decrement shrinks as the base grows, so c-i >= i+1 forces hGM up.
        low_half = i + 1 <= c - i
        plateau = h[i] == h[i + 1]
        fits = _dim_s(lh.n, c - i) > h[i + 1]
        flags.append(PropositionCheck(i, low_half, plateau, fits, low_half and plateau and fits))
        if flags[i].all_hold and hgm[i] < hg[i]:
            raise TheoremViolation(
                f"conditions hold at i={i} but hGM_i={hgm[i]} < hG_i={hg[i]} for h={h}"
            )
    return LevelComparison(
        h=h,
        hG=tuple(hg),
        hGM=tuple(hgm),
        win_positions=frozenset(i + 1 for i in range(c) if hgm[i] > hg[i]),
        proposition_flags=tuple(flags),
    )


@dataclass(frozen=True)
class TableRow:
    position: int
    h: tuple[int, ...]
    hGM: tuple[int, ...]
    hG: tuple[int, ...]


@dataclass(frozen=True)
class RowResult:
    row: TableRow
    comparison: LevelComparison
    ok: bool


def _parse_int_list(text: str, where: str) -> tuple[int, ...]:
    """Parse comma-separated integers; ``where`` names the flag or line."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{where}: bad integer list {text!r}") from exc


def parse_level_table(text: str) -> list[TableRow]:
    """Parse the semicolon row format ``position;h;hGM;hG``."""
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"line {line_no}"
        parts = line.split(";")
        if len(parts) != 4:
            raise ValueError(f"{where}: expected 4 fields, got {len(parts)}")
        h = _parse_int_list(parts[1], where)
        try:
            position = int(parts[0])
            LevelHilbert(h=h)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        rows.append(
            TableRow(
                position=position,
                h=h,
                hGM=_parse_int_list(parts[2], where),
                hG=_parse_int_list(parts[3], where),
            )
        )
    return rows


def load_level_table(path: str | Path | None = None) -> list[TableRow]:
    """Load the bundled comparison dataset, or one from an explicit path."""
    if path is not None:
        return parse_level_table(Path(path).read_text())
    text = resources.files("greenhrt").joinpath("data").joinpath(DATA_RESOURCE).read_text()
    return parse_level_table(text)


def reproduce_table(rows: list[TableRow]) -> list[RowResult]:
    """Recompute both bound columns for every row, in the dataset's three
    variables, and flag any mismatch.

    A row passes when the recomputed hGM and hG match the stored columns
    exactly and the stored position is among the computed win positions.
    """
    results = []
    for row in rows:
        comparison = compare_bounds(LevelHilbert(h=row.h))
        ok = (
            comparison.hGM == row.hGM
            and comparison.hG == row.hG
            and row.position in comparison.win_positions
        )
        results.append(RowResult(row=row, comparison=comparison, ok=ok))
    return results
