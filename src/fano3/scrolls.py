"""Rational scrolls P(O(d_1) + ... + O(d_m)) over P^1 and the case analyses
they support: hyperelliptic (rank 3) and trigonal (rank 4) Fano threefolds.

Top intersections use M^m = sum(d_i), M^(m-1).F = 1, and F.F = 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

from fano3 import as_int
from fano3.exactcore import Basis, DivisorClass, Rat, cls2


class ScrollData(NamedTuple("ScrollData", [("splitting", tuple[int, ...])])):
    """Splitting type (d_1 >= d_2 >= ... >= d_m >= 0)."""

    __slots__ = ()

    # _replace bypasses __new__: change a field through the constructor
    def __new__(cls, splitting: Sequence[int]) -> ScrollData:
        if len(splitting) < 2:
            raise ValueError("scrolls here have rank >= 2")
        splitting = [as_int(d, "splitting degree") for d in splitting]
        if any(d < 0 for d in splitting):
            raise ValueError("splitting degrees must be >= 0")
        return super().__new__(cls, tuple(sorted(splitting, reverse=True)))

    @property
    def rank(self) -> int:
        return len(self.splitting)

    @property
    def degree(self) -> int:
        return sum(self.splitting)


def scroll_h0(s: ScrollData) -> int:
    """h^0 of the tautological class: sum (d_i + 1)."""
    return sum(d + 1 for d in s.splitting)


def scroll_intersection(s: ScrollData, classes: Sequence[DivisorClass]) -> Rat:
    """Top intersection of rank(s) classes written in the (M, F) basis."""
    m = s.rank
    if len(classes) != m:
        raise ValueError(f"need exactly {m} classes, got {len(classes)}")
    p, q = 1, 0  # the product so far is p M^k + q M^(k-1) F, as F.F = 0
    for d in classes:
        if d.basis is not Basis.MF:
            raise ValueError("classes must be in the (M, F) basis")
        a, b = d.coords
        p, q = p * a, p * b + q * a
    return p * s.degree + q


def scroll_canonical(s: ScrollData) -> DivisorClass:
    """K = -m M + (sum d_i - 2) F."""
    return cls2(Basis.MF, -s.rank, s.degree - 2)


def _splittings(total: int, parts: int) -> list[tuple[int, ...]]:
    """Descending positive splittings of `total` into `parts` >= 2 parts."""
    # Grow every prefix by one part per round, largest first, carrying what
    # is left of the total.  With `slots` parts still to place out of
    # `budget`, the next part is at most the previous one and at least
    # ceil(budget / slots).  The last two come out together as
    # (x, budget - x) with ceil(budget / 2) <= x <= min(previous, budget - 1).
    rows: list[tuple[tuple[int, ...], int]] = [((), total)]
    for slots in range(parts, 2, -1):
        rows = [
            (row + (first,), budget - first)
            for row, budget in rows
            for first in range(
                min(row[-1] if row else total, budget - (slots - 1)), -(-budget // slots) - 1, -1
            )
        ]
    return [
        row + (x, budget - x)
        for row, budget in rows
        for x in range(min(row[-1] if row else total, budget - 1), -(-budget // 2) - 1, -1)
    ]


class HyperellipticCandidate(NamedTuple):
    scroll: ScrollData
    branch_class: DivisorClass
    realized_as: Optional[str] = None

    @property
    def status(self) -> str:
        return "realized" if self.realized_as else "numeric-only"


def hyperelliptic_candidates(g: int) -> list[HyperellipticCandidate]:
    """All rank-3 splittings with d_i > 0, sum d_i = g - 1, each with the
    branch class 4M + 2(2 - sum d_i) F = (4, 2(3-g))."""
    g = as_int(g, "genus")
    if g < 2:
        raise ValueError("genus must be >= 2")
    # Fraction, not int: bench/ digests these coordinates as they stand and
    # pins the Fraction form (cli wraps each one in Fraction itself).
    branch = cls2(Basis.MF, Fraction(4), Fraction(2 * (3 - g)))
    # The rows are built by tuple.__new__, which skips ScrollData's checks:
    # _splittings only yields descending tuples of positive parts of the
    # requested length.  zip(xs) yields the 1-tuples (x,).
    new = tuple.__new__
    scrolls = map(new, repeat(ScrollData), zip(_splittings(g - 1, 3)))
    return list(map(new, repeat(HyperellipticCandidate), zip(scrolls, repeat(branch), repeat(None))))


class TrigonalCandidate(NamedTuple):
    scroll: ScrollData
    member_class: DivisorClass
    witness: Optional[Fraction] = None
    witness_k: Optional[int] = None
    realized_as: Optional[str] = None

    @property
    def excluded(self) -> bool:
        return self.witness is not None

    @property
    def status(self) -> str:
        if self.excluded:
            return "excluded"
        return "realized" if self.realized_as else "numeric-only"


def trigonal_candidates(g: int) -> list[TrigonalCandidate]:
    """All rank-4 splittings with d_i > 0, sum d_i = g - 2, with the member
    class X = 3M + (2 - sum d_i) F and, for each k with max d_i >= k (so that
    G' in |M - kF| exists), the sign test X.G'.G^2 >= 0 with G = M - F.
    The first negative witness excludes the splitting."""
    g = as_int(g, "genus")
    if g < 5:
        raise ValueError("genus must be >= 5")
    total = g - 2
    member = cls2(Basis.MF, 3, 2 - total)
    # Expanding scroll_intersection, X.G'.G^2 = 3*total + (2 - total) - 3k - 6
    # = 2*total - 3k - 4 for every splitting.  It decreases in k, so the
    # first negative value is at k0, and it exists exactly when d_1 >= k0.
    k0 = (2 * total - 4) // 3 + 1
    witness = Fraction(2 * total - 3 * k0 - 4)  # Fraction for bench/, as the branch class
    # built by tuple.__new__ as in hyperelliptic_candidates: every field after
    # the scroll is one of two row tails
    new = tuple.__new__
    kept, excluded = (member, None, None, None), (member, witness, k0, None)
    return [
        new(TrigonalCandidate, (new(ScrollData, (sp,)),) + (excluded if sp[0] >= k0 else kept))
        for sp in _splittings(total, 4)
    ]


def mark_realized(
    candidates: Sequence[HyperellipticCandidate | TrigonalCandidate],
    realized: dict[tuple[int, ...], str],
) -> list[HyperellipticCandidate | TrigonalCandidate]:
    """Annotate candidates whose splitting appears in the realized map
    (splitting -> catalog entry id); everything else keeps its status."""
    out = list(candidates)
    if realized:  # empty for every genus above the catalog's models
        for i, cand in enumerate(out):
            entry = realized.get(cand.scroll.splitting)
            if entry is not None:
                out[i] = cand._replace(realized_as=entry)
    return out
