"""Rational scrolls P(O(d_1) + ... + O(d_m)) over P^1 and the case analyses
they support: hyperelliptic (rank 3) and trigonal (rank 4) Fano threefolds.

Top intersections use M^m = sum(d_i), M^(m-1).F = 1, and F.F = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from fano3.exactcore import Basis, DivisorClass, Rat, cls2


@dataclass(frozen=True)
class ScrollData:
    """Splitting type (d_1 >= d_2 >= ... >= d_m >= 0)."""

    splitting: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.splitting) < 2:
            raise ValueError("scrolls here have rank >= 2")
        if any(d < 0 for d in self.splitting):
            raise ValueError("splitting degrees must be >= 0")
        object.__setattr__(self, "splitting", tuple(sorted(self.splitting, reverse=True)))

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
    for d in classes:
        if d.basis is not Basis.MF:
            raise ValueError("classes must be in the (M, F) basis")
    a = [d.coords[0] for d in classes]
    b = [d.coords[1] for d in classes]
    # M^m and the m terms M^(m-1).F; a monomial with F twice vanishes
    return math.prod(a) * s.degree + sum(b[j] * math.prod(a[:j] + a[j + 1:]) for j in range(m))


def scroll_canonical(s: ScrollData) -> DivisorClass:
    """K = -m M + (sum d_i - 2) F."""
    return cls2(Basis.MF, -s.rank, s.degree - 2)


def _splittings(total: int, parts: int) -> list[tuple[int, ...]]:
    """Descending positive splittings of `total` into `parts` >= 2 parts."""
    # Grow every prefix by one part per round, largest first.  With `slots`
    # parts still to place out of `budget`, the next part is at most the
    # previous one and at least ceil(budget / slots); the last takes the rest.
    rows: list[tuple[int, ...]] = [()]
    for slots in range(parts, 1, -1):
        grown = []
        for row in rows:
            budget = total - sum(row)
            cap = min(row[-1] if row else total, budget - (slots - 1))
            grown.extend(row + (first,) for first in range(cap, -(-budget // slots) - 1, -1))
        rows = grown
    return [row + (total - sum(row),) for row in rows]


@dataclass(frozen=True)
class HyperellipticCandidate:
    scroll: ScrollData
    branch_class: DivisorClass
    realized_as: Optional[str] = None

    @property
    def status(self) -> str:
        return "realized" if self.realized_as else "numeric-only"


def hyperelliptic_candidates(g: int) -> list[HyperellipticCandidate]:
    """All rank-3 splittings with d_i > 0, sum d_i = g - 1, each with the
    branch class 4M + 2(2 - sum d_i) F = (4, 2(3-g))."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    # Fraction, not int: the branch class is rational in the JSON contract,
    # and the case-list payloads serialize these coordinates as they stand.
    branch = cls2(Basis.MF, Fraction(4), Fraction(2 * (3 - g)))
    return [
        HyperellipticCandidate(ScrollData(sp), branch)
        for sp in _splittings(g - 1, 3)
    ]


@dataclass(frozen=True)
class TrigonalCandidate:
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
    if g < 5:
        raise ValueError("genus must be >= 5")
    total = g - 2
    member = cls2(Basis.MF, 3, 2 - total)
    # Expanding scroll_intersection, X.G'.G^2 = 3*total + (2 - total) - 3k - 6
    # = 2*total - 3k - 4 for every splitting.  It decreases in k, so the
    # first negative value is at k0, and it exists exactly when d_1 >= k0.
    k0 = (2 * total - 4) // 3 + 1
    witness = Fraction(2 * total - 3 * k0 - 4)
    return [
        TrigonalCandidate(ScrollData(sp), member, *((witness, k0) if sp[0] >= k0 else ()))
        for sp in _splittings(total, 4)
    ]


def mark_realized(
    candidates: Sequence[HyperellipticCandidate | TrigonalCandidate],
    realized: dict[tuple[int, ...], str],
) -> list[HyperellipticCandidate | TrigonalCandidate]:
    """Annotate candidates whose splitting appears in the realized map
    (splitting -> catalog entry id); everything else keeps its status."""
    out = []
    for cand in candidates:
        entry = realized.get(cand.scroll.splitting)
        out.append(cand if entry is None else replace(cand, realized_as=entry))
    return out
