"""Intersection calculus for blowups of points and smooth curves in threefolds.

Conventions: blowing up a smooth curve Z gives K = sigma^*K_V + E; blowing up
a point gives K = sigma^*K_V + 2E with E^3 = 1.  All output forms live on the
basis (-K_tilde, E); the raw pullback basis (sigma^*(-K_V), E) is exposed for
cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from fano3.exactcore import Basis, TrilinearForm, form2

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class CurveCenter:
    """Smooth curve Z with (-K_V).Z = deg_antik and genus g(Z)."""

    deg_antik: int
    genus: int

    def __post_init__(self) -> None:
        if self.deg_antik < 1:
            raise ValueError("centers on Fano varieties have (-K).Z >= 1")
        if self.genus < 0:
            raise ValueError("genus must be >= 0")


@dataclass(frozen=True)
class PointCenter:
    """Marker for a point center."""


def pullback_form_curve(antik_cube: Rat, center: CurveCenter) -> TrilinearForm:
    """Form on (sigma^*(-K_V), E): (c, 0, -deg, 2 - 2g - deg)."""
    c = Fraction(antik_cube)
    d0, h = center.deg_antik, center.genus
    return form2(Basis.SIGMA, c, 0, -d0, 2 - 2 * h - d0)


def blowup_curve(antik_cube: Rat, center: CurveCenter) -> TrilinearForm:
    """Form on (-K_tilde, E) for the blowup of a smooth curve.

    With c = (-K_V)^3, d0 = (-K_V).Z, h = g(Z):
        (-K)^3   = c - 2 d0 + 2h - 2
        (-K)^2 E = d0 - 2h + 2
        (-K) E^2 = 2h - 2
        E^3      = 2 - 2h - d0
    """
    c = Fraction(antik_cube)
    if c <= 0:
        raise ValueError("antik_cube must be positive")
    d0, h = center.deg_antik, center.genus
    return form2(
        Basis.KE,
        c - 2 * d0 + 2 * h - 2,
        d0 - 2 * h + 2,
        2 * h - 2,
        2 - 2 * h - d0,
    )


def blowup_point(antik_cube: Rat) -> TrilinearForm:
    """Form on (-K_tilde, E) for the blowup of a point: (c - 8, 4, -2, 1).

    Raises ValueError for c <= 0, as blowup_curve does.  A positive c with
    (-K_tilde)^3 <= 0 is flagged (TrilinearForm.not_big), not rejected.
    """
    c = Fraction(antik_cube)
    if c <= 0:
        raise ValueError("antik_cube must be positive")
    return form2(Basis.KE, c - 8, 4, -2, 1)
