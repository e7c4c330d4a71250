"""Intersection calculus for blowups of points and smooth curves in threefolds.

Conventions: blowing up a smooth curve Z gives K = sigma^*K_V + E; blowing up
a point gives K = sigma^*K_V + 2E with E^3 = 1.  All output forms live on the
basis (-K_tilde, E); the raw pullback basis (sigma^*(-K_V), E) is exposed for
cross-checks.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from fano3 import as_int
from fano3.exactcore import Basis, Rat, TrilinearForm, form2


class CurveCenter(NamedTuple("CurveCenter", [("deg_antik", int), ("genus", int)])):
    """Smooth curve Z with (-K_V).Z = deg_antik and genus g(Z)."""

    __slots__ = ()

    # _replace bypasses __new__: change a field through the constructor
    def __new__(cls, deg_antik: int, genus: int) -> CurveCenter:
        deg_antik, genus = as_int(deg_antik, "deg_antik"), as_int(genus, "genus")
        if deg_antik < 1:
            raise ValueError("centers on Fano varieties have (-K).Z >= 1")
        if genus < 0:
            raise ValueError("genus must be >= 0")
        return super().__new__(cls, deg_antik, genus)


class PointCenter(NamedTuple):
    """Marker for a point center."""


def vanishing_conditions(center: CurveCenter | PointCenter, t: int, k: int) -> int:
    """chi(V, -tK_V) - chi(V_tilde, sigma^*(-tK_V) - kE), the conditions to
    vanish to order k along Z: the chi of the layers O_Z(-tK_V) (x) Sym^j N*_Z,
    j < k.  At a point layer j has length C(j + 2, 2); on a curve of genus h
    it has rank j + 1 and degree (j + 1)t*d0 - C(j + 1, 2)(d0 + 2h - 2), as
    deg N_Z = d0 + 2h - 2.  The tests check the sum by Hirzebruch-Riemann-Roch
    with c2(V_tilde).E = d0 (Fulton, Intersection Theory, 15.4)."""
    if k < 0:
        raise ValueError(f"vanishing order must be >= 0, got {k}")
    if isinstance(center, PointCenter):
        return comb(k + 2, 3)
    d0, h = center.deg_antik, center.genus
    return comb(k + 1, 2) * (t * d0 + 1 - h) - comb(k + 1, 3) * (d0 + 2 * h - 2)


def pullback_form_curve(antik_cube: Rat, center: CurveCenter) -> TrilinearForm:
    """Form on (sigma^*(-K_V), E): (c, 0, -deg, 2 - 2g - deg)."""
    d0, h = center.deg_antik, center.genus
    return form2(Basis.SIGMA, antik_cube, 0, -d0, 2 - 2 * h - d0)


def blowup_curve(antik_cube: Rat, center: CurveCenter) -> TrilinearForm:
    """Form on (-K_tilde, E) for the blowup of a smooth curve.

    With c = (-K_V)^3, d0 = (-K_V).Z, h = g(Z):
        (-K)^3   = c - 2 d0 + 2h - 2
        (-K)^2 E = d0 - 2h + 2
        (-K) E^2 = 2h - 2
        E^3      = 2 - 2h - d0
    """
    if antik_cube <= 0:
        raise ValueError("antik_cube must be positive")
    d0, h = center.deg_antik, center.genus
    return form2(
        Basis.KE,
        antik_cube - 2 * d0 + 2 * h - 2,
        d0 - 2 * h + 2,
        2 * h - 2,
        2 - 2 * h - d0,
    )


def blowup_point(antik_cube: Rat) -> TrilinearForm:
    """Form on (-K_tilde, E) for the blowup of a point: (c - 8, 4, -2, 1).

    Raises ValueError for c <= 0, as blowup_curve does.  A positive c with
    (-K_tilde)^3 <= 0 is flagged (TrilinearForm.not_big), not rejected.
    """
    if antik_cube <= 0:
        raise ValueError("antik_cube must be positive")
    return form2(Basis.KE, antik_cube - 8, 4, -2, 1)
