from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fano3.blowup import (
    CurveCenter,
    PointCenter,
    blowup_curve,
    blowup_point,
    pullback_form_curve,
    vanishing_conditions,
)
from fano3.exactcore import Basis, change_basis, cls2, eval_form, form2
from fano3.riemannroch import FanoNumerics, hilbert_polynomial


def quad(form):
    return tuple(int(v) for v in form.values)


@pytest.mark.parametrize(
    "cube,deg,genus,expected",
    [
        (22, 1, 0, (18, 3, -2, 1)),  # line on the genus-12 threefold
        (18, 2, 0, (12, 4, -2, 0)),  # conic on the genus-10 threefold
        (40, 2, 0, (34, 4, -2, 0)),  # line on the quintic del Pezzo threefold
    ],
)
def test_curve_blowup_quadruples(cube, deg, genus, expected):
    assert quad(blowup_curve(cube, CurveCenter(deg, genus))) == expected


def test_index2_line_blowup_against_pullback_oracle():
    # fundamental-class data on the blowup of a line on V5: (5, 0, -1, 0);
    # -K = 2H* - E must reproduce blowup_curve(40, (2, 0))
    hstar = form2(Basis.SIGMA, 5, 0, -1, 0)
    mapped = change_basis(
        hstar, [cls2(Basis.SIGMA, 2, -1), cls2(Basis.SIGMA, 0, 1)], Basis.KE
    )
    assert mapped.values == blowup_curve(40, CurveCenter(2, 0)).values


def test_index2_link_midpoint_values():
    # the second contraction data on the blowup of a line on V5:
    # (H*-E)^2 (H*-mE) = 4 - 2m forces m = 2, and the contracted divisor
    # H*-2E meets (H*-E) in a twisted cubic: (H*-E)(H*-2E)^2 = -3
    hstar = form2(Basis.SIGMA, 5, 0, -1, 0)
    m1 = cls2(Basis.SIGMA, 1, -1)
    e = cls2(Basis.SIGMA, 0, 1)
    for m in (1, 2, 3):
        d = cls2(Basis.SIGMA, 1, -m)
        assert eval_form(hstar, m1, m1, d) == 4 - 2 * m
    assert eval_form(hstar, m1, cls2(Basis.SIGMA, 1, -2), cls2(Basis.SIGMA, 1, -2)) == -3
    assert eval_form(hstar, m1, m1, e) == 2


@pytest.mark.parametrize("g", range(4, 13))
def test_anticanonical_base_curve_instance(g):
    # blowing up the base curve of the anticanonical system: on the pullback
    # basis the quadruple is (2g-2, 0, 2-g, 4-g)
    center = CurveCenter(g - 2, 0)
    sigma = pullback_form_curve(2 * g - 2, center)
    assert tuple(sigma.values) == (2 * g - 2, 0, 2 - g, 4 - g)
    ke = blowup_curve(2 * g - 2, center)
    assert ke.values[3] == 4 - g
    assert ke.values[0] == 0 and ke.not_big


@pytest.mark.parametrize(
    "cube,expected,not_big",
    [(22, (14, 4, -2, 1), False), (12, (4, 4, -2, 1), False), (8, (0, 4, -2, 1), True)],
)
def test_point_blowup(cube, expected, not_big):
    form = blowup_point(cube)
    assert quad(form) == expected
    assert form.not_big is not_big


def test_anticanonical_cube_formulas():
    for g in range(2, 15):
        assert blowup_curve(2 * g - 2, CurveCenter(1, 0)).values[0] == 2 * g - 6
        assert blowup_curve(2 * g - 2, CurveCenter(2, 0)).values[0] == 2 * g - 8
    assert blowup_curve(8, CurveCenter(2, 1)).values[0] == 4
    with pytest.raises(ValueError, match="genus must be >= 0"):
        CurveCenter(1, -1)


@settings(max_examples=200)
@given(
    st.integers(1, 80),
    st.integers(1, 12),
    st.integers(0, 6),
)
def test_ke_form_agrees_with_pullback_expansion(cube, deg, genus):
    center = CurveCenter(deg, genus)
    sigma = pullback_form_curve(cube, center)
    mapped = change_basis(
        sigma, [cls2(Basis.SIGMA, 1, -1), cls2(Basis.SIGMA, 0, 1)], Basis.KE
    )
    assert mapped.values == blowup_curve(cube, center).values


def test_genus_zero_exhaustive_cube_drop():
    for c in range(1, 61):
        for d0 in range(1, 11):
            form = blowup_curve(c, CurveCenter(d0, 0))
            assert form.values[0] == c - 2 * d0 - 2


def test_point_quadruple_shape_differs_from_curves():
    # the fixed point-blowup shape (., 4, -2, 1) never matches a genus-0
    # curve blowup with the same leading value
    for c in range(9, 40):
        point = blowup_point(c)
        curve = blowup_curve(c - 2, CurveCenter(2, 0))  # same (-K)^3, E^3 = 0
        assert point.values[0] == curve.values[0]
        assert point.values[3] != curve.values[3]


def _hrr_chi(form, d, c2_e):
    """chi(O(D)) on a blowup V_tilde of (-K, E)-form `form` by
    Hirzebruch-Riemann-Roch, with c1 = -K_tilde, c2.(-K_tilde) = 24 (so
    chi(O) = c1.c2/24 = 1) and c2.E = c2_e."""
    k = cls2(Basis.KE, 1, 0)
    c2_d = 24 * d.coords[0] + c2_e * d.coords[1]
    return (
        Fraction(eval_form(form, d, d, d), 6)
        + Fraction(eval_form(form, d, d, k), 4)
        + Fraction(eval_form(form, d, k, k) + c2_d, 12)
        + 1
    )


@pytest.mark.parametrize("g", [2, 5, 7, 12])
def test_vanishing_conditions_against_hirzebruch_riemann_roch(g):
    # sigma^*(-tK) - kE is t(-K_tilde) + (t - k)E over a curve, as K_tilde =
    # sigma^*K + E, and t(-K_tilde) + (2t - k)E over a point, as K_tilde =
    # sigma^*K + 2E; c2(V_tilde).E is (-K).Z over a curve and 0 over a point
    chi = hilbert_polynomial(FanoNumerics.from_genus(3, g))
    cube = 2 * g - 2
    cases = [
        (CurveCenter(d0, h), blowup_curve(cube, CurveCenter(d0, h)), 1, d0)
        for d0 in range(1, 8)
        for h in range(4)
    ]
    cases.append((PointCenter(), blowup_point(cube), 2, 0))
    for center, form, e_pull, c2_e in cases:
        for t in range(5):
            for k in range(5):
                d = cls2(Basis.KE, t, e_pull * t - k)
                expected = chi(t) - _hrr_chi(form, d, c2_e)
                assert vanishing_conditions(center, t, k) == expected, (center, t, k)


def test_vanishing_conditions_of_the_link_cells():
    # order 2 along a curve and 3 at a point: h^0(-K_tilde - E) >= g + 2 - c
    assert vanishing_conditions(CurveCenter(1, 0), 1, 2) == 7  # line
    assert vanishing_conditions(CurveCenter(2, 0), 1, 2) == 9  # conic
    assert vanishing_conditions(PointCenter(), 1, 3) == 10
    # 2*d0 + 5 - 5h off the rational curves
    assert [vanishing_conditions(CurveCenter(d0, h), 1, 2) for d0, h in [(3, 0), (4, 1), (6, 3)]] == [11, 8, 2]


def test_vanishing_conditions_reject_a_negative_order():
    for center in (CurveCenter(1, 0), PointCenter()):
        with pytest.raises(ValueError, match="vanishing order must be >= 0, got -1"):
            vanishing_conditions(center, 1, -1)
