import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fano3.blowup import (
    CurveCenter,
    blowup_curve,
    blowup_point,
    pullback_form_curve,
)
from fano3.exactcore import Basis, change_basis, cls2, eval_form, form2


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
