import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano3.exactcore import (
    Basis,
    BasisError,
    change_basis,
    cls2,
    eval_form,
    form2,
)

# the (-K, E) form of the line blowup on the genus-12 threefold
LINE_G12 = form2(Basis.KE, 18, 3, -2, 1)


def ke(a, b):
    return cls2(Basis.KE, a, b)


def test_full_anticanonical_cube():
    k = ke(1, 0)
    assert eval_form(LINE_G12, k, k, k) == 18


def test_zero_class_kills_product():
    z = ke(0, 0)
    assert eval_form(LINE_G12, z, ke(3, -4), ke(1, 1)) == 0


def test_hand_expansion_of_mixed_product():
    # (-K - E)^2 . (-K) = 18 - 2*3 + (-2)
    m = ke(1, -1)
    assert eval_form(LINE_G12, m, m, ke(1, 0)) == 10


def test_change_basis_stores_triple_products():
    m, f = ke(1, -1), ke(3, -4)
    g = change_basis(LINE_G12, [m, f], Basis.MF)
    assert g.values[0] == 2  # 18 - 9 - 6 - 1
    # every stored monomial must agree with direct evaluation
    picks = [m, f]
    for k in range(4):
        args = [picks[0]] * (3 - k) + [picks[1]] * k
        assert g.values[k] == eval_form(LINE_G12, *args)


def test_change_basis_identity():
    idy = change_basis(LINE_G12, [ke(1, 0), ke(0, 1)], Basis.KE)
    assert idy.values == LINE_G12.values


def test_change_basis_rejects_bad_bases():
    with pytest.raises(BasisError):
        change_basis(LINE_G12, [ke(1, -1), ke(2, -2)], Basis.MF)
    with pytest.raises(BasisError):
        change_basis(LINE_G12, [cls2(Basis.KE, Fraction(1, 2), 0), ke(0, 1)], Basis.MF)


def test_basis_mismatch_raises():
    with pytest.raises(BasisError):
        eval_form(LINE_G12, cls2(Basis.MF, 1, 0), ke(1, 0), ke(1, 0))


def test_rank1_form():
    from fano3.exactcore import DivisorClass, TrilinearForm

    f = TrilinearForm(Basis.H_ONLY, (5,), dim=3)
    h = DivisorClass(Basis.H_ONLY, (Fraction(2),))
    assert eval_form(f, h, h, h) == 40


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)
classes = st.tuples(rationals, rationals).map(lambda t: cls2(Basis.KE, *t))
forms = st.tuples(rationals, rationals, rationals, rationals).map(
    lambda t: form2(Basis.KE, *t)
)


@given(forms, classes, classes, classes)
def test_symmetry_under_all_permutations(f, d1, d2, d3):
    base = eval_form(f, d1, d2, d3)
    for p in itertools.permutations((d1, d2, d3)):
        assert eval_form(f, *p) == base


@given(forms, classes, classes, classes, rationals)
def test_multilinearity_first_slot(f, d1, d2, d3, s):
    lhs = eval_form(f, d1 + s * d2, d2, d3)
    rhs = eval_form(f, d1, d2, d3) + s * eval_form(f, d2, d2, d3)
    assert lhs == rhs


small_ints = st.integers(min_value=-4, max_value=4)


@given(
    st.tuples(small_ints, small_ints, small_ints, small_ints).filter(
        lambda t: abs(t[0] * t[3] - t[1] * t[2]) in (1, 2)
    ),
    st.tuples(small_ints, small_ints, small_ints, small_ints).map(
        lambda t: form2(Basis.KE, *t)
    ),
    st.tuples(small_ints, small_ints),
    st.tuples(small_ints, small_ints),
    st.tuples(small_ints, small_ints),
)
def test_change_basis_commutes_with_evaluation(mat, f, x, y, z):
    u, v = ke(mat[0], mat[1]), ke(mat[2], mat[3])
    g = change_basis(f, [u, v], Basis.MF)
    lhs = eval_form(
        g, cls2(Basis.MF, *x), cls2(Basis.MF, *y), cls2(Basis.MF, *z)
    )
    mapped = [x[0] * u + x[1] * v, y[0] * u + y[1] * v, z[0] * u + z[1] * v]
    assert lhs == eval_form(f, *mapped)
