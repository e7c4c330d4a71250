import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano3.blowup import CurveCenter, blowup_curve
from fano3.cli import main
from fano3.exactcore import (
    Basis,
    DivisorClass,
    TrilinearForm,
    change_basis,
    cls2,
    eval_form,
    form2,
)
from fano3.scrolls import ScrollData, scroll_intersection

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
    with pytest.raises(ValueError, match="new basis vectors are linearly dependent"):
        change_basis(LINE_G12, [ke(1, -1), ke(2, -2)], Basis.MF)
    with pytest.raises(ValueError, match="new basis vectors must have integer coordinates"):
        change_basis(LINE_G12, [cls2(Basis.KE, Fraction(1, 2), 0), ke(0, 1)], Basis.MF)
    with pytest.raises(ValueError, match="change_basis needs two basis vectors"):
        change_basis(LINE_G12, [ke(1, 0)], Basis.MF)


def test_basis_mismatch_raises():
    with pytest.raises(ValueError, match="class in basis MF against form in KE"):
        eval_form(LINE_G12, cls2(Basis.MF, 1, 0), ke(1, 0), ke(1, 0))
    with pytest.raises(ValueError, match="a class has 2 coordinates, got 1"):
        DivisorClass(Basis.KE, (Fraction(2),))
    with pytest.raises(ValueError, match="a form stores 4 values, got 3"):
        TrilinearForm(Basis.KE, (18, 3, -2))
    with pytest.raises(ValueError, match="a form stores 4 values, got 1"):
        TrilinearForm(Basis.KE, (5,))


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
    lhs = eval_form(f, ke(*(x + s * y for x, y in zip(d1.coords, d2.coords))), d2, d3)
    rhs = eval_form(f, d1, d2, d3) + s * eval_form(f, d2, d2, d3)
    assert lhs == rhs


small_ints = st.integers(min_value=-4, max_value=4)
int_classes = st.tuples(small_ints, small_ints).map(lambda t: cls2(Basis.KE, *t))
int_forms = st.tuples(small_ints, small_ints, small_ints, small_ints).map(
    lambda t: form2(Basis.KE, *t)
)


def _eval_form_expansion(form, d1, d2, d3):
    # the reference: pick e1 or e2 from each slot, 8 monomials in all
    total = Fraction(0)
    for picks in itertools.product((0, 1), repeat=3):
        coeff = Fraction(1)
        for d, i in zip((d1, d2, d3), picks):
            coeff *= d.coords[i]
        total += coeff * form.values[sum(picks)]
    return total


@given(forms, classes, classes, classes)
def test_closed_form_matches_expansion(f, d1, d2, d3):
    assert eval_form(f, d1, d2, d3) == _eval_form_expansion(f, d1, d2, d3)


@given(int_forms, int_classes, int_classes, int_classes)
def test_closed_form_matches_expansion_on_integers(f, d1, d2, d3):
    assert eval_form(f, d1, d2, d3) == _eval_form_expansion(f, d1, d2, d3)


def test_exact_core_carries_int():
    # integer data stays int through classes, forms, basis changes and scroll
    # products; the scroll JSON still declares every class coefficient rational
    assert all(type(c) is int for c in cls2(Basis.KE, 2, -1).coords)
    assert type(eval_form(LINE_G12, ke(1, -1), ke(3, -4), ke(0, 1))) is int
    g = change_basis(blowup_curve(22, CurveCenter(1, 0)), [ke(1, -1), ke(3, -4)], Basis.MF)
    assert all(type(v) is int for v in g.values)
    mf = [cls2(Basis.MF, 3, -4), cls2(Basis.MF, 1, -3), cls2(Basis.MF, 1, -1), cls2(Basis.MF, 1, -1)]
    assert type(scroll_intersection(ScrollData((2, 2, 1, 1)), mf)) is int
    assert type(eval_form(LINE_G12, ke(Fraction(1, 2), 0), ke(1, 0), ke(1, 0))) is Fraction

    exact = cls2(Basis.MF, Fraction(4), Fraction(-2))
    assert cls2(Basis.MF, 4, -2) == exact
    assert hash(cls2(Basis.MF, 4, -2)) == hash(exact)

    for argv, field in (
        (["scroll", "--weights", "2,1,1", "--canonical", "--json"], "canonical"),
        (["scroll", "--hyperelliptic", "9", "--json"], "branch"),
    ):
        out = io.StringIO()
        assert main(argv, out=out) == 0
        payload = json.loads(out.getvalue())
        rows = payload if isinstance(payload, list) else [payload]
        assert rows
        assert all(set(c) == {"num", "den"} for row in rows for c in row[field])


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
    # p[0]*u + p[1]*v, coordinate by coordinate
    mapped = [ke(*(p[0] * s + p[1] * t for s, t in zip(u.coords, v.coords))) for p in (x, y, z)]
    assert lhs == eval_form(f, *mapped)
