import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano3.riemannroch import FanoNumerics, h0_fundamental, hilbert_polynomial


def monomial_count(degree: int, nvars: int) -> int:
    """Brute-force count of monomials of the given total degree."""
    return sum(
        1
        for exps in _compositions(degree, nvars)
    )


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def test_chi_one_is_g_plus_2_at_genus_12():
    chi = hilbert_polynomial(FanoNumerics.from_genus(3, 12))
    assert chi(1) == 14


def test_chi_zero_is_one():
    for fn in (
        FanoNumerics(3, 4, 1),
        FanoNumerics(3, 3, 2),
        FanoNumerics(3, 2, 5),
        FanoNumerics.from_genus(3, 7),
    ):
        assert hilbert_polynomial(fn)(0) == 1


def test_quartic_sections_against_monomial_count():
    # h^0(O(2)) on a quartic threefold in P4 equals the count of degree-2
    # monomials in 5 variables (the ideal starts in degree 4)
    expected = monomial_count(2, 5)
    assert expected == 15
    chi = hilbert_polynomial(FanoNumerics.from_genus(3, 3))
    assert chi(2) == expected


def test_cubic_sections_against_monomial_count():
    # h^0(O(3)) on the cubic threefold: degree-3 monomials minus the
    # multiples of the defining cubic (degree-0 coefficients)
    expected = monomial_count(3, 5) - monomial_count(0, 5)
    chi = hilbert_polynomial(FanoNumerics(3, 2, 3))
    assert chi(3) == expected == 34


def test_quadric_sections_against_monomial_count():
    expected = monomial_count(3, 5) - monomial_count(1, 5)
    chi = hilbert_polynomial(FanoNumerics(3, 3, 2))
    assert chi(3) == expected == 30


@pytest.mark.parametrize(
    "fn,expected",
    [
        (FanoNumerics(3, 4, 1), 4),
        (FanoNumerics(3, 2, 5), 7),
        (FanoNumerics.from_genus(3, 10), 12),
    ],
)
def test_h0_fundamental(fn, expected):
    assert h0_fundamental(fn) == expected


def test_genus_degree_roundtrip():
    assert FanoNumerics(3, 1, 22).genus == 12
    assert FanoNumerics(3, 1, 2).genus == 2
    assert FanoNumerics.from_genus(3, 2).degree == 2
    with pytest.raises(ValueError, match="coindex 3 needs even integral degree d = 2g-2"):
        FanoNumerics(3, 1, 7)


def test_degree_is_an_integer():
    # H is Cartier, so H^n is an integer at every coindex; an integral
    # Fraction is stored as int
    for degree in (Fraction(7, 3), Fraction(41, 8)):
        with pytest.raises(ValueError, match="degree H\\^n must be an integer"):
            FanoNumerics(3, 2, degree)
    degree = FanoNumerics(3, 2, Fraction(10, 2)).degree
    assert (type(degree), degree) == (int, 5)


# the threefold closed forms, kept here as the independent route that
# hilbert_polynomial is checked against
def threefold_h0_index1(g: int, t: int) -> int:
    """(g-1) t (t+1) (2t+1) / 6 + 2t + 1, valid for t >= 0."""
    if t < 0:
        raise ValueError("closed form is stated for t >= 0")
    return (g - 1) * t * (t + 1) * (2 * t + 1) // 6 + 2 * t + 1


def threefold_h0_index2(d: int, t: int) -> int:
    """t (t+2) (2t+2) d / 12 + t + 1, valid for t > -2."""
    if t <= -2:
        raise ValueError("closed form is stated for t > -2")
    val = Fraction(t * (t + 2) * (2 * t + 2) * d, 12) + t + 1
    if val.denominator != 1:
        raise ArithmeticError(f"non-integral section count {val}")
    return int(val)


def test_explicit_threefold_forms_match_polynomial():
    for g in range(2, 13):
        chi = hilbert_polynomial(FanoNumerics.from_genus(3, g))
        for t in range(0, 8):
            assert chi(t) == threefold_h0_index1(g, t)
    for d in range(1, 6):
        chi = hilbert_polynomial(FanoNumerics(3, 2, d))
        for t in range(-1, 8):
            assert chi(t) == threefold_h0_index2(d, t)
    with pytest.raises(ValueError, match="closed form is stated for t >= 0"):
        threefold_h0_index1(12, -1)
    with pytest.raises(ValueError, match="closed form is stated for t > -2"):
        threefold_h0_index2(5, -2)


def test_coindex_guard():
    with pytest.raises(ValueError, match="coindex 5 > 3 is outside the derivation"):
        hilbert_polynomial(FanoNumerics(5, 1, 2))
    with pytest.raises(ValueError, match="coindex 5 > 3"):
        h0_fundamental(FanoNumerics(5, 1, 2))
    with pytest.raises(ValueError, match=r"genus is defined only in coindex 3 \(iota = n-2\)"):
        FanoNumerics(3, 2, 5).genus  # genus only in the coindex-3 case


valid_numerics = st.one_of(
    st.integers(1, 3).map(lambda n: FanoNumerics(n, n + 1, 1)),
    st.integers(1, 3).map(lambda n: FanoNumerics(n, n, 2)),
    st.tuples(st.integers(2, 3), st.integers(1, 40)).map(
        lambda t: FanoNumerics(t[0], t[0] - 1, t[1])
    ),
    st.integers(2, 40).map(lambda g: FanoNumerics.from_genus(3, g)),
)


def _fraction_hilbert_coeffs(fn):
    """The polynomial built directly in Fraction arithmetic, as a test oracle."""
    n, iota, d = fn.dim, fn.index, fn.degree
    half = Fraction(iota, 2)

    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    poly = [Fraction(1)]
    for k in range(1, iota):
        poly = mul(poly, [Fraction(k), Fraction(1)])
    if fn.coindex == 1:
        poly = mul(poly, [half, Fraction(1)])
    elif fn.coindex == 2:
        s = Fraction(n * (n - 1), 1) / d - half**2
        poly = mul(poly, [half**2 + s, 2 * half, Fraction(1)])
    elif fn.coindex == 3:
        a = Fraction(2 * n * (n - 1), 1) / d - half**2
        poly = mul(poly, [half, Fraction(1)])
        poly = mul(poly, [half**2 + a, 2 * half, Fraction(1)])
    lead = d / Fraction(math.factorial(n))
    return tuple(lead * v for v in poly)


def _assert_matches_oracle(fn, t):
    chi = hilbert_polynomial(fn)
    coeffs = _fraction_hilbert_coeffs(fn)
    assert chi.coeffs == coeffs
    value = chi(t)
    assert type(value) is int
    assert value == sum(c * t**k for k, c in enumerate(coeffs))
    half = Fraction(2 * t + 1, 2)
    assert chi(half) == sum(c * half**k for k, c in enumerate(coeffs))


@given(valid_numerics, st.integers(-10, 10))
def test_integer_construction_matches_fraction_oracle(fn, t):
    _assert_matches_oracle(fn, t)


@pytest.mark.parametrize(
    "fn",
    [FanoNumerics(100, 101, 1), FanoNumerics(100, 100, 2), FanoNumerics(100, 99, 5),
     FanoNumerics.from_genus(100, 12)],
    ids=["coindex0", "coindex1", "coindex2", "coindex3"],
)
def test_integer_construction_matches_fraction_oracle_at_dim_100(fn):
    _assert_matches_oracle(fn, 7)


@given(valid_numerics, st.integers(-10, 10))
def test_serre_functional_equation(fn, t):
    chi = hilbert_polynomial(fn)
    assert chi(-fn.index - t) == (-1) ** fn.dim * chi(t)


@given(valid_numerics)
def test_vanishing_at_interior_roots_and_normalization(fn):
    chi = hilbert_polynomial(fn)
    assert chi(0) == 1
    assert chi.coeffs[-1] == Fraction(fn.degree, math.factorial(fn.dim))
    assert len(chi.coeffs) == fn.dim + 1
    for k in range(1, fn.index):
        assert chi(-k) == 0


@given(valid_numerics)
def test_h0_equals_chi_at_one(fn):
    assert h0_fundamental(fn) == hilbert_polynomial(fn)(1)


@given(st.integers(2, 40))
def test_discrete_derivative_leading_coefficient(g):
    # chi(t) - chi(t-1) is quadratic with leading coefficient g - 1
    chi = hilbert_polynomial(FanoNumerics.from_genus(3, g))
    diff = lambda t: chi(t) - chi(t - 1)
    second = [diff(t + 1) - 2 * diff(t) + diff(t - 1) for t in range(-3, 4)]
    assert all(v == 2 * (g - 1) for v in second)


# each invariant is broken on purpose in a `python -O` child, where a bare
# assert would be stripped; every one must still raise
OPTIMIZED_CHECKS = """
from fractions import Fraction
from fano3 import cli, riemannroch, wps

def raises(call):
    try:
        call()
    except ArithmeticError:
        return True
    return False

fn = riemannroch.FanoNumerics(3, 1, 22)
riemannroch.h0_fundamental = lambda fn: 13
seen = [raises(lambda: cli.main(["rr", "--dim", "3", "--index", "1", "--genus", "12"]))]
seen.append(raises(lambda: riemannroch.hilbert_polynomial(fn)))
riemannroch.HilbertPolynomial.__call__ = lambda self, t: Fraction(2)
seen.append(raises(lambda: riemannroch.hilbert_polynomial(fn)))
wps.is_well_formed = lambda w: False
seen.append(raises(lambda: wps.normalize(wps.WeightSystem((1, 1, 2)))))
print(seen)
"""


def test_invariant_checks_survive_python_optimize():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS], env=env, capture_output=True, text=True
    )
    assert proc.stdout == "[True, True, True, True]\n", proc.stderr
