"""Hilbert polynomials chi(t) = chi(O(tH)) of Fano varieties of coindex <= 3.

FanoNumerics alone decides which (n, iota, d) have one; d = H^n is an int,
as H is Cartier.  The polynomial is pinned down by its known integer roots
t = -1..-(iota-1), the symmetry chi(-iota-t) = (-1)^n chi(t), the leading
term d*t^n/n!, and chi(0) = 1; it is checked against h0_fundamental, the
section count chi(1) in closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Union

from fano3 import as_int

Rat = Union[int, Fraction]


class FanoNumerics(NamedTuple("FanoNumerics", [("dim", int), ("index", int), ("degree", int)])):
    """dim n, index iota, degree d = H^n; genus only in the coindex-3 case.
    An integral Fraction degree is stored as int; a non-integral one raises."""

    __slots__ = ()

    # _replace bypasses __new__: change a field through the constructor
    def __new__(cls, dim: int, index: int, degree: Rat) -> FanoNumerics:
        n, i, d = as_int(dim, "dim"), as_int(index, "index"), as_int(degree, "degree H^n")
        if n < 1 or i < 1 or i > n + 1:
            raise ValueError(f"need 1 <= iota <= n+1, got iota={i}, n={n}")
        if d <= 0:
            raise ValueError("degree must be positive")
        if i == n + 1 and d != 1:
            raise ValueError("iota = n+1 forces H^n = 1")
        if i == n and d != 2:
            raise ValueError("iota = n forces H^n = 2")
        if n + 1 - i == 3 and d % 2 != 0:
            raise ValueError("coindex 3 needs even integral degree d = 2g-2")
        return super().__new__(cls, n, i, d)

    @property
    def coindex(self) -> int:
        return self.dim + 1 - self.index

    @property
    def genus(self) -> int:
        if self.coindex != 3:
            raise ValueError("genus is defined only in coindex 3 (iota = n-2)")
        return self.degree // 2 + 1

    @classmethod
    def from_genus(cls, dim: int, genus: int) -> "FanoNumerics":
        if genus < 2:
            raise ValueError("genus must be >= 2")
        return cls(dim, dim - 2, 2 * genus - 2)


class HilbertPolynomial(NamedTuple):
    """chi(t) = sum(num[k] t^k) / den, ascending degree, length n+1, in
    lowest terms with den > 0."""

    num: tuple[int, ...]
    den: int

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The exact coefficients, ascending degree."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __call__(self, t: Rat) -> Rat:
        acc = 0
        for c in reversed(self.num):
            acc = acc * t + c
        q, r = divmod(acc, self.den)
        return q if r == 0 else Fraction(acc, self.den)


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def hilbert_polynomial(fn: FanoNumerics) -> HilbertPolynomial:
    """chi(O(tH)) for coindex <= 3, built from the symmetric root pattern and
    checked against chi(0) = 1 and the closed form h0_fundamental = chi(1).

    chi(t) = (d/n!) (t+1)...(t+iota-1) Q(t), where Q carries the remaining
    roots, symmetric about t = -iota/2 and fixed by chi(0) = 1:
    1, (2t + iota)/2, (d t^2 + d iota t + n(n-1))/d and
    (2t + iota)(d t^2 + d iota t + 2n(n-1))/(2d) for coindex 0..3.  The
    product is built on integer numerators over one common denominator.
    """
    n, iota, d = fn.dim, fn.index, fn.degree
    c = fn.coindex
    if c > 3:
        raise ValueError(f"coindex {c} > 3 is outside the derivation")
    # known roots at t = -1, ..., -(iota-1)
    poly = [1]
    for k in range(1, iota):
        poly = _poly_mul(poly, [k, 1])
    # rest / rest_den = d Q(t); the factor d clears Q's 1/d in coindex 2 and 3
    if c == 0:
        rest, rest_den = [d], 1
    elif c == 1:
        rest, rest_den = [d * iota, 2 * d], 2
    elif c == 2:
        rest, rest_den = [n * (n - 1), d * iota, d], 1
    else:
        rest, rest_den = _poly_mul([iota, 2], [2 * n * (n - 1), d * iota, d]), 2
    num = _poly_mul(poly, rest)
    den = math.factorial(n) * rest_den
    g = math.gcd(den, *num)
    chi = HilbertPolynomial(tuple(v // g for v in num), den // g)
    if chi(0) != 1:
        raise ArithmeticError("normalization chi(0) = 1 failed")
    h0 = h0_fundamental(fn)
    if chi(1) != h0:
        raise ArithmeticError(f"section count {h0} disagrees with chi(1) = {chi(1)}")
    return chi


def h0_fundamental(fn: FanoNumerics) -> int:
    """dim H^0(O(H)) = n+1, n+2, n+d-1, n+g-1 for coindex 0, 1, 2, 3, in
    closed form; hilbert_polynomial checks it against chi(1)."""
    n, d = fn.dim, fn.degree
    c = fn.coindex
    if c == 0:
        return n + 1
    if c == 1:
        return n + 2
    if c == 2:
        return n + d - 1
    if c == 3:
        return n + fn.genus - 1
    raise ValueError(f"coindex {c} > 3")

