"""Hilbert polynomials chi(t) = chi(O(tH)) of Fano varieties of coindex <= 3.

The polynomial is pinned down by its known integer roots t = -1..-(iota-1),
the symmetry chi(-iota-t) = (-1)^n chi(t), the leading term d*t^n/n!, and
chi(0) = 1.  h0_fundamental gives the section count chi(1) in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class FanoNumerics:
    """dim n, index iota, degree d = H^n; genus only in the coindex-3 case."""

    dim: int
    index: int
    degree: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", Fraction(self.degree))
        n, i, d = self.dim, self.index, self.degree
        if n < 1 or i < 1 or i > n + 1:
            raise ValueError(f"need 1 <= iota <= n+1, got iota={i}, n={n}")
        if d <= 0:
            raise ValueError("degree must be positive")
        if i == n + 1 and d != 1:
            raise ValueError("iota = n+1 forces H^n = 1")
        if i == n and d != 2:
            raise ValueError("iota = n forces H^n = 2")
        if self.coindex == 3 and (d.denominator != 1 or int(d) % 2 != 0):
            raise ValueError("coindex 3 needs even integral degree d = 2g-2")

    @property
    def coindex(self) -> int:
        return self.dim + 1 - self.index

    @property
    def genus(self) -> int:
        if self.coindex != 3:
            raise ValueError("genus is defined only in coindex 3 (iota = n-2)")
        return int(self.degree) // 2 + 1

    @classmethod
    def from_genus(cls, dim: int, genus: int) -> "FanoNumerics":
        if genus < 2:
            raise ValueError("genus must be >= 2")
        return cls(dim, dim - 2, 2 * genus - 2)


@dataclass(frozen=True)
class HilbertPolynomial:
    """chi(t) = sum(num[k] t^k) / den, ascending degree, length n+1, in
    lowest terms with den > 0."""

    num: tuple[int, ...]
    den: int

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The exact coefficients, ascending degree."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __call__(self, t: Rat) -> Rat:
        # Horner on t = a/b, homogenized: sum num[k] a^k b^(n-k) over den b^n
        a, b = t.numerator, t.denominator
        acc, bk = 0, 1
        for c in reversed(self.num):
            acc = acc * a + c * bk
            bk *= b
        den = self.den * bk // b
        q, r = divmod(acc, den)
        return q if r == 0 else Fraction(acc, den)


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def hilbert_polynomial(fn: FanoNumerics) -> HilbertPolynomial:
    """chi(O(tH)) for coindex <= 3, built from the symmetric root pattern.

    chi(t) = (d/n!) (t+1)...(t+iota-1) Q(t) with d = p/q, where Q carries the
    remaining roots, symmetric about t = -iota/2 and fixed by chi(0) = 1:
    1, (2t + iota)/2, (p t^2 + p iota t + n(n-1) q)/p and
    (2t + iota)(p t^2 + p iota t + 2n(n-1) q)/(2p) for coindex 0..3.  The
    product is built on integer numerators over one common denominator.
    """
    n, iota = fn.dim, fn.index
    p, q = fn.degree.numerator, fn.degree.denominator
    c = fn.coindex
    if c > 3:
        raise ValueError(f"coindex {c} > 3 is outside the derivation")
    # known roots at t = -1, ..., -(iota-1)
    poly = [1]
    for k in range(1, iota):
        poly = _poly_mul(poly, [k, 1])
    # rest / rest_den = p Q(t); the factor p clears Q's 1/p in coindex 2 and 3
    if c == 0:
        rest, rest_den = [p], 1
    elif c == 1:
        rest, rest_den = [p * iota, 2 * p], 2
    elif c == 2:
        rest, rest_den = [n * (n - 1) * q, p * iota, p], 1
    else:
        rest, rest_den = _poly_mul([iota, 2], [2 * n * (n - 1) * q, p * iota, p]), 2
    num = _poly_mul(poly, rest)
    den = q * math.factorial(n) * rest_den
    g = math.gcd(den, *num)
    chi = HilbertPolynomial(tuple(v // g for v in num), den // g)
    if chi(0) != 1:
        raise ArithmeticError("normalization chi(0) = 1 failed")
    return chi


def h0_fundamental(fn: FanoNumerics) -> int:
    """dim H^0(O(H)) = n+1, n+2, n+d-1, n+g-1 for coindex 0, 1, 2, 3, in
    closed form; a caller holding chi checks it against chi(1)."""
    n, d = fn.dim, fn.degree
    c = fn.coindex
    if c == 0:
        return n + 1
    if c == 1:
        return n + 2
    if c == 2:
        return n + int(d) - 1
    if c == 3:
        return n + fn.genus - 1
    raise ValueError(f"coindex {c} > 3")

