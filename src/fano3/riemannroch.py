"""Hilbert polynomials chi(t) = chi(O(tH)) of Fano varieties of coindex <= 3.

The polynomial is pinned down by its known integer roots t = -1..-(iota-1),
the symmetry chi(-iota-t) = (-1)^n chi(t), the leading term d*t^n/n!, and
chi(0) = 1.  Explicit threefold closed forms are provided alongside as an
independent route.
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
    """chi(t) with exact coefficients, ascending degree, length n+1."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    def __call__(self, t: Rat) -> Fraction:
        tt = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * tt + c
        return acc


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def hilbert_polynomial(fn: FanoNumerics) -> HilbertPolynomial:
    """chi(O(tH)) for coindex <= 3, built from the symmetric root pattern."""
    n, iota, d = fn.dim, fn.index, fn.degree
    c = fn.coindex
    if c > 3:
        raise ValueError(f"coindex {c} > 3 is outside the derivation")
    half = Fraction(iota, 2)
    # known roots at t = -1, ..., -(iota-1)
    poly = [Fraction(1)]
    for k in range(1, iota):
        poly = _poly_mul(poly, [Fraction(k), Fraction(1)])
    if c == 1:
        poly = _poly_mul(poly, [half, Fraction(1)])
    elif c == 2:
        # (t + iota/2)^2 + s with s fixed by chi(0) = 1
        s = Fraction(n * (n - 1), 1) / d - half**2
        poly = _poly_mul(poly, [half**2 + s, 2 * half, Fraction(1)])
    elif c == 3:
        a = Fraction(2 * n * (n - 1), 1) / d - half**2
        poly = _poly_mul(poly, [half, Fraction(1)])
        poly = _poly_mul(poly, [half**2 + a, 2 * half, Fraction(1)])
    lead = d / Fraction(math.factorial(n))
    coeffs = tuple(lead * v for v in poly)
    chi = HilbertPolynomial(coeffs)
    if chi(0) != 1:
        raise ArithmeticError("normalization chi(0) = 1 failed")
    return chi


def h0_fundamental(fn: FanoNumerics) -> int:
    """dim H^0(O(H)) = n+1, n+2, n+d-1, n+g-1 for coindex 0, 1, 2, 3."""
    n, d = fn.dim, fn.degree
    c = fn.coindex
    if c == 0:
        value = n + 1
    elif c == 1:
        value = n + 2
    elif c == 2:
        value = n + int(d) - 1
    elif c == 3:
        value = n + fn.genus - 1
    else:
        raise ValueError(f"coindex {c} > 3")
    chi1 = hilbert_polynomial(fn)(1)
    if chi1 != value:
        raise ArithmeticError(f"section count {value} disagrees with chi(1) = {chi1}")
    return value


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
