"""Exact trilinear intersection forms on rank-1 and rank-2 lattices.

A rank-2 form stores the four monomial values (e1^3, e1^2*e2, e1*e2^2, e2^3)
on a named ordered basis; everything else is multilinear expansion over
exact rationals.  A rank-1 form stores H^n together with the dimension n.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rat = Union[int, Fraction]


class BasisError(ValueError):
    """Mismatched or degenerate bases in a lattice operation."""


class Basis(str, enum.Enum):
    # (-K, E) on the blowup; the working basis for all Sarkisov-link systems.
    KE = "KE"
    # (M, F) tautological/fiber classes on a scroll or on the far side of a link.
    MF = "MF"
    # rank-1 lattice generated by the fundamental divisor.
    H_ONLY = "H"
    # pullback basis (sigma^*A, E) on a blowup, before switching to (-K, E).
    SIGMA = "SIGMA"

    def __str__(self) -> str:  # keeps CLI/JSON output compact
        return self.value


@dataclass(frozen=True)
class DivisorClass:
    """Exact coefficient vector in a declared ordered basis."""

    basis: Basis
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))
        if len(self.coords) not in (1, 2):
            raise BasisError(f"rank must be 1 or 2, got {len(self.coords)}")

    @property
    def rank(self) -> int:
        return len(self.coords)

    def _check(self, other: "DivisorClass") -> None:
        if self.basis is not other.basis or self.rank != other.rank:
            raise BasisError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(self.basis, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(self.basis, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, scalar: Rat) -> "DivisorClass":
        s = Fraction(scalar)
        return DivisorClass(self.basis, tuple(s * a for a in self.coords))

    def __neg__(self) -> "DivisorClass":
        return -1 * self

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)


def cls2(basis: Basis, a: Rat, b: Rat) -> DivisorClass:
    return DivisorClass(basis, (Fraction(a), Fraction(b)))


@dataclass(frozen=True)
class TrilinearForm:
    """Symmetric 3-form stored by its values on basis monomials.

    rank 2: values = (e1^3, e1^2*e2, e1*e2^2, e2^3).
    rank 1: values = (H^n,) and `dim` records n so H^n is unambiguous.
    """

    basis: Basis
    values: tuple[Fraction, ...]
    dim: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if len(self.values) not in (1, 4):
            raise BasisError("rank-1 forms store one value, rank-2 forms store four")

    @property
    def rank(self) -> int:
        return 1 if len(self.values) == 1 else 2

    @property
    def not_big(self) -> bool:
        """True when the leading self-intersection (e1^3 resp. H^n) is <= 0."""
        return self.values[0] <= 0


def form2(basis: Basis, c30: Rat, c21: Rat, c12: Rat, c03: Rat) -> TrilinearForm:
    return TrilinearForm(basis, (Fraction(c30), Fraction(c21), Fraction(c12), Fraction(c03)))


def eval_form(
    form: TrilinearForm,
    d1: DivisorClass,
    d2: DivisorClass,
    d3: DivisorClass,
) -> Fraction:
    """Full trilinear expansion of d1.d2.d3 over the stored monomial values."""
    classes = (d1, d2, d3)
    for d in classes:
        if d.basis is not form.basis:
            raise BasisError(f"class in basis {d.basis} against form in {form.basis}")
        if d.rank != form.rank:
            raise BasisError("rank mismatch between class and form")
    if form.rank == 1:
        x, y, z = (d.coords[0] for d in classes)
        return x * y * z * form.values[0]
    total = Fraction(0)
    for picks in itertools.product((0, 1), repeat=3):
        coeff = Fraction(1)
        for d, i in zip(classes, picks):
            coeff *= d.coords[i]
        if coeff:
            total += coeff * form.values[sum(picks)]
    return total


def change_basis(
    form: TrilinearForm,
    new_basis: Sequence[DivisorClass],
    new_tag: Basis,
) -> TrilinearForm:
    """Re-express a rank-2 form on a new basis (u, v) given in the old basis.

    Requires integral, linearly independent u, v; the returned form evaluates
    identically to the old form composed with the basis map.
    """
    if form.rank != 2 or len(new_basis) != 2:
        raise BasisError("change_basis needs a rank-2 form and two basis vectors")
    u, v = new_basis
    if not (u.is_integral() and v.is_integral()):
        raise BasisError("new basis vectors must have integer coordinates")
    det = u.coords[0] * v.coords[1] - u.coords[1] * v.coords[0]
    if det == 0:
        raise BasisError("new basis vectors are linearly dependent")
    vals = tuple(
        eval_form(form, *(u if i < 3 - k else v for i in range(3)))
        for k in range(4)
    )
    return TrilinearForm(new_tag, vals)
