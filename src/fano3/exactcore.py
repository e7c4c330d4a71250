"""Exact trilinear intersection forms on rank-2 lattices.

A form stores the four monomial values (e1^3, e1^2*e2, e1*e2^2, e2^3) on a
named ordered basis; everything else is multilinear expansion over exact
rationals.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rat = Union[int, Fraction]


class Basis(str, enum.Enum):
    # (-K, E) on the blowup; the working basis for all Sarkisov-link systems.
    KE = "KE"
    # (M, F) tautological/fiber classes on a scroll or on the far side of a link.
    MF = "MF"
    # pullback basis (sigma^*A, E) on a blowup, before switching to (-K, E).
    SIGMA = "SIGMA"

    def __str__(self) -> str:  # "KE", not "Basis.KE", in the basis-mismatch message
        return self.value


@dataclass(frozen=True)
class DivisorClass:
    """Exact coefficient vector in a declared ordered basis."""

    basis: Basis
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))
        if len(self.coords) != 2:
            raise ValueError(f"a class has 2 coordinates, got {len(self.coords)}")

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)


def cls2(basis: Basis, a: Rat, b: Rat) -> DivisorClass:
    return DivisorClass(basis, (a, b))


@dataclass(frozen=True)
class TrilinearForm:
    """Symmetric 3-form stored by its values (e1^3, e1^2*e2, e1*e2^2, e2^3)."""

    basis: Basis
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if len(self.values) != 4:
            raise ValueError(f"a form stores 4 values, got {len(self.values)}")

    @property
    def not_big(self) -> bool:
        """True when the leading self-intersection e1^3 is <= 0."""
        return self.values[0] <= 0


def form2(basis: Basis, c30: Rat, c21: Rat, c12: Rat, c03: Rat) -> TrilinearForm:
    return TrilinearForm(basis, (c30, c21, c12, c03))


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
            raise ValueError(f"class in basis {d.basis} against form in {form.basis}")
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
    """Re-express a form on a new basis (u, v) given in the old basis.

    Requires integral, linearly independent u, v; the returned form evaluates
    identically to the old form composed with the basis map.
    """
    if len(new_basis) != 2:
        raise ValueError("change_basis needs two basis vectors")
    u, v = new_basis
    if not (u.is_integral() and v.is_integral()):
        raise ValueError("new basis vectors must have integer coordinates")
    det = u.coords[0] * v.coords[1] - u.coords[1] * v.coords[0]
    if det == 0:
        raise ValueError("new basis vectors are linearly dependent")
    vals = tuple(
        eval_form(form, *(u if i < 3 - k else v for i in range(3)))
        for k in range(4)
    )
    return TrilinearForm(new_tag, vals)
