"""Exact trilinear intersection forms on rank-2 lattices.

A form stores the four monomial values (e1^3, e1^2*e2, e1*e2^2, e2^3) on a
named ordered basis, and a class its two coordinates; both keep their values
as given, so integer data stays int.  Everything else is multilinear
expansion over exact rationals.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

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


class DivisorClass(NamedTuple("DivisorClass", [("basis", Basis), ("coords", tuple[Rat, ...])])):
    """Exact coefficient vector in a declared ordered basis."""

    __slots__ = ()

    # _replace bypasses __new__: change a field through the constructor
    def __new__(cls, basis: Basis, coords: Sequence[Rat]) -> DivisorClass:
        coords = tuple(coords)  # a list would break == and hash
        if len(coords) != 2:
            raise ValueError(f"a class has 2 coordinates, got {len(coords)}")
        return super().__new__(cls, basis, coords)


def cls2(basis: Basis, a: Rat, b: Rat) -> DivisorClass:
    return DivisorClass(basis, (a, b))


class TrilinearForm(NamedTuple("TrilinearForm", [("basis", Basis), ("values", tuple[Rat, ...])])):
    """Symmetric 3-form stored by its values (e1^3, e1^2*e2, e1*e2^2, e2^3)."""

    __slots__ = ()

    # _replace bypasses __new__: change a field through the constructor
    def __new__(cls, basis: Basis, values: Sequence[Rat]) -> TrilinearForm:
        values = tuple(values)  # a list would break == and hash
        if len(values) != 4:
            raise ValueError(f"a form stores 4 values, got {len(values)}")
        return super().__new__(cls, basis, values)

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
) -> Rat:
    """Full trilinear expansion of d1.d2.d3 over the stored monomial values."""
    for d in (d1, d2, d3):
        if d.basis is not form.basis:
            raise ValueError(f"class in basis {d.basis} against form in {form.basis}")
    (a1, b1), (a2, b2), (a3, b3) = d1.coords, d2.coords, d3.coords
    v0, v1, v2, v3 = form.values
    return (
        a1 * a2 * a3 * v0
        + (a1 * a2 * b3 + a1 * b2 * a3 + b1 * a2 * a3) * v1
        + (a1 * b2 * b3 + b1 * a2 * b3 + b1 * b2 * a3) * v2
        + b1 * b2 * b3 * v3
    )


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
    if any(c.denominator != 1 for c in (*u.coords, *v.coords)):
        raise ValueError("new basis vectors must have integer coordinates")
    det = u.coords[0] * v.coords[1] - u.coords[1] * v.coords[0]
    if det == 0:
        raise ValueError("new basis vectors are linearly dependent")
    vals = tuple(
        eval_form(form, *(u if i < 3 - k else v for i in range(3)))
        for k in range(4)
    )
    return TrilinearForm(new_tag, vals)
