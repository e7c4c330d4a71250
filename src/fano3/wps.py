"""Weighted projective spaces P(w_0, ..., w_n) and quasi-smooth Fano complete
intersections: well-formedness, normalization, and numerical invariants.

Quasi-smoothness itself is never verified here (it needs polynomial data);
only the numerical invariants are computed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from fano3 import as_int


class WeightSystem(NamedTuple("WeightSystem", [("weights", tuple[int, ...])])):
    __slots__ = ()

    # _replace bypasses __new__: change a field through the constructor
    def __new__(cls, weights: Sequence[int]) -> WeightSystem:
        if len(weights) < 2:
            raise ValueError("need at least two weights")
        weights = tuple(as_int(w, "weight") for w in weights)
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        return super().__new__(cls, weights)

    @property
    def dim(self) -> int:
        return len(self.weights) - 1


def _cofactor_gcds(weights: Sequence[int]) -> list[int]:
    """For each i, the gcd of every weight but w_i, from a prefix and a suffix pass."""
    prefix = list(itertools.accumulate(weights, math.gcd, initial=0))
    suffix = list(itertools.accumulate(reversed(weights), math.gcd, initial=0))[::-1]
    return [math.gcd(p, s) for p, s in zip(prefix, suffix[1:])]


def is_well_formed(w: WeightSystem) -> bool:
    """True iff every n of the n+1 weights are coprime: every cofactor gcd is 1."""
    return all(d == 1 for d in _cofactor_gcds(w.weights))


def normalize(w: WeightSystem) -> WeightSystem:
    """The well-formed normal form, in closed form (Dolgachev, Weighted
    projective varieties, LNM 956, 1.3).

    If h divides every weight but w_i, the h-th Veronese subring shows
    P(w) ~ P(w_0/h, ..., w_i/gcd(h, w_i), ..., w_n/h).  Divide by gcd(w) and
    let d_i be the cofactor gcds of the quotient w'; then a_i = w'_i d_i / prod(d),
    that is w'_i over the product of the other d_j.  The d_i are pairwise
    coprime: a prime dividing two of them divides every w'_k, whose gcd is 1.
    So a_i is an integer, and if p divided every a_k with k != i, then p d_i
    would divide every w'_k with k != i, and so d_i: one step is well-formed.
    """
    g = math.gcd(*w.weights)
    weights = [x // g for x in w.weights]
    cofactors = _cofactor_gcds(weights)
    total = math.prod(cofactors)
    out = WeightSystem(tuple(x * d // total for x, d in zip(weights, cofactors)))
    if not is_well_formed(out):
        raise ArithmeticError(f"normalize left {out.weights} not well-formed")
    return out


def pic_index(w: WeightSystem) -> int:
    """Index of Pic inside the class group: lcm of the weights."""
    if not is_well_formed(w):
        raise ValueError("weight system must be well-formed")
    return math.lcm(*w.weights)


class CompleteIntersectionSpec(
    NamedTuple("CompleteIntersectionSpec", [("weights", WeightSystem), ("degrees", tuple[int, ...])])
):
    __slots__ = ()

    # _replace bypasses __new__: change a field through the constructor
    def __new__(cls, weights: WeightSystem, degrees: Sequence[int]) -> CompleteIntersectionSpec:
        degrees = tuple(as_int(d, "degree") for d in degrees)
        if any(d < 1 for d in degrees):
            raise ValueError("degrees must be positive")
        if len(degrees) >= weights.dim:
            raise ValueError("codimension must be < dim of the ambient space")
        return super().__new__(cls, weights, degrees)


class CiInvariants(NamedTuple):
    """Numerical invariants of a quasi-smooth Fano complete intersection."""

    dim: int
    index: int
    antik_power: Fraction  # (-K)^dim
    genus: int | None
    warnings: tuple[str, ...]


def ci_fano_invariants(spec: CompleteIntersectionSpec) -> CiInvariants:
    """dim = n - r, iota = sum(w) - sum(d), (-K)^dim = iota^dim * prod(d)/prod(w).

    Non-integral (-K)^dim is returned with a warning rather than rejected; the
    Lefschetz argument for iota needs ambient dimension >= 4 and a warning is
    recorded below that.
    """
    w, degs = spec.weights, spec.degrees
    if not is_well_formed(w):
        raise ValueError("normalize the weight system first")
    iota = sum(w.weights) - sum(degs)
    if iota <= 0:
        raise ValueError(f"sum(degrees) = {sum(degs)} >= sum(weights) = {sum(w.weights)}")
    dim = w.dim - len(degs)
    antik = Fraction(iota**dim * math.prod(degs), math.prod(w.weights))
    warnings = []
    if w.dim < 4:
        warnings.append("ambient dimension < 4: index via Lefschetz not guaranteed")
    integral = antik.denominator == 1
    if not integral:
        warnings.append("(-K)^dim is not an integer; no quasi-smooth model assumed")
    genus = None
    if dim == 3 and iota == 1 and integral and int(antik) % 2 == 0:
        genus = int(antik) // 2 + 1
    return CiInvariants(dim, iota, antik, genus, tuple(warnings))

