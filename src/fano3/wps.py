"""Weighted projective spaces P(w_0, ..., w_n) and quasi-smooth Fano complete
intersections: well-formedness, normalization, and numerical invariants.

Quasi-smoothness itself is never verified here (it needs polynomial data);
only the numerical invariants are computed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class WeightSystem:
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) < 2:
            raise ValueError("need at least two weights")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive integers")
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    @property
    def total(self) -> int:
        return sum(self.weights)

    @property
    def product(self) -> int:
        return math.prod(self.weights)


def is_well_formed(w: WeightSystem) -> bool:
    """True iff every n-element subset of the n+1 weights is setwise coprime."""
    n = w.dim
    return all(
        math.gcd(*subset) == 1
        for subset in itertools.combinations(w.weights, n)
    )


def normalize(w: WeightSystem) -> WeightSystem:
    """Divide out common factors of any n weights until well-formed.

    If h divides every weight but w_i, the h-th Veronese subring shows
    P(w) ~ P(w_0/h, ..., w_i/gcd(h, w_i), ..., w_n/h); iterate.  Idempotent,
    and independent of the reduction order.
    """
    weights = list(w.weights)
    changed = True
    while changed:
        changed = False
        for skip in range(len(weights)):
            rest = [weights[j] for j in range(len(weights)) if j != skip]
            h = math.gcd(*rest)
            if h > 1:
                for j in range(len(weights)):
                    if j != skip:
                        weights[j] //= h
                weights[skip] //= math.gcd(h, weights[skip])
                changed = True
                break
    out = WeightSystem(tuple(weights))
    if not is_well_formed(out):
        raise ArithmeticError(f"normalize left {out.weights} not well-formed")
    return out


def pic_index(w: WeightSystem) -> int:
    """Index of Pic inside the class group: lcm of the weights."""
    if not is_well_formed(w):
        raise ValueError("weight system must be well-formed")
    return math.lcm(*w.weights)


@dataclass(frozen=True)
class CompleteIntersectionSpec:
    weights: WeightSystem
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be positive")
        if len(self.degrees) >= self.weights.dim:
            raise ValueError("codimension must be < dim of the ambient space")


@dataclass(frozen=True)
class CiInvariants:
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
    iota = w.total - sum(degs)
    if iota <= 0:
        raise ValueError(f"sum(degrees) = {sum(degs)} >= sum(weights) = {w.total}")
    dim = w.dim - len(degs)
    antik = Fraction(iota**dim * math.prod(degs), w.product)
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


def double_cover_antik_power(
    ky_coeff: int,
    half_branch_coeff: int,
    h_power: Fraction | int,
) -> Fraction:
    """(-K_X)^3 of a double cover f: X -> Y of threefolds branched in B, via
    K_X = f^*(K_Y + B/2).

    Inputs are coefficients against an ample class H on Y with H^3 =
    h_power: -K_Y = ky_coeff * H and B = 2 * half_branch_coeff * H, so
    (-K_X)^3 = 2 * (ky_coeff - half_branch_coeff)^3 * h_power.
    """
    return 2 * (ky_coeff - half_branch_coeff) ** 3 * Fraction(h_power)
