"""Enumeration of the second extremal contraction of a two-ray link.

Starting from the blowup of a line, conic, or point on an index-1 Fano
threefold of genus g with Picard group Z, the midpoint carries the exact
values ((-K)^3, (-K)^2.E, (-K).E^2) and the unknown Ebar^3 on the far side.
Every contraction type imposes two flop-invariant equations plus one that
solves Ebar^3; candidates surviving all integrality and positivity
constraints are then vetted against the catalog fact store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Literal, Optional, Sequence

from fano3 import catalog
from fano3.blowup import CurveCenter, PointCenter, blowup_curve, blowup_point
from fano3.exactcore import TrilinearForm

Center = Literal["line", "conic", "point"]

CENTER_DATA: dict[str, CurveCenter | PointCenter] = {
    "line": CurveCenter(1, 0),
    "conic": CurveCenter(2, 0),
    "point": PointCenter(),
}

# length mu, discrepancy alpha (birational only) and the pairing constant k
# of the point-blowdown types.
MU = {"C1": 1, "C2": 2, "D1": 1, "D2": 2, "D3": 3, "B1": 1, "B2": 2, "B3/B4": 1, "B5": 1}
ALPHA = {"B1": Fraction(1), "B2": Fraction(2), "B3/B4": Fraction(1), "B5": Fraction(1, 2)}
TAG_BY_K = {4: "B2", 2: "B3/B4", 1: "B5"}
# degree (-K)^2.F of the fiber F of each del Pezzo fibration type
DP_DEGREES = {"D1": range(1, 7), "D2": (8,), "D3": (9,)}
# degree d(Y) a B1 target of index iota >= 2 may have: P^3, the quadric and the
# del Pezzo threefolds; index 1 admits every even d >= 2.
B1_DEGREES = {4: (1,), 3: (2,), 2: range(1, 6)}
POINT_SINGULARITY = {
    "B2": "nonsingular point",
    "B3/B4": "ordinary double point or cDV point x1*x2 + x3^2 + x4^3",
    "B5": "quotient point C^3/{+-1}, non-Gorenstein of multiplicity 4",
}

# genus from which |-K_tilde - E| is guaranteed non-empty resp. of positive
# dimension, from the h^0 lower bounds g-5 / g-7 / g-8 on the three blowups.
EFFECTIVITY_NONEMPTY = {"line": 6, "conic": 8, "point": 9}
EFFECTIVITY_STRICT = {"line": 7, "conic": 9, "point": 10}


class InconsistentCandidate(ValueError):
    """A candidate with negative defect reached the defect computation."""


@dataclass(frozen=True)
class TargetInvariants:
    """What the second contraction lands on."""

    kind: Literal[
        "del-pezzo-fibration", "conic-bundle", "fano-curve-blowdown", "fano-point-blowdown"
    ]
    fiber_degree: Optional[int] = None
    discriminant_degree: Optional[int] = None
    iota_y: Optional[int] = None
    degree_y: Optional[int] = None
    antik_cube_y: Optional[int] = None
    genus_y: Optional[int] = None
    deg_z: Optional[int] = None
    genus_z: Optional[int] = None
    k: Optional[int] = None
    singularity: Optional[str] = None

    def subject_id(self) -> Optional[str]:
        """Catalog subject the target corresponds to, when identifiable."""
        if self.kind in ("fano-curve-blowdown", "fano-point-blowdown"):
            if self.iota_y == 4:
                return "p3"
            if self.iota_y == 3:
                return "quadric"
            if self.iota_y == 2 and self.degree_y is not None:
                return f"v{self.degree_y}"
            if self.iota_y == 1 and self.genus_y is not None:
                return f"fano-g{self.genus_y}"
        return None


@dataclass(frozen=True)
class LinkCandidate:
    """One numerically consistent second contraction."""

    center: Center
    g: int
    ctype: str
    mbar: tuple[int, int]
    fbar: tuple[int, int]  # (a, b): Mbar for the fiber types, where mbar == fbar
    target: TargetInvariants
    ebar_cube: Fraction
    defect: Fraction
    status: str = "candidate"
    m_cap: Optional[int] = None

    @property
    def mu(self) -> int:
        return MU[self.ctype]

    @property
    def birational(self) -> bool:
        return self.ctype.startswith("B")

    @property
    def confirmed(self) -> bool:
        return self.status == "confirmed"


def midpoint_form(center: Center, g: int) -> TrilinearForm:
    """Midpoint form on (-K, E) for a named center on an index-1 source of
    genus g.  The first three values are flop-invariant; the E^3 slot holds
    the blowup-side value (Ebar^3 is fixed per candidate).  Higher-index
    sources go through fano3.blowup with explicit (antik_cube, center)."""
    data = CENTER_DATA[center]
    c = Fraction(2 * g - 2)
    return blowup_point(c) if isinstance(data, PointCenter) else blowup_curve(c, data)


def _m_cap(center: Center, g: int, a: int, b: int, birational: bool) -> Optional[int]:
    """The largest m with b >= m*a, which holds whenever |-K - m*Ebar| is
    non-empty, strictly (b > m*a) for birational contractions once that
    system moves; None below the genus where it is known non-empty.  A cap
    of 0 fails effectivity (m = 1), so the caller rejects the trial."""
    if g < EFFECTIVITY_NONEMPTY[center]:
        return None
    return (b - 1) // a if (birational and g >= EFFECTIVITY_STRICT[center]) else b // a


def _fiber_candidates(
    center: Center, g: int, vals: tuple[int, ...], bound: int
) -> Iterable[LinkCandidate]:
    k3, ke, kee, e3 = vals
    for kind, mus, q2_target in (("D", (1, 2, 3), 0), ("C", (1, 2), 2)):
        for mu in mus:
            b = mu
            trials = range(1, bound + 1) if bound else _fiber_trials(vals, b, q2_target)
            for a in trials:
                if k3 * a * a - 2 * a * b * ke + b * b * kee != q2_target:
                    continue
                lin = k3 * a - ke * b
                if kind == "D":
                    tag = f"D{mu}"
                    if lin not in DP_DEGREES[tag]:
                        continue
                    target = TargetInvariants("del-pezzo-fibration", fiber_degree=lin)
                else:
                    ddelta = 12 - lin
                    if not 0 <= ddelta <= 11:
                        continue
                    if mu == 1 and ddelta < 3:
                        continue
                    if mu == 2 and ddelta != 0:
                        continue
                    tag = "C1" if ddelta > 0 else "C2"
                    target = TargetInvariants("conic-bundle", discriminant_degree=ddelta)
                m_cap = _m_cap(center, g, a, b, birational=False)
                if m_cap == 0:
                    continue
                ebar = (k3 * a**3 - 3 * a * a * b * ke + 3 * a * b * b * kee) / Fraction(b**3)
                if ebar.denominator != 1:
                    continue
                defect = e3 - ebar
                if defect < 0:
                    continue
                yield LinkCandidate(
                    center, g, tag, (a, b), (a, b), target, ebar, defect, m_cap=m_cap
                )


def _fiber_trials(vals: tuple[int, ...], b: int, q2: int) -> list[int]:
    """Every a that can pass the fiber-type checks for Mbar = a(-K) - bE."""
    k3, ke, kee, _ = vals
    # with b fixed, Mbar^2.(-K) = q2 is a quadratic in a with leading
    # coefficient k3 > 0: its positive integer roots are the only a that pass
    # the first check in _fiber_candidates
    return _integer_roots(k3, -2 * b * ke, b * b * kee - q2)


def _b1_candidates(
    center: Center, g: int, vals: tuple[int, ...], bound: int
) -> Iterable[LinkCandidate]:
    k3, ke, kee, e3 = vals
    for iota in (1, 2, 3, 4):
        trials = range(1, bound + 1) if bound else _b1_trials(center, g, vals, iota)
        for a_m in trials:
            a_f = iota * a_m - 1
            if a_f < 1:
                continue
            b_f = iota
            iota_d = k3 * a_m * a_m - 2 * a_m * ke + kee  # Mbar^2.(-K) = iota*d(Y)
            if iota_d <= 0 or iota_d % iota:
                continue
            d = iota_d // iota
            if iota == 1:
                if d < 2 or d % 2:
                    continue
            elif d not in B1_DEGREES[iota]:
                continue
            deg_z = a_m * a_f * k3 - (a_m * b_f + a_f) * ke + b_f * kee
            if deg_z < 1:
                continue
            two_gz = a_f * a_f * k3 - 2 * a_f * b_f * ke + b_f * b_f * kee  # 2g(Z) - 2
            if two_gz % 2 or two_gz < -2:
                continue
            m_cap = _m_cap(center, g, a_f, b_f, birational=True)
            if m_cap == 0:
                continue
            # Mbar^3 = d(Y)
            ebar = Fraction(k3 * a_m**3 - 3 * a_m * a_m * ke + 3 * a_m * kee - d)
            defect = e3 - ebar
            if defect < 0:
                continue
            target = TargetInvariants(
                "fano-curve-blowdown",
                iota_y=iota,
                degree_y=d,
                genus_y=d // 2 + 1 if iota == 1 else None,
                deg_z=deg_z,
                genus_z=two_gz // 2 + 1,
            )
            yield LinkCandidate(
                center, g, "B1", (a_m, 1), (a_f, b_f), target, ebar, defect, m_cap=m_cap
            )


def _b1_trials(center: Center, g: int, vals: tuple[int, ...], iota: int) -> Iterable[int]:
    """Every a_m that can pass the B1 checks for a target of index iota."""
    k3, ke, kee, e3 = vals
    if iota > 1:
        # Mbar^2.(-K) = iota*d is a quadratic in a_m for each admitted d
        return [a for d in B1_DEGREES[iota] for a in _integer_roots(k3, -2 * ke, kee - iota * d)]
    # iota = 1 admits every even d, so bound a_m through a_f = a_m - 1 >= 1
    # and the checks on b_f = 1 instead.
    if g >= EFFECTIVITY_STRICT[center]:
        return ()  # b_f > a_f >= 1 is impossible
    if g >= EFFECTIVITY_NONEMPTY[center]:
        return (2,)  # 1 <= a_f <= b_f = 1
    # With d = Mbar^2.(-K) substituted, Ebar^3 - E^3 is the cubic below in
    # a_m with leading coefficient k3 > 0; it is positive (negative defect)
    # beyond the Cauchy bound 1 + max|c_i|/k3 on its real roots.
    coeffs = (-(3 * ke + k3), 3 * kee + 2 * ke, -(kee + e3))
    return range(1, 1 + max(abs(c) for c in coeffs) // k3 + 1)


def _integer_roots(aa: int, bb: int, cc: int) -> list[int]:
    """Positive integer roots of aa*x^2 + bb*x + cc = 0 (aa != 0)."""
    disc = bb * bb - 4 * aa * cc
    if disc < 0:
        return []
    root = math.isqrt(disc)
    if root * root != disc:
        return []
    out = set()
    for num in (-bb + root, -bb - root):
        x, rem = divmod(num, 2 * aa)
        if rem == 0 and x > 0:
            out.add(x)
    return sorted(out)


def _point_blowdown_candidates(
    center: Center, g: int, vals: tuple[int, ...], bound: int
) -> Iterable[LinkCandidate]:
    k3, ke, kee, e3 = vals
    trials = _point_blowdown_box(vals, bound) if bound else _point_blowdown_trials(vals)
    for a_f, b_f in trials:
        if k3 * a_f * a_f - 2 * a_f * b_f * ke + b_f * b_f * kee != -2:  # Fbar^2.(-K)
            continue
        kk = k3 * a_f - ke * b_f
        if kk not in TAG_BY_K:
            continue
        tag = TAG_BY_K[kk]
        alpha, mu = ALPHA[tag], MU[tag]
        iota = Fraction(b_f) * alpha / mu
        if iota.denominator != 1 or not 1 <= iota <= 4:
            continue
        iota = int(iota)
        a_m = (alpha * a_f + 1) / iota
        if a_m.denominator != 1 or a_m < 1:
            continue
        a_m = int(a_m)
        m_cap = _m_cap(center, g, a_f, b_f, birational=True)
        if m_cap == 0:
            continue
        ebar = (
            k3 * a_f**3
            - 3 * a_f * a_f * b_f * ke
            + 3 * a_f * b_f * b_f * kee
            - Fraction(4, kk)
        ) / Fraction(b_f**3)
        if ebar.denominator != 1:
            continue
        defect = e3 - ebar
        if defect < 0:
            continue
        anti_y = (
            k3
            + 3 * alpha * kk
            + 3 * alpha * alpha * (-2)
            + alpha**3 * Fraction(4, kk)
        )
        if anti_y <= 0 or anti_y.denominator != 1:
            continue
        anti_y = int(anti_y)
        target = TargetInvariants(
            "fano-point-blowdown",
            k=kk,
            iota_y=iota,
            antik_cube_y=anti_y,
            genus_y=anti_y // 2 + 1 if iota == 1 and anti_y % 2 == 0 else None,
            singularity=POINT_SINGULARITY[tag],
        )
        yield LinkCandidate(
            center, g, tag, (a_m, mu), (a_f, b_f), target, ebar, defect, m_cap=m_cap
        )


def _point_blowdown_box(vals: tuple[int, ...], bound: int) -> Iterable[tuple[int, int]]:
    k3, ke, kee, _ = vals
    for a_f in range(1, bound + 1):
        # Fbar^2.(-K) = -2 solved for b_f
        for b_f in _integer_roots(kee, -2 * a_f * ke, k3 * a_f * a_f + 2):
            if b_f <= bound:
                yield a_f, b_f


def _point_blowdown_trials(vals: tuple[int, ...]) -> Iterable[tuple[int, int]]:
    """Every (a_f, b_f) that can pass the point-blowdown checks."""
    k3, ke, kee, _ = vals
    for k in TAG_BY_K:
        # the checks admit only k3*a_f - ke*b_f = k in TAG_BY_K; b_f from it
        # substituted into Fbar^2.(-K) = -2 leaves a quadratic in a_f, whose
        # leading coefficient is nonzero as kee < 0 < k3
        for a_f in _integer_roots(
            k3 * (kee * k3 - ke * ke), 2 * k * (ke * ke - kee * k3), kee * k * k + 2 * ke * ke
        ):
            b_f, rem = divmod(k3 * a_f - k, ke)
            if rem == 0 and b_f > 0:
                yield a_f, b_f


def _enumerate_cell(center: Center, g: int, bound: int) -> list[LinkCandidate]:
    # integral for the index-1 sources here, so the trials run on int
    vals = tuple(int(v) for v in midpoint_form(center, g).values)
    if vals[0] <= 0:
        return []
    cands = [
        *_fiber_candidates(center, g, vals, bound),
        *_b1_candidates(center, g, vals, bound),
        *_point_blowdown_candidates(center, g, vals, bound),
    ]
    cands.sort(key=lambda c: (c.g, c.ctype, c.fbar))
    return cands


def enumerate_links(
    center: Center,
    g_range: Iterable[int],
    *,
    search_bound: int = 0,
) -> list[LinkCandidate]:
    """All numerically consistent second contractions for the given center and
    genera g >= 2, each confirmed or excluded by a named rule, in the order
    (g, type, fbar).

    With the default search_bound=0 the trial coefficients are the solutions
    of each contraction type's defining equations, so no box is scanned.
    With search_bound=N >= 1 they are every coefficient in 1..N instead: the
    brute-force oracle the tests compare the solve against."""
    if search_bound < 0:
        raise ValueError(f"search_bound must be >= 0, got {search_bound}")
    genera = sorted(set(int(g) for g in g_range))
    if genera and genera[0] < 2:
        raise ValueError(f"genus must be >= 2, got {genera[0]}")
    candidates = [cand for g in genera for cand in _enumerate_cell(center, g, search_bound)]
    return filter_links(candidates)


def defect(candidate: LinkCandidate) -> Fraction:
    """E^3 - Ebar^3; nonnegative for every consistent link."""
    if candidate.defect < 0:
        raise InconsistentCandidate(
            f"negative defect {candidate.defect} signals an enumeration bug"
        )
    return candidate.defect


def euler_propagate(
    chi_y: int,
    center_on_y: CurveCenter | PointCenter,
    center_on_x: CurveCenter | PointCenter,
) -> int:
    """chi(X) from chi(Y) across a link: chi(X) = chi(Y) + e(Z) - e(C), where
    a genus-h curve contributes 2 - 2h and a point contributes 2."""

    def contribution(c: CurveCenter | PointCenter) -> int:
        return 2 if isinstance(c, PointCenter) else 2 - 2 * c.genus

    return chi_y + contribution(center_on_y) - contribution(center_on_x)


def filter_links(candidates: Sequence[LinkCandidate]) -> list[LinkCandidate]:
    """Assign confirmed / excluded:<rule> to every candidate from the catalog's
    link facts; nothing is dropped.  Rules fire in the order genus-bound,
    rationality, geometric, euler; rationality needs the source known
    rational and the target known irrational."""
    facts = catalog.link_facts()
    return [replace(cand, status=_status(cand, facts)) for cand in candidates]


def _status(cand: LinkCandidate, facts: catalog.LinkFactStore) -> str:
    if cand.g not in facts.known_genera:
        return "excluded:genus-bound"
    source = f"fano-g{cand.g}"
    target = cand.target.subject_id()
    if source in facts.rational_subjects and target in facts.irrational_subjects:
        return "excluded:rationality"
    for rule in facts.geometric_rules:
        if cand.birational and rule.center == cand.center and rule.fbar == cand.fbar:
            return f"excluded:geometric:{rule.rule}"
    if cand.ctype in ("B1", "B2"):
        chi_x = facts.chi(source)
        chi_y = facts.chi(target)
        if chi_x is not None and chi_y is not None:
            if cand.ctype == "B1":
                # B1 admits only deg_z >= 1 and always sets genus_z
                z: CurveCenter | PointCenter = CurveCenter(cand.target.deg_z, cand.target.genus_z)
            else:
                z = PointCenter()
            c_x = CENTER_DATA[cand.center]
            if euler_propagate(chi_y, z, c_x) != chi_x:
                return "excluded:euler"
    return "confirmed"


# --- Picard-number-2 primitive enumeration -------------------------------

RAY2_ORDER = {"D1": 0, "D2": 1, "D3": 2, "C1": 3, "C2": 4, "B2": 5, "B3/B4": 6, "B5": 7}


@dataclass(frozen=True)
class Rho2Solution:
    """One primitive rho=2 solution: conic bundle with discriminant degree d
    plus a second ray of the stated type."""

    ray1: str
    ray2: str
    d: int
    d_prime: Optional[int]
    k: Optional[int]
    g: int
    a: Fraction
    b: Fraction
    antik_cube: int


# D = a(-K) - bM; (-K).D^2 equals 0, 2, -2 per second-ray kind
RHO2_SYSTEMS = (("D", 0), ("C", 2), ("B", -2))


def rho2_primitive_enumerate(bound: int = 8) -> list[Rho2Solution]:
    """All solutions with a, b <= bound of the three second-ray systems on a
    primitive rho=2 Fano threefold carrying a conic bundle with discriminant
    degree d.  Half-integral (a, b) are admitted exactly on the C2 side
    (d = 0)."""
    sols: list[Rho2Solution] = []
    for d in range(0, 12):
        if d in (1, 2):
            continue  # a non-empty discriminant curve has degree >= 3
        for a, b, system in _rho2_trials(d, bound):
            sol = _rho2_trial(d, a, b, system)
            if sol is not None:
                sols.append(sol)
    sols.sort(key=lambda s: (s.antik_cube, RAY2_ORDER[s.ray2], s.d))
    return sols


def _rho2_trials(d: int, bound: int) -> list[tuple[Fraction, Fraction, int]]:
    """Every (a, b, system) with a, b on the grid up to bound that can pass
    _rho2_trial, in (a, b, system) order.  b runs over its grid, which the
    caller's bound makes finite; a is solved from b."""
    # (a, b) = (i/s, j/s): the grid has step 1/2 on the C2 side, else step 1
    s = 2 if d == 0 else 1
    coef = 12 - d
    trials = []
    for j in range(1, bound * s + 1):
        for system, (kind, rhs) in enumerate(RHO2_SYSTEMS):
            if kind == "B":
                # kk = k3*a - coef*b with k3*a^2 from (-K).D^2 = -2 gives
                # a*(coef*b - kk) = 2 + 2b^2 for each admitted kk
                quotients = [(2 * s * s + 2 * j * j, coef * j - k * s) for k in TAG_BY_K]
            else:
                # k3*a^2 from (-K).D^2 = rhs substituted into D^3 = 0 leaves
                # rhs - coef*a*b + 4b^2 = 0
                quotients = [(rhs * s * s + 4 * j * j, coef * j)]
            for num, den in quotients:  # i = num/den, where num > 0
                if den > 0 and num % den == 0 and num // den <= bound * s:
                    trials.append((num // den, j, system))
    trials.sort()
    return [(Fraction(i, s), Fraction(j, s), system) for i, j, system in trials]


def _rho2_trial(d: int, a: Fraction, b: Fraction, system: int) -> Optional[Rho2Solution]:
    """The solution at one grid point (a, b) of system RHO2_SYSTEMS[system]
    for discriminant degree d, or None."""
    kind, rhs = RHO2_SYSTEMS[system]
    coef = 12 - d
    k3 = (rhs + 2 * coef * a * b - 2 * b * b) / (a * a)
    if k3 < 2 or k3.denominator != 1 or int(k3) % 2:
        return None
    k3 = int(k3)
    lin = k3 * a - coef * b  # (-K)^2.D: d' of a D-ray, 12 - d' of a C-ray, k of a B-ray
    if lin.denominator != 1:
        return None
    lin = int(lin)
    ray1 = "C2" if d == 0 else "C1"
    g = k3 // 2 + 1
    if kind == "B":
        # blowup of a point, D the exceptional divisor
        if lin not in TAG_BY_K:
            return None
        if k3 * a**3 - 3 * coef * a * a * b + 6 * a * b * b != Fraction(4, lin):  # D^3 = 4/k
            return None
        return Rho2Solution(ray1, TAG_BY_K[lin], d, None, lin, g, a, b, k3)
    if k3 * a * a - 3 * coef * a * b + 6 * b * b != 0:  # D^3 = 0
        return None
    if kind == "C":
        dprime = 12 - lin
        if not (dprime == 0 or 3 <= dprime <= 11):
            return None
        if d < dprime:
            return None  # symmetric pair already listed from the other side
        ray2 = "C1" if dprime > 0 else "C2"
        return Rho2Solution(ray1, ray2, d, dprime, None, g, a, b, k3)
    # D is primitive iff gcd(i, j) = 1 for (a, b) = (i/s, j/s) on the grid
    s = 2 if d == 0 else 1
    if math.gcd(int(a * s), int(b * s)) != 1:
        return None
    for ray2, degrees in DP_DEGREES.items():
        if lin in degrees:
            return Rho2Solution(ray1, ray2, d, lin, None, g, a, b, k3)
    return None
