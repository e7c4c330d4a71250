"""Enumeration of the second extremal contraction of a two-ray link.

Starting from the blowup of a line, conic, or point on an index-1 Fano
threefold of genus g with Picard group Z, the midpoint carries the exact
values ((-K)^3, (-K)^2.E, (-K).E^2) and the unknown Ebar^3 on the far side.
Every contraction type imposes two flop-invariant equations plus one that
solves Ebar^3; survivors of the integrality and positivity checks are vetted
against catalog facts, source and target matched to entries by (index, (-K)^3).

The trials are solved, not searched: each entry of RAY_TYPE gives at most
one fiber, conic-bundle or point-blowdown trial through the identity in
_ray_trials, and the B1 trials are bounded by the defect at every index.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Literal, NamedTuple, Optional, Sequence

from fano3 import as_int
from fano3.blowup import CurveCenter, PointCenter, blowup_curve, blowup_point, vanishing_conditions
from fano3.exactcore import TrilinearForm

Center = Literal["line", "conic", "point"]

CENTER_DATA: dict[str, CurveCenter | PointCenter] = {
    "line": CurveCenter(1, 0),
    "conic": CurveCenter(2, 0),
    "point": PointCenter(),
}

# length mu of each type
MU = {"C1": 1, "C2": 2, "D1": 1, "D2": 2, "D3": 3, "B1": 1, "B2": 2, "B3/B4": 1, "B5": 1}
# The type of the second ray spanned by D, read from q2 = (-K).D^2 and then
# lin = (-K)^2.D (Mori-Mukai): a del Pezzo fibration has q2 = 0 and lin the
# degree of its fiber, a conic bundle q2 = 2 and lin = 12 minus the degree of
# its discriminant (none or 3..11), a point blowdown q2 = -2 and lin the
# pairing constant k.  The curve blowdown B1 is read from its target instead.
RAY_TYPE: dict[int, dict[int, str]] = {
    0: {**dict.fromkeys(range(1, 7), "D1"), 8: "D2", 9: "D3"},
    2: {**{12 - delta: "C1" for delta in range(3, 12)}, 12: "C2"},
    -2: {4: "B2", 2: "B3/B4", 1: "B5"},
}
# degree d(Y) a B1 target of index iota >= 2 may have: P^3, the quadric and the
# del Pezzo threefolds; index 1 admits every even d >= 2.
B1_DEGREES = {4: (1,), 3: (2,), 2: range(1, 6)}
POINT_SINGULARITY = {
    "B2": "nonsingular point",
    "B3/B4": "ordinary double point or cDV point x1*x2 + x3^2 + x4^3",
    "B5": "quotient point C^3/{+-1}, non-Gorenstein of multiplicity 4",
}

# No candidate exists above this genus, so enumerate_links clips the genera
# here.  The midpoint (k3, ke, kee) is (2g - 6, 3, -2), (2g - 8, 4, -2) and
# (2g - 10, 4, -2) on the line, conic and point, with k3 > 0 where solved.
# - D and C (q2 = 0, 2 and lin <= 9, 12): the identity in _ray_trials with
#   b >= 1 gives k3*(2 + q2) <= lin^2 - ke^2.
# - B2..B5 (q2 = -2 and lin <= 4 < 2*ke): the same identity leaves b = 1 and
#   lin = ke, and a = 2*ke/k3 then gives k3 <= 2*ke.
# - B1 onto iota >= 2: k3*a^2 = 2*ke*a + 2 + iota*d (Mbar^2.(-K) = iota*d(Y)
#   in _b1_candidates) with a >= 1 and iota*d <= 10 (the d(Y) guards of
#   _b1_candidates, B1_DEGREES) gives k3 <= 2*ke + 12.
# - B1 onto iota = 1: the effectivity guard of _b1_candidates drops all once h0 >= 2.
# So k3 <= 36 on the line and 32 on the conic and the point: g <= 21, 20, 21.
GENUS_CAP = 21


class TargetInvariants(NamedTuple):
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

    def fano(self) -> Optional[tuple[int, int]]:
        """(index, (-K)^3) of the Fano threefold Y, None for a fibration."""
        if self.kind == "fano-curve-blowdown":
            return self.iota_y, self.iota_y**3 * self.degree_y
        if self.kind == "fano-point-blowdown":
            return self.iota_y, self.antik_cube_y
        return None


class LinkCandidate(NamedTuple):
    """One numerically consistent second contraction."""

    center: Center
    g: int
    ctype: str
    mbar: tuple[int, int]
    fbar: tuple[int, int]  # (a, b): Mbar for the fiber types, where mbar == fbar
    target: TargetInvariants
    ebar_cube: int
    defect: int
    status: str = "candidate"
    m_cap: Optional[int] = None

    @property
    def mu(self) -> int:
        return MU[self.ctype]

    @property
    def confirmed(self) -> bool:
        return self.status == "confirmed"


def midpoint_form(center: Center, g: int) -> TrilinearForm:
    """Midpoint form on (-K, E) for a named center on an index-1 source of
    genus g.  The first three values are flop-invariant; the E^3 slot holds
    the blowup-side value (Ebar^3 is fixed per candidate).  Higher-index
    sources go through fano3.blowup with explicit (antik_cube, center)."""
    if center not in CENTER_DATA:
        raise ValueError(f"center must be one of line, conic, point, got {center!r}")
    data = CENTER_DATA[center]
    c = 2 * g - 2
    return blowup_point(c) if isinstance(data, PointCenter) else blowup_curve(c, data)


def _m_cap(h0: int, a: int, b: int, birational: bool) -> Optional[int]:
    """The largest m with b >= m*a, which holds whenever |-K - m*Ebar| is
    non-empty, strictly (b > m*a) for birational contractions once that
    system moves; None where h0, the cell's lower bound on h^0(-K_tilde - E),
    does not show it non-empty.  A cap of 0 fails effectivity (m = 1), so
    the caller rejects the trial.  The box scans test that before any other
    guard and rest on this rule: _b1_candidates as a_m > (_m_cap(h0, 1, iota, True)
    + 1) // iota, as a_f = iota*a_m - 1 and m_cap(a) = m_cap(1) // a, and
    _ray_candidates as a > b, as every a > b >= 1 has cap 0 once h0 >= 1."""
    if h0 < 1:
        return None
    return (b - 1) // a if (birational and h0 >= 2) else b // a


def _ray_cube(q2: int, lin: int) -> int:
    """D^3 of a ray class of type RAY_TYPE[q2][lin]: 0 for the fibrations,
    4/k for a point blowdown, an integer as every k in RAY_TYPE divides 4."""
    return 4 // lin if q2 < 0 else 0


def _ray_candidates(
    center: Center, g: int, vals: tuple[int, ...], h0: int, trials: Iterable[tuple[int, int]]
) -> Iterable[LinkCandidate]:
    """The fiber, conic-bundle and point-blowdown links: Fbar = a(-K) - bE
    spans the second ray, whose type RAY_TYPE reads from Fbar.  Each trial is
    dropped by the first guard it fails, in the order a >= 1, effectivity
    (m_cap >= 1), the type (q2, lin), then for a point blowdown iota in 1..4
    and an integral a_m and (-K_Y)^3 > 0, else the length b = mu, then
    m_cap >= 1 again, an integral Ebar^3 and the defect.  Effectivity needs
    a and b alone: once h0 >= 1, _m_cap is 0 for every a > b >= 1.  Every trial
    has b >= 1 (the box's b = 1..3 and 0 < b_f; _ray_trials' num >= den > 0), so
    a > b drops only a >= 2, and it is tested before a >= 1, the commoner
    first.  That is the one place a is bounded below: _ray_trials may yield a <= 0."""
    k3, ke, kee, e3 = vals
    effective = h0 >= 1  # the cell shows |-K_tilde - E| non-empty
    for a, b in trials:
        if (effective and a > b) or a < 1:
            continue
        q2 = k3 * a * a - 2 * a * b * ke + b * b * kee  # Fbar^2.(-K)
        if q2 not in RAY_TYPE:
            continue
        lin = k3 * a - ke * b  # Fbar.(-K)^2
        tag = RAY_TYPE[q2].get(lin)
        if tag is None:
            continue
        cube = _ray_cube(q2, lin)
        if q2 < 0:
            # Fbar is the exceptional divisor over a point of Y, k = lin, and -K_Y
            # pulls back to -K + (k/2)Fbar, as (-K).Fbar^2 = -(k/2)Fbar^3 = -2:
            # iota = bk/(2mu), a_m = (ka + 2)/(2iota), (-K_Y)^3 = k3 + k^2/2
            iota, r_iota = divmod(b * lin, 2 * MU[tag])
            if r_iota or not 1 <= iota <= 4:
                continue
            a_m, r_a = divmod(lin * a + 2, 2 * iota)
            anti_y, r_y = divmod(2 * k3 + lin * lin, 2)
            if r_a or r_y or anti_y <= 0:
                continue
            mbar = (a_m, MU[tag])
            target = TargetInvariants(
                "fano-point-blowdown",
                k=lin,
                iota_y=iota,
                antik_cube_y=anti_y,
                genus_y=anti_y // 2 + 1 if iota == 1 and anti_y % 2 == 0 else None,
                singularity=POINT_SINGULARITY[tag],
            )
        elif b != MU[tag]:
            continue
        else:
            mbar = (a, b)
            if q2 == 0:
                target = TargetInvariants("del-pezzo-fibration", fiber_degree=lin)
            else:
                target = TargetInvariants("conic-bundle", discriminant_degree=12 - lin)
        m_cap = _m_cap(h0, a, b, birational=q2 < 0)
        if m_cap == 0:  # a == b, birational once h0 >= 2
            continue
        ebar, rem = divmod(k3 * a**3 - 3 * a * a * b * ke + 3 * a * b * b * kee - cube, b**3)
        if rem:
            continue
        defect = e3 - ebar
        if defect < 0:
            continue
        yield LinkCandidate(center, g, tag, mbar, (a, b), target, ebar, defect, m_cap=m_cap)


def _ray_trials(vals: tuple[int, ...]) -> list[tuple[int, int]]:
    """Every (a, b) that can pass the checks in _ray_candidates, at most one
    per entry (q2, lin) of RAY_TYPE."""
    k3, ke, kee, _ = vals
    # lin = k3*a - ke*b and q2 = k3*a^2 - 2ab*ke + b^2*kee give
    # lin^2 - k3*q2 = b^2*(ke^2 - k3*kee): each entry fixes b >= 1, then
    # a = (lin + ke*b)/k3.  This needs den > 0, which holds as kee < 0 < k3
    # (kee = -2 on every center, and _enumerate_cell skips k3 <= 0).
    den = ke * ke - k3 * kee
    trials = []
    for q2, lins in RAY_TYPE.items():
        for lin in lins:
            num = lin * lin - k3 * q2
            if num < den or num % den:
                continue
            b = math.isqrt(num // den)
            if b * b * den != num:
                continue
            a, rem = divmod(lin + ke * b, k3)
            if rem == 0:
                trials.append((a, b))
    return trials


def _ray_box(vals: tuple[int, ...], bound: int) -> Iterable[tuple[int, int]]:
    """The brute-force oracle for _ray_trials, yielded lazily: every a in
    1..bound with b = 1..3, and the points of _point_blowdown_box with b > 3."""
    return itertools.chain(
        itertools.product(range(1, bound + 1), (1, 2, 3)),
        ((a, b) for a, b in _point_blowdown_box(vals, bound) if b > 3),
    )


def _b1_candidates(
    center: Center, g: int, vals: tuple[int, ...], h0: int, trials: dict[int, Iterable[int]]
) -> Iterable[LinkCandidate]:
    """The curve blowdowns onto a Fano of index iota, from each a_m in trials[iota],
    each dropped by the first guard it fails, in the order a_f >= 1, effectivity
    (m_cap >= 1), d(Y), deg Z >= 1, 2g(Z) - 2 and the defect.  The first two
    read a_m alone, as one interval lo <= a_m <= hi per index: a_f = iota*a_m - 1
    >= 1 is a_m >= lo = ceil(2/iota), and as b_f = iota makes m_cap = top // a_f
    with top = _m_cap(h0, 1, iota, True), effectivity a_f <= top is
    a_m <= hi = floor((top + 1)/iota), unbounded where top is None.  As a_m > hi
    >= 1 gives a_m >= 2 >= lo, effectivity, the commoner, can go first."""
    k3, ke, kee, e3 = vals
    for iota, a_ms in trials.items():
        b_f = iota
        top = _m_cap(h0, 1, b_f, birational=True)
        lo = -(-2 // iota)
        hi = math.inf if top is None else (top + 1) // iota
        for a_m in a_ms:
            if a_m > hi or a_m < lo:
                continue
            a_f = iota * a_m - 1
            iota_d = k3 * a_m * a_m - 2 * a_m * ke + kee  # Mbar^2.(-K) = iota*d(Y)
            if iota_d % iota:
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
            # Mbar^3 = d(Y)
            ebar = k3 * a_m**3 - 3 * a_m * a_m * ke + 3 * a_m * kee - d
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
            m_cap = _m_cap(h0, a_f, b_f, birational=True)
            yield LinkCandidate(
                center, g, "B1", (a_m, 1), (a_f, b_f), target, ebar, defect, m_cap=m_cap
            )


def _b1_trials(vals: tuple[int, ...], iota: int) -> range:
    """Every a_m that can pass the B1 checks for a target of index iota: those
    with a non-negative defect, at every h0 (_b1_candidates applies d(Y) and
    effectivity).  With d = Mbar^2.(-K)/iota substituted, iota*(Ebar^3 - E^3)
    is the cubic below in a_m with leading coefficient iota*k3 > 0; it is
    positive (negative defect) beyond the Cauchy bound 1 + max|c_i|/(iota*k3)
    on its real roots, whether or not iota divides Mbar^2.(-K)."""
    k3, ke, kee, e3 = vals
    c_max = max(abs(3 * iota * ke + k3), abs(3 * iota * kee + 2 * ke), abs(kee + iota * e3))
    return range(1, 1 + c_max // (iota * k3) + 1)


def _point_blowdown_box(vals: tuple[int, ...], bound: int) -> Iterable[tuple[int, int]]:
    """Every (a_f, b_f) in 1..bound on Fbar^2.(-K) = -2, on a cell with
    k3 > 0 > kee (the only cells _enumerate_cell scans): kee*b^2 - 2a*ke*b +
    k3*a^2 + 2 = 0 solved for b inline.  The roots multiply to
    (k3*a^2 + 2)/kee < 0, and the reduced discriminant a^2*den - 2*kee (den as
    in _ray_trials) exceeds (a*ke)^2, so b = (a*ke - root)/kee is the one
    positive root.  It is at most N = bound exactly when
    k3*a^2 - 2*ke*N*a + kee*N^2 + 2 <= 0, that is when a lies between
    (ke*N -+ sqrt(N^2*den - 2*k3))/k3: the scan ends at the floor of the upper
    end, or tests no a_f when the radicand is negative.  The lower end is below
    1 unless N^2*kee > -2, so b_f <= N is still tested."""
    k3, ke, kee, _ = vals
    den = ke * ke - k3 * kee
    rad = bound * bound * den - 2 * k3
    top = min(bound, (ke * bound + math.isqrt(rad)) // k3) if rad >= 0 else 0
    for a_f in range(1, top + 1):
        disc = a_f * a_f * den - 2 * kee
        root = math.isqrt(disc)
        if root * root != disc:
            continue
        b_f, rem = divmod(a_f * ke - root, kee)
        if rem == 0 and b_f <= bound:
            yield a_f, b_f


def _enumerate_cell(center: Center, g: int, bound: int) -> list[LinkCandidate]:
    """One cell's candidates: from the solved trials, or with bound >= 1 the box."""
    vals = midpoint_form(center, g).values
    if vals[0] <= 0:
        return []
    # h0 <= h^0(-K_tilde - E) = h^0(sigma^*(-K) - kE), k = 2 on a curve and 3 at
    # a point: h^0(-K) = g + 2 less the conditions to vanish to order k, given
    # the hypothesis that every layer O_Z(-K) (x) Sym^j N*_Z has h^1 = 0 on Z.
    h0 = g + 2 - vanishing_conditions(CENTER_DATA[center], 1, 3 if center == "point" else 2)
    if bound:
        rays, b1 = _ray_box(vals, bound), dict.fromkeys((1, 2, 3, 4), range(1, bound + 1))
    else:
        rays, b1 = _ray_trials(vals), {i: _b1_trials(vals, i) for i in (1, 2, 3, 4)}
    cands = [*_ray_candidates(center, g, vals, h0, rays), *_b1_candidates(center, g, vals, h0, b1)]
    cands.sort(key=lambda c: (c.ctype, c.fbar))  # one genus per cell
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
    of each ray type's defining equations and the B1 range the defect bounds,
    so no box is scanned, and every genus set is clipped to GENUS_CAP, above
    which no candidate exists.  With search_bound=N >= 1 they are every
    coefficient in 1..N instead, at every genus given: the brute-force oracle
    the tests compare the solve against."""
    if center not in CENTER_DATA:
        raise ValueError(f"center must be one of line, conic, point, got {center!r}")
    search_bound = as_int(search_bound, "search_bound")
    if search_bound < 0:
        raise ValueError(f"search_bound must be >= 0, got {search_bound}")
    if isinstance(g_range, range):  # ascending, a range is sorted without repeats: never listed
        # equivalent-mutant: a range never has step 0
        genera = g_range if g_range.step > 0 else g_range[::-1]
    else:
        genera = sorted({as_int(g, "genus") for g in g_range})
    if genera and genera[0] < 2:
        raise ValueError(f"genus must be >= 2, got {genera[0]}")
    if not search_bound:  # no genus above the cap has a candidate
        genera = itertools.takewhile(GENUS_CAP.__ge__, genera)  # sorted, so this stops at the cap
    candidates = [cand for g in genera for cand in _enumerate_cell(center, g, search_bound)]
    return filter_links(candidates)


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
    link facts and one geometric rule; nothing is dropped.  Rules fire in the
    order genus-bound, rationality, geometric, euler; rationality needs the
    source known rational and the target known irrational."""
    if not candidates:
        return []
    from fano3 import catalog

    facts = catalog.link_facts()
    return [cand._replace(status=_status(cand, facts)) for cand in candidates]


def _status(cand: LinkCandidate, facts: catalog.LinkFactStore) -> str:
    source = (1, 2 * cand.g - 2)
    # The genus bound g <= 12, g != 11 is read off the catalog, not derived:
    # the source must be one of its rho = 1 index-1 entries.
    if source not in facts.chi:
        return "excluded:genus-bound"
    target = cand.target.fano()
    if source in facts.rational and target in facts.irrational:
        return "excluded:rationality"
    # An assumed geometric input, not derived: |Fbar| = |2 sigma*(-K) - 5E| at a
    # point is empty (the rule fires at g = 7).  chi(Fbar) = 5g - 35 <= 0 there
    # only checks consistency: most confirmed links have chi(Fbar) <= 0 too.
    if cand.center == "point" and cand.fbar == (2, 1) and cand.ctype.startswith("B"):
        return "excluded:geometric:double-anticanonical-minus-center-empty"
    chi_y = facts.chi.get(target)
    if cand.ctype in ("B1", "B2") and chi_y is not None:
        # B1 admits only deg_z >= 1 and always sets genus_z; B2 blows down a point
        t = cand.target
        z = CurveCenter(t.deg_z, t.genus_z) if cand.ctype == "B1" else PointCenter()
        if euler_propagate(chi_y, z, CENTER_DATA[cand.center]) != facts.chi[source]:
            return "excluded:euler"
    return "confirmed"


# --- Picard-number-2 primitive enumeration -------------------------------

class Rho2Solution(NamedTuple):
    """One primitive rho=2 solution: conic bundle with discriminant degree d
    plus a second ray of the stated type."""

    ray2: str
    d: int
    d_prime: Optional[int]
    k: Optional[int]
    a: Fraction
    b: Fraction
    antik_cube: int

    @property
    def ray1(self) -> str:
        return RAY_TYPE[2][12 - self.d]

    @property
    def g(self) -> int:
        return self.antik_cube // 2 + 1


def rho2_primitive_enumerate(bound: int = 8) -> list[Rho2Solution]:
    """The solutions with a, b <= bound of the three second-ray systems on a
    primitive rho=2 Fano threefold carrying a conic bundle with discriminant
    degree d.  Before that filter the list is complete, as _rho2_trials caps
    b by argument.  Half-integral (a, b) are admitted exactly on the C2 side
    (d = 0).  Sorted by antik_cube, which no two solutions share."""
    bound = as_int(bound, "bound")
    sols: list[Rho2Solution] = []
    for d in (0, *range(3, 12)):  # a non-empty discriminant curve has degree >= 3
        # (a, b) = (i/s, j/s): the grid has step 1/2 on the C2 side, else step 1
        s = 2 if d == 0 else 1
        for i, j, q2 in _rho2_trials(d, s):
            if max(i, j) > bound * s:
                continue  # a row beyond the caller's bound
            sol = _rho2_trial(d, s, i, j, q2)
            if sol is not None:
                sols.append(sol)
    sols.sort(key=lambda s: s.antik_cube)
    return sols


def _rho2_trials(d: int, s: int) -> list[tuple[int, int, int]]:
    """Every (i, j, q2) with (a, b) = (i/s, j/s) that can pass _rho2_trial,
    for j up to the cap on b below.  At each j, i is solved directly for each
    ray type in the order of RAY_TYPE, and kept where it is a positive integer."""
    coef = 12 - d
    # The cap on b, for D = a(-K) - bM with (-K)^2.M = coef, (-K).M^2 = 2 and
    # M^3 = 0, and lin = (-K)^2.D:
    # - D and C rays: D^3 = 0 gives a = (q2 + 4b^2)/(coef*b), so
    #   lin = coef*b*(2q2 + 2b^2)/(q2 + 4b^2) >= coef*b/2, and lin <= 12 in
    #   RAY_TYPE: b <= 24/coef.
    # - B rays: (-K).D^2 = -2, lin = k and D^3 = 4/k give, with w = 2/(k*a),
    #   b = (1 + w)/sqrt(w) and coef = k*sqrt(w)*(2 + w).  For w <= 1,
    #   coef <= 3k*sqrt(w), so b <= 2/sqrt(w) <= 6k/coef <= 24/coef.  For
    #   w >= 1, coef/k <= 12 = sqrt(4)*(2 + 4) gives w <= 4, and b grows with
    #   w there, so b <= 5/2.
    j_cap = max(24 * s // coef, 5 * s // 2)
    trials = []
    for j in range(1, j_cap + 1):
        # q2 = 0, 2: k3*a^2 from (-K).D^2 = q2 substituted into D^3 = 0 leaves
        # q2 - coef*a*b + 4b^2 = 0, so i = (q2*s^2 + 4j^2)/(coef*j)
        den = coef * j  # > 0, as d <= 11
        for q2 in (0, 2):
            num = q2 * s * s + 4 * j * j
            if not num % den:
                trials.append((num // den, j, q2))
        # q2 = -2: k = k3*a - coef*b with k3*a^2 from (-K).D^2 = -2 gives
        # a*(coef*b - k) = 2 + 2b^2, so i = (2s^2 + 2j^2)/(coef*j - k*s)
        num = 2 * s * s + 2 * j * j
        for k in RAY_TYPE[-2]:
            if den > k * s and not num % (den - k * s):
                trials.append((num // (den - k * s), j, -2))
    return trials


def _rho2_trial(d: int, s: int, i: int, j: int, q2: int) -> Optional[Rho2Solution]:
    """The solution at one grid point (a, b) = (i/s, j/s) with (-K).D^2 = q2
    for discriminant degree d, or None."""
    coef = 12 - d
    k3, rem = divmod(q2 * s * s + 2 * coef * i * j - 2 * j * j, i * i)
    # no k3 = 2 passes the checks below, so k3 <= 2 would drop no more: D^3 = 0
    # needs 9*coef^2 - 48 to be a square, and D^3 = 4/k leaves
    # 2a^3 - 3k*a^2 - 6a = 4/k, which has no rational root for k = 1, 2, 4
    if rem or k3 < 2 or k3 % 2:
        return None
    lin, rem = divmod(k3 * i - coef * j, s)  # (-K)^2.D
    if rem or lin not in RAY_TYPE[q2]:
        return None
    if k3 * i**3 - 3 * coef * i * i * j + 6 * i * j * j != s**3 * _ray_cube(q2, lin):  # s^3 D^3
        return None
    if q2 < 0:  # blowup of a point, D the exceptional divisor
        d_prime, k = None, lin
    elif q2 > 0:
        if d < 12 - lin:
            return None  # symmetric pair already listed from the other side
        d_prime, k = 12 - lin, None
    elif math.gcd(i, j) != 1:
        return None  # D = (i(-K) - jM)/s is primitive iff gcd(i, j) = 1
    else:
        d_prime, k = lin, None
    return Rho2Solution(RAY_TYPE[q2][lin], d, d_prime, k, Fraction(i, s), Fraction(j, s), k3)
