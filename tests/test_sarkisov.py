import collections
import io
import json
import math
import operator
import sys
import time
import types
from fractions import Fraction

import pytest

from fano3 import catalog, sarkisov
from fano3.blowup import PointCenter, vanishing_conditions
from fano3.cli import main
from fano3.exactcore import Basis, cls2, eval_form, form2
from fano3.riemannroch import FanoNumerics, hilbert_polynomial
from fano3.sarkisov import (
    GENUS_CAP,
    RAY_TYPE,
    TargetInvariants,
    _b1_candidates,
    _b1_trials,
    _m_cap,
    _point_blowdown_box,
    _ray_candidates,
    _ray_cube,
    _ray_trials,
    _rho2_trial,
    _rho2_trials,
    enumerate_links,
    filter_links,
    midpoint_form,
    rho2_primitive_enumerate,
)


def by_key(cands):
    return {(c.g, c.ctype, c.fbar): c for c in cands}


def _integer_roots(aa, bb, cc):
    """Positive integer roots of aa*x^2 + bb*x + cc = 0 (aa != 0): the general
    solver that the inline solve of _point_blowdown_box is checked against."""
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


@pytest.mark.parametrize(
    "center,g,expected",
    [
        ("line", 9, (12, 3, -2)),
        ("conic", 10, (12, 4, -2)),
        ("point", 8, (6, 4, -2)),
    ],
)
def test_midpoint_form_flop_invariant_values(center, g, expected):
    form = midpoint_form(center, g)
    assert tuple(form.values[:3]) == expected


# --- the second-ray table ---------------------------------------------------

# Mori-Mukai: ((-K).D^2, (-K)^2.D) -> the type of the ray D spans
MORI_MUKAI_TYPES = {
    **{(0, degree): "D1" for degree in (1, 2, 3, 4, 5, 6)},  # fiber degree
    (0, 8): "D2",
    (0, 9): "D3",
    (2, 12): "C2",  # 12 minus the discriminant degree
    **{(2, 12 - delta): "C1" for delta in (3, 4, 5, 6, 7, 8, 9, 10, 11)},
    (-2, 4): "B2",  # the pairing constant k
    (-2, 2): "B3/B4",
    (-2, 1): "B5",
}


def test_ray_type_table_is_mori_mukai():
    for q2 in range(-3, 4):
        for lin in range(-2, 15):
            expected = MORI_MUKAI_TYPES.get((q2, lin))
            assert RAY_TYPE.get(q2, {}).get(lin) == expected, (q2, lin)
            if expected is not None:  # D^3 = 0 for a fibration, 4/k for a point blowdown
                assert _ray_cube(q2, lin) == (Fraction(4, lin) if q2 == -2 else 0)


def test_point_blowdown_target_cube():
    # -K_Y pulls back to -K + (k/2)Fbar, and on (-K, Fbar) the form is
    # (k3, k, -2, 4/k), so (-K_Y)^3 = k3 + k^2/2 with no other input
    for k in (1, 2, 4):
        for k3 in range(1, 41):
            form = form2(Basis.KE, k3, k, -2, Fraction(4, k))
            pullback = cls2(Basis.KE, 1, Fraction(k, 2))
            assert eval_form(form, pullback, pullback, pullback) == k3 + Fraction(k * k, 2)


# --- catalog identity -------------------------------------------------------

def test_statuses_do_not_depend_on_catalog_names(monkeypatch):
    # the filter matches source and target by (index, (-K)^3), so renaming
    # every entry and fact subject changes no status
    def statuses():
        return {center: [(c.g, c.ctype, c.fbar, c.status) for c in enumerate_links(center, range(2, 41))]
                for center in ("line", "conic", "point")}

    before = statuses()
    cat = catalog.load()
    renamed = cat._replace(
        entries=tuple(e._replace(id=f"renamed-{e.id}") for e in cat.entries),
        facts=tuple(f._replace(subject=f"renamed-{f.subject}") for f in cat.facts),
    )
    monkeypatch.setattr(catalog, "load", lambda: renamed)
    assert statuses() == before


def test_point_blowdown_onto_index_two_has_catalog_facts():
    # the target's degree d(Y) is not stored for a point blowdown, yet its
    # (index, (-K)^3) still finds V3
    target = TargetInvariants("fano-point-blowdown", k=4, iota_y=2, antik_cube_y=24)
    assert target.fano() == (2, 24)
    assert target.fano() in catalog.link_facts().chi
    assert TargetInvariants("conic-bundle", discriminant_degree=5).fano() is None


# --- the three case lists, frozen from the enumeration -------------------

def test_line_case_list():
    cands = enumerate_links("line", range(7, 41))
    assert all(c.confirmed for c in cands)
    rows = [(c.g, c.ctype, c.fbar) for c in cands]
    assert rows == [
        (7, "D1", (1, 1)),
        (8, "C1", (1, 1)),
        (9, "B1", (3, 4)),
        (10, "B1", (2, 3)),
        (12, "B1", (1, 2)),
    ]
    assert {c.g for c in cands} == {7, 8, 9, 10, 12}
    g9 = by_key(cands)[(9, "B1", (3, 4))]
    assert g9.target.iota_y == 4 and g9.target.degree_y == 1
    assert g9.target.deg_z == 7 and g9.target.genus_z == 3
    g7 = by_key(cands)[(7, "D1", (1, 1))]
    assert g7.target.fiber_degree == 5
    g8 = by_key(cands)[(8, "C1", (1, 1))]
    assert g8.target.discriminant_degree == 5


def test_line_empty_at_eleven_and_beyond_twelve():
    assert enumerate_links("line", [11]) == []
    assert enumerate_links("line", range(13, 41)) == []


def test_conic_case_list():
    cands = enumerate_links("conic", range(7, 41))
    confirmed = [c for c in cands if c.confirmed]
    excluded = [c for c in cands if not c.confirmed]
    assert [(c.g, c.ctype, c.fbar) for c in confirmed] == [
        (7, "B1", (5, 3)),
        (8, "B1", (1, 1)),
        (9, "D1", (1, 1)),
        (10, "C1", (1, 1)),
        (12, "B1", (2, 3)),
    ]
    assert [(c.g, c.ctype, c.fbar, c.status) for c in excluded] == [
        (7, "B1", (3, 2), "excluded:rationality"),
        (8, "B2", (1, 1), "excluded:euler"),
        (11, "B1", (3, 4), "excluded:genus-bound"),
    ]
    k = by_key(cands)
    quadric_link = k[(7, "B1", (5, 3))]
    assert quadric_link.target.iota_y == 3
    assert (quadric_link.target.deg_z, quadric_link.target.genus_z) == (10, 7)
    assert quadric_link.mbar == (2, 1)
    cubic_link = k[(7, "B1", (3, 2))]
    assert cubic_link.target.iota_y == 2 and cubic_link.target.degree_y == 3
    assert (cubic_link.target.deg_z, cubic_link.target.genus_z) == (4, 0)
    assert cubic_link.ebar_cube == -15
    assert k[(11, "B1", (3, 4))].ebar_cube == -5
    assert k[(8, "B2", (1, 1))].ebar_cube == -11
    assert k[(8, "B2", (1, 1))].target.antik_cube_y == 16
    y14 = k[(8, "B1", (1, 1))]
    assert y14.target.genus_y == 8 and y14.target.deg_z == 2
    assert y14.mbar == (2, 1)


def test_point_case_list():
    cands = enumerate_links("point", range(7, 41))
    confirmed = [c for c in cands if c.confirmed]
    excluded = [c for c in cands if not c.confirmed]
    assert [(c.g, c.ctype, c.fbar) for c in confirmed] == [
        (7, "B1", (5, 2)),
        (8, "B1", (3, 2)),
        (9, "B2", (1, 1)),
        (10, "D1", (1, 1)),
        (12, "B1", (3, 4)),
    ]
    geo = "excluded:geometric:double-anticanonical-minus-center-empty"
    assert [(c.g, c.ctype, c.fbar, c.status) for c in excluded] == [
        (7, "B1", (2, 1), geo),
        (7, "B2", (2, 1), geo),
        (8, "B1", (5, 3), "excluded:euler"),
        (9, "B1", (1, 1), "excluded:euler"),
        (11, "C1", (1, 1), "excluded:genus-bound"),
        (13, "B1", (2, 3), "excluded:genus-bound"),
    ]
    k = by_key(cands)
    v5_link = k[(7, "B1", (5, 2))]
    assert (v5_link.target.iota_y, v5_link.target.degree_y) == (2, 5)
    assert (v5_link.target.deg_z, v5_link.target.genus_z) == (12, 7)
    assert v5_link.mbar == (3, 1)
    g12 = k[(12, "B1", (3, 4))]
    assert (g12.target.deg_z, g12.target.genus_z) == (6, 0)
    assert g12.mbar == (1, 1)
    b2 = k[(9, "B2", (1, 1))]
    assert b2.target.antik_cube_y == 16 and b2.target.genus_y == 9
    assert b2.mbar == (3, 2)
    assert k[(7, "B2", (2, 1))].mbar == (5, 2)


def _chi_double_anticanonical_minus_five_e(g):
    """chi(2 sigma^*(-K) - 5E) on the blowup of a point, for Fbar = (2, 1)."""
    return hilbert_polynomial(FanoNumerics.from_genus(3, g))(2) - vanishing_conditions(PointCenter(), 2, 5)


def test_geometric_rule_fires_only_where_its_divisor_has_no_positive_chi():
    # Fbar = 2(-K_tilde) - E = 2 sigma^*(-K) - 5E at a point.  The rule assumes
    # |Fbar| empty; chi <= 0 there is only consistent with it (see below).
    assert [_chi_double_anticanonical_minus_five_e(g) for g in range(2, 13)] == [
        5 * g - 35 for g in range(2, 13)
    ]
    geo = "excluded:geometric:double-anticanonical-minus-center-empty"
    fired = [
        c
        for center in ("line", "conic", "point")
        for c in enumerate_links(center, range(2, GENUS_CAP + 1))
        if c.status == geo
    ]
    assert [(c.center, c.g, c.ctype) for c in fired] == [("point", 7, "B1"), ("point", 7, "B2")]
    for c in fired:
        assert c.fbar == (2, 1)
        assert _chi_double_anticanonical_minus_five_e(c.g) <= 0


def _chi_of_fbar(c):
    """chi(Fbar) on the blowup: Fbar = a(-K_tilde) - bE = a sigma^*(-K) - kE,
    with k = a + b on a curve and 2a + b at a point."""
    a, b = c.fbar
    k = 2 * a + b if c.center == "point" else a + b
    chi_v = hilbert_polynomial(FanoNumerics.from_genus(3, c.g))(a)
    return chi_v - vanishing_conditions(sarkisov.CENTER_DATA[c.center], a, k)


def test_chi_of_fbar_does_not_decide_emptiness():
    # A birational link's Fbar is the exceptional divisor of its second ray, so
    # it is effective, yet chi(Fbar) <= 0 for most confirmed links: h^0 = chi
    # fails for them, and "chi <= 0" as a rule would exclude them.
    birational = [
        c
        for center in ("line", "conic", "point")
        for c in enumerate_links(center, range(2, GENUS_CAP + 1))
        if c.ctype.startswith("B")
    ]
    k = {(c.center, c.g, c.ctype, c.fbar): c for c in birational}
    v5 = k["line", 12, "B1", (1, 2)]  # the double projection onto V5
    assert (v5.target.iota_y, v5.target.degree_y, v5.status) == (2, 5, "confirmed")
    assert _chi_of_fbar(v5) == -2
    assert k["conic", 6, "B1", (2, 1)].confirmed
    assert _chi_of_fbar(k["conic", 6, "B1", (2, 1)]) == 0
    # the same chi as the point's (2, 1), which the geometric rule excludes
    assert not k["point", 7, "B1", (2, 1)].confirmed
    assert _chi_of_fbar(k["point", 7, "B1", (2, 1)]) == 0
    confirmed = [c for c in birational if c.confirmed]
    assert (len(confirmed), sum(_chi_of_fbar(c) <= 0 for c in confirmed)) == (15, 12)


def test_point_empty_beyond_thirteen():
    assert enumerate_links("point", range(14, 41)) == []
    assert enumerate_links("conic", range(13, 41)) == []


# --- defects ---------------------------------------------------------------

def test_defects_strictly_positive_in_range():
    # every emitted candidate, confirmed or not, has def > 0 for 7 <= g <= 12
    for center in ("line", "conic", "point"):
        cands = enumerate_links(center, range(7, 13))
        assert cands
        for cand in cands:
            assert cand.defect > 0


def test_line_defects_match_minus_iota_oracle():
    # for the line links the blown-down surface has Ebar^3 = -iota(Y)
    cands = [c for c in enumerate_links("line", range(7, 13)) if c.ctype == "B1"]
    assert cands
    for c in cands:
        assert c.ebar_cube == -c.target.iota_y
        assert c.defect == midpoint_form(c.center, c.g).values[3] + c.target.iota_y
    assert {(c.g, c.defect) for c in cands} == {(9, 5), (10, 4), (12, 3)}


def test_round_trip_through_eval_form():
    # substituting the solved Ebar^3 back, every defining relation holds
    for center in ("line", "conic", "point"):
        for c in enumerate_links(center, range(7, 14)):
            # the far-side form on (-K, Ebar), with the solved Ebar^3
            form = form2(Basis.KE, *midpoint_form(c.center, c.g).values[:3], c.ebar_cube)
            k = cls2(Basis.KE, 1, 0)
            mbar = cls2(Basis.KE, c.mbar[0], -c.mbar[1])
            fbar = cls2(Basis.KE, c.fbar[0], -c.fbar[1])
            t = c.target
            if t.kind == "del-pezzo-fibration":
                assert eval_form(form, mbar, mbar, mbar) == 0
                assert eval_form(form, mbar, mbar, k) == 0
                assert eval_form(form, mbar, k, k) == t.fiber_degree
            elif t.kind == "conic-bundle":
                assert eval_form(form, mbar, mbar, mbar) == 0
                assert eval_form(form, mbar, mbar, k) == 2
                assert eval_form(form, mbar, k, k) == 12 - t.discriminant_degree
            elif t.kind == "fano-curve-blowdown":
                assert eval_form(form, mbar, mbar, mbar) == t.degree_y
                assert eval_form(form, mbar, mbar, k) == t.iota_y * t.degree_y
                assert eval_form(form, mbar, fbar, k) == t.deg_z
                assert eval_form(form, fbar, fbar, k) == 2 * t.genus_z - 2
                # (-K + Fbar)^2 . (-K) = (-K_Y)^3 = iota^3 d(Y)
                kf = cls2(Basis.KE, 1 + c.fbar[0], -c.fbar[1])
                assert eval_form(form, kf, kf, k) == t.iota_y**3 * t.degree_y
            else:
                assert eval_form(form, fbar, fbar, k) == -2
                assert eval_form(form, fbar, k, k) == t.k
                assert eval_form(form, fbar, fbar, fbar) == Fraction(4, t.k)


def test_search_bound_sufficiency():
    # the closed-form solve against the brute-force box, from g = 2 so that
    # the line's g = 4 cell is compared too: h0 < 1 there, so only the defect
    # bound of _b1_trials limits its B1 trials at every index
    for center in ("line", "conic", "point"):
        solved = enumerate_links(center, range(2, 41))
        assert solved == enumerate_links(center, range(2, 41), search_bound=1000)


@pytest.mark.parametrize("center", ["line", "conic", "point"])
def test_box_oracle_finds_nothing_above_the_genus_cap(center):
    # the box scans every genus it is given, the cap's among them
    assert enumerate_links(center, range(GENUS_CAP + 1, GENUS_CAP + 201), search_bound=300) == []


@pytest.mark.parametrize("center", ["line", "conic", "point"])
def test_default_path_clips_a_range_at_the_genus_cap(center, monkeypatch):
    # the genera above GENUS_CAP are never listed, so any width is cheap; a
    # sparse range shows that first, as an unclipped 10**12 range never returns
    visited = []
    cell = sarkisov._enumerate_cell
    monkeypatch.setattr(sarkisov, "_enumerate_cell", lambda c, g, b: visited.append(g) or cell(c, g, b))
    enumerate_links(center, range(5, 10**12, 10**9))
    assert visited == [5]
    monkeypatch.undo()
    start = time.perf_counter()
    wide = enumerate_links(center, range(5, 10**12))
    assert time.perf_counter() - start < 1.0
    assert wide == enumerate_links(center, range(5, GENUS_CAP + 1))
    # a range too long for len() is clipped all the same
    assert enumerate_links(center, range(5, 10**30)) == wide


def test_a_range_below_genus_two_is_rejected_before_it_is_listed():
    # the least genus of a range of either direction is checked first, so a
    # start far below 2 is as cheap as a wide range above the cap
    start = time.perf_counter()
    for g_range, least in ((range(-(10**12), 5), -(10**12)), (range(5, -(10**12), -1), 1 - 10**12)):
        for bound in (0, 1):
            with pytest.raises(ValueError, match=f"genus must be >= 2, got {least}$"):
                enumerate_links("line", g_range, search_bound=bound)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("center", ["line", "conic", "point"])
def test_default_path_clips_a_descending_range_at_the_genus_cap(center, monkeypatch):
    # a descending range is reversed before the clip, so it is as cheap
    visited = []
    cell = sarkisov._enumerate_cell
    monkeypatch.setattr(sarkisov, "_enumerate_cell", lambda c, g, b: visited.append(g) or cell(c, g, b))
    enumerate_links(center, range(10**12 + 5, 4, -(10**9)))
    assert visited == [5]
    monkeypatch.undo()
    start = time.perf_counter()
    wide = enumerate_links(center, range(10**12, 4, -1))
    assert time.perf_counter() - start < 1.0
    assert wide == enumerate_links(center, range(5, GENUS_CAP + 1))


@pytest.mark.parametrize("center", ["line", "conic", "point"])
def test_default_path_clips_a_list_at_the_genus_cap(center, monkeypatch):
    # the clip does not depend on the container: a list is cut where a range is
    visited = []
    cell = sarkisov._enumerate_cell
    monkeypatch.setattr(sarkisov, "_enumerate_cell", lambda c, g, b: visited.append(g) or cell(c, g, b))
    enumerate_links(center, [5, 10**12])
    assert visited == [5]
    monkeypatch.undo()
    assert enumerate_links(center, [*range(2, 61)]) == enumerate_links(center, range(2, 61))


@pytest.mark.parametrize("center", ["line", "conic", "point"])
def test_solve_finds_nothing_above_the_genus_cap(center):
    # enumerate_links clips these genera, so the cap is checked on the cells
    for g in (*range(GENUS_CAP + 1, GENUS_CAP + 201), 10**6, 10**12):
        assert sarkisov._enumerate_cell(center, g, 0) == [], g


def test_last_genus_with_a_candidate_before_the_filter():
    # the claim in docs/cli.md: the last genus with any unfiltered candidate
    # is 12, 12 and 13, though every cell with k3 > 0 has B1 trials
    last = {
        center: max(g for g in range(2, GENUS_CAP + 1) if sarkisov._enumerate_cell(center, g, 0))
        for center in ("line", "conic", "point")
    }
    assert last == {"line": 12, "conic": 12, "point": 13}


def test_filter_links_of_nothing_reads_no_facts(monkeypatch):
    monkeypatch.setattr(catalog, "link_facts", lambda: pytest.fail("link_facts was called"))
    assert filter_links([]) == []


def test_enumerate_links_rejects_bad_arguments(monkeypatch):
    for g in (1, 0, -3):
        with pytest.raises(ValueError, match=f"genus must be >= 2, got {g}"):
            enumerate_links("line", [g, 7])
    with pytest.raises(ValueError, match="search_bound must be >= 0, got -1"):
        enumerate_links("line", [7], search_bound=-1)
    # an unknown center is named, also where no cell would be computed
    for call in (
        lambda: enumerate_links("foo", [7]),
        lambda: enumerate_links("foo", range(30, 41)),
        lambda: midpoint_form("foo", 7),
    ):
        with pytest.raises(ValueError, match="center must be one of line, conic, point, got 'foo'"):
            call()
    # int() alone would truncate 7.5 to 7 and parse "7"
    for g, shown in ((7.5, "7.5"), ("7", "'7'")):
        with pytest.raises(ValueError, match=f"genus must be an integer, got {shown}"):
            enumerate_links("line", [g, 8])
    assert enumerate_links("line", [7.0, 8]) == enumerate_links("line", [7, 8])
    # the bounds follow the same rule
    with pytest.raises(ValueError, match="search_bound must be an integer, got 2.5"):
        enumerate_links("line", [7], search_bound=2.5)
    with pytest.raises(ValueError, match="bound must be an integer, got 7.5"):
        rho2_primitive_enumerate(7.5)
    assert rho2_primitive_enumerate(8.0) == rho2_primitive_enumerate(8)
    # a falsy search_bound is checked too: none of these is the default path
    for bound, shown in ((None, "None"), ("", "''"), ([], r"\[\]")):
        with pytest.raises(ValueError, match=f"search_bound must be an integer, got {shown}$"):
            enumerate_links("line", [7], search_bound=bound)
    # every integer 0 is: its cells get the int 0, and the genus above the cap is clipped
    cells = []
    cell = sarkisov._enumerate_cell
    monkeypatch.setattr(sarkisov, "_enumerate_cell", lambda c, g, b: cells.append((g, b, type(b))) or cell(c, g, b))
    for bound in (0, 0.0, False):
        enumerate_links("line", [7, 10**12], search_bound=bound)
    assert cells == [(7, 0, int)] * 3


def test_solved_trials_cover_every_box_point():
    # trial-level oracle on synthetic midpoint values (k3, ke, kee): every box
    # point whose (q2, lin) is an entry of RAY_TYPE must be a solved trial,
    # also for the types no index-1 source realizes, which the enumeration
    # oracle cannot see
    box = 60
    fiber_hits = dict.fromkeys([("D", 1), ("D", 2), ("D", 3), ("C", 1), ("C", 2)], 0)
    k_hits = dict.fromkeys(RAY_TYPE[-2], 0)
    for k3 in range(1, 41):
        for ke in (*range(-6, 0), *range(1, 7)):
            for kee in range(-6, 0):
                vals = (k3, ke, kee, 0)
                solved = set(_ray_trials(vals))
                for kind, mu in fiber_hits:
                    q2 = 0 if kind == "D" else 2  # Mbar^2.(-K)
                    for a in range(1, box + 1):
                        on_q2 = k3 * a * a - 2 * a * mu * ke + mu * mu * kee == q2
                        if on_q2 and k3 * a - ke * mu in RAY_TYPE[q2]:  # Mbar.(-K)^2
                            assert (a, mu) in solved, (vals, kind, mu, a)
                            fiber_hits[kind, mu] += 1
                for a_f, b_f in _point_blowdown_box(vals, box):  # Fbar^2.(-K) = -2
                    k = k3 * a_f - ke * b_f
                    if k in k_hits:
                        assert (a_f, b_f) in solved, (vals, a_f, b_f)
                        k_hits[k] += 1
    assert fiber_hits == {("D", 1): 39, ("D", 2): 21, ("D", 3): 10, ("C", 1): 57, ("C", 2): 15}
    assert k_hits == {4: 14, 2: 7, 1: 3}


def test_b1_trials_give_every_box_candidate():
    # trial-level oracle on synthetic midpoint values (k3, ke, kee, e3): at
    # every h0, the B1 guards pass the same a_m from the defect-bounded
    # trials as from the box, which the enumeration oracle tests on one cell
    # only
    box = range(1, 61)
    hits = collections.Counter()
    for k3 in range(1, 9):
        for ke in (*range(-6, 0), *range(1, 7)):
            for kee in range(-6, 0):
                for e3 in (-2, 1):
                    vals = (k3, ke, kee, e3)
                    for iota in (1, 2, 3, 4):
                        solved = _b1_trials(vals, iota)
                        for h0 in range(-3, 5):
                            expected = list(_b1_candidates("line", 2, vals, h0, {iota: box}))
                            got = sorted(_b1_candidates("line", 2, vals, h0, {iota: solved}))
                            assert got == expected, (vals, iota, h0)
                            hits[iota] += len(got)
    assert hits == {1: 654, 2: 496, 3: 208, 4: 192}


def test_b1_trials_bound_the_defect_at_every_index():
    # every a_m past the range of _b1_trials has a negative defect, computed by
    # the formulas of _b1_candidates with d(Y) = Mbar^2.(-K)/iota, whether or
    # not iota divides Mbar^2.(-K)
    for k3 in range(1, 9):
        for ke in (*range(-6, 0), *range(1, 7)):
            for kee in range(-6, 0):
                for e3 in (-2, 1):
                    vals = (k3, ke, kee, e3)
                    for iota in (1, 2, 3, 4):
                        trials = _b1_trials(vals, iota)
                        for a_m in range(1, max(trials, default=0) + 11):
                            if a_m in trials:
                                continue
                            iota_d = k3 * a_m * a_m - 2 * a_m * ke + kee  # Mbar^2.(-K)
                            d = Fraction(iota_d, iota)
                            ebar = k3 * a_m**3 - 3 * a_m * a_m * ke + 3 * a_m * kee - d
                            assert e3 - ebar < 0, (vals, iota, a_m)


# Synthetic (center, g, vals, trial) that each guard of _ray_candidates
# rejects after every earlier check passed, one per guard in its order: a,
# effectivity, the type, iota-range, target-cube or length, m-cap,
# ebar-integral, defect.  Without that guard the trial comes out as a
# candidate, except where a row says which later guard drops it too.
# vals = (k3, ke, kee, e3); q2 = (-K).Fbar^2 and lin = (-K)^2.Fbar of
# Fbar = a(-K) - bE pick the type.  Each trial is on the line, where the
# cell's bound is h^0(-K_tilde - E) >= g - 5; at g = 2 it shows nothing, so
# no m_cap is set.
RAY_GUARDS = {
    # D1 (q2 = 0, lin = 1) at a = 0: Fbar = -E is no ray of the box
    "a": ("line", 2, (1, -1, 0, 0), (0, 1)),
    # D1 at a = 2 > b = 1 with h0 = 2: b >= m*a fails for m = 1.  The m-cap
    # guard drops every such trial too, as _m_cap is 0 for a > b >= 1; this
    # guard reads no midpoint value, so the box pays one comparison for them.
    "effectivity": ("line", 7, (1, 1, 0, 0), (2, 1)),
    # B5 (q2 = -2, lin = 1) with b = 1: iota = b*lin/(2*mu) = 1/2 floors to
    # 0, which the next line would divide by.
    # No integral trial with iota > 4 passes the later checks, so this guard
    # is never the only one that drops a trial.
    "iota-range": ("line", 2, (2, 1, -2, 0), (1, 1)),
    # B2 (q2 = -2, lin = 4), iota = 1, a_m = 3, (-K_Y)^3 = k3 + 8 = 0
    "target-cube": ("line", 2, (-8, -12, -18, 0), (1, 1)),
    # D2 (q2 = 0, lin = 8) has length 2, not b = 1
    "length": ("line", 2, (10, 2, -6, 0), (1, 1)),
    # B2 with b = 1 > m*a fails for m = 1 from g = 7 on, where
    # h^0(-K_tilde - E) >= g - 5 >= 2
    "m-cap": ("line", 7, (2, -2, -8, 0), (1, 1)),
    # D2 with b = 2: Ebar^3 = (4 + 12 - 36)/8 = -5/2
    "ebar-integral": ("line", 2, (4, -2, -3, 0), (1, 2)),
    # C1 (q2 = 2, lin = 2): Ebar^3 = 1 > E^3 = -2
    "defect": ("line", 2, (1, -1, -1, -2), (1, 1)),
}


@pytest.mark.parametrize("center,g,vals,trial", RAY_GUARDS.values(), ids=RAY_GUARDS)
def test_ray_guard_drops_its_trial(center, g, vals, trial):
    assert list(_ray_candidates(center, g, vals, g - 5, [trial])) == []


# Synthetic (vals, trial, field, value) on the boundary of a guard of
# _ray_candidates, which the guard must pass: each trial comes out as the one
# candidate, with field at the boundary value.  Trials as in RAY_GUARDS.
RAY_BOUNDARIES = {
    # B3/B4 (q2 = -2, lin = 2) with b = 4: iota = b*lin/(2*mu) = 4, the top of
    # 1..4, with a_m = 1 and (-K_Y)^3 = 62 + 2 = 64, as on P^3
    "iota-range": ((62, 46, 34, 25), (3, 4), "target.iota_y", 4),
    # C1 (q2 = 2, lin = 2): Ebar^3 = 1 = E^3
    "defect": ((1, -1, -1, 1), (1, 1), "defect", 0),
}


@pytest.mark.parametrize("vals,trial,field,value", RAY_BOUNDARIES.values(), ids=RAY_BOUNDARIES)
def test_ray_guard_passes_its_boundary(vals, trial, field, value):
    cands = list(_ray_candidates("line", 2, vals, -3, [trial]))
    assert [operator.attrgetter(field)(c) for c in cands] == [value]


# Synthetic (vals, h0, {iota: [a_m]}), one per guard of _b1_candidates in its
# order, that the guard drops though every other guard passes: without the
# guard the trial comes out as a candidate.  Here a_f = iota*a_m - 1 and
# b_f = iota; an h0 below 1 shows no effectivity, so no m_cap is set.
B1_GUARDS = {
    # a_f = 0, which _m_cap would divide by once the cell shows effectivity
    "a-f": ((2, -3, -2, 0), -3, {1: [1]}),
    # h0 >= 2: b_f > m*a_f fails for m = 1 as a_f = b_f = 1
    "effectivity": ((2, 0, -2, 0), 2, {1: [2]}),
    # Mbar^2.(-K) = 8 - 4 - 1 = 3 is not 2*d(Y)
    "iota-divides": ((2, 1, -1, 0), -3, {2: [2]}),
    # a_f = 3 and d(Y) = Mbar^2.(-K) = 16 - 5 = 11 is odd on index 1
    "index-one-degree": ((1, 0, -5, -2), -3, {1: [4]}),
    # d(Y) = 3/3 = 1, but index 3 is the quadric, d = 2
    "degree-table": ((1, -2, -2, 0), -3, {3: [1]}),
    # deg Z = 4 - 3 - 2 = -1
    "deg-z": ((2, 1, -2, 0), -3, {1: [2]}),
    # 2g(Z) - 2 = 1 + 4 - 4 = 1 is odd
    "genus-z": ((1, -1, -1, 0), -3, {2: [1]}),
    # Ebar^3 = 54 - 18 - 16 = 20 > E^3 = 0
    "defect": ((2, 0, -2, 0), -3, {1: [3]}),
}


@pytest.mark.parametrize("vals,h0,trials", B1_GUARDS.values(), ids=B1_GUARDS)
def test_b1_guard_drops_its_trial(vals, h0, trials):
    assert list(_b1_candidates("line", 2, vals, h0, trials)) == []


# Synthetic (vals, h0, trials, field, value) on the boundary of a guard of
# _b1_candidates, as RAY_BOUNDARIES is for _ray_candidates
B1_BOUNDARIES = {
    # a_m = 2, a_f = 1: d(Y) = Mbar^2.(-K) = 8 - 12 + 6 = 2, the least even
    # degree on index 1, with deg Z = 1, g(Z) = 2 and Ebar^3 = 14 = E^3
    "index-one-degree": ((2, 3, 6, 14), -3, {1: [2]}, "target.degree_y", 2),
}


@pytest.mark.parametrize("vals,h0,trials,field,value", B1_BOUNDARIES.values(), ids=B1_BOUNDARIES)
def test_b1_guard_passes_its_boundary(vals, h0, trials, field, value):
    cands = list(_b1_candidates("line", 2, vals, h0, trials))
    assert [operator.attrgetter(field)(c) for c in cands] == [value]


def test_b1_effectivity_is_tested_before_any_arithmetic_on_the_cell():
    # the first two guards, a_f = iota*a_m - 1 >= 1 and a_f <= top, read a_m
    # alone as one interval: exactly the trials they fail are dropped before
    # any midpoint value is read, and every other trial reaches the arithmetic
    # on the cell, where None raises
    for iota in (1, 2, 3, 4):
        for h0 in range(-3, 6):
            top = _m_cap(h0, 1, iota, True)
            for a_m in range(-5, 81):
                a_f = iota * a_m - 1
                trials = {iota: [a_m]}
                if a_f < 1 or (top is not None and a_f > top):
                    assert list(_b1_candidates("line", 2, (None,) * 4, h0, trials)) == [], (iota, h0, a_m)
                else:
                    with pytest.raises(TypeError):
                        list(_b1_candidates("line", 2, (None,) * 4, h0, trials))


@pytest.mark.parametrize("center", ["line", "conic", "point"])
def test_box_consumes_every_b1_trial(center, monkeypatch):
    # the box stays a brute force: each a_m in 1..N reaches the guards of every
    # index, also in cells where effectivity drops all but a_m = 1
    seen = collections.Counter()

    def counting(iota, a_ms):
        for a_m in a_ms:
            seen[iota] += 1
            yield a_m

    b1 = sarkisov._b1_candidates
    monkeypatch.setattr(
        sarkisov,
        "_b1_candidates",
        lambda c, g, vals, h0, trials: b1(c, g, vals, h0, {i: counting(i, a) for i, a in trials.items()}),
    )
    for g in (7, 12, 30):
        seen.clear()
        sarkisov._enumerate_cell(center, g, 50)
        assert seen == dict.fromkeys((1, 2, 3, 4), 50)


def test_ray_effectivity_is_tested_before_any_arithmetic_on_the_cell():
    # a <= 0 is dropped at any h0, and once h0 >= 1 every a > b, by the first
    # two guards, which read no midpoint value: None would raise
    nonpositive = [(a, b) for a in range(-3, 1) for b in range(-2, 6)]
    assert list(_ray_candidates("line", 2, (None,) * 4, -3, nonpositive)) == []
    above = [(a, b) for b in range(1, 6) for a in range(b + 1, 200)]
    for h0 in (1, 2, 9):
        assert list(_ray_candidates("line", 2, (None,) * 4, h0, nonpositive + above)) == []


@pytest.mark.parametrize("center", ["line", "conic", "point"])
def test_box_consumes_every_ray_trial(center, monkeypatch):
    # the box stays a brute force: each of the 3*N points with b = 1..3 and each
    # point-blowdown point with b > 3 reaches the guards, also in cells where
    # effectivity drops every a > b
    seen = []

    def counting(trials):
        for trial in trials:
            seen.append(trial)
            yield trial

    rays = sarkisov._ray_candidates
    monkeypatch.setattr(
        sarkisov,
        "_ray_candidates",
        lambda c, g, vals, h0, trials: rays(c, g, vals, h0, counting(trials)),
    )
    deep_points = 0
    for g in (7, 12, 30):
        seen.clear()
        sarkisov._enumerate_cell(center, g, 50)
        k3, ke, kee, _ = midpoint_form(center, g).values
        deep = [
            (a, b)
            for a in range(1, 51)
            for b in range(4, 51)
            if k3 * a * a - 2 * a * b * ke + b * b * kee == -2  # Fbar^2.(-K)
        ]
        assert sorted(seen) == sorted([(a, b) for a in range(1, 51) for b in (1, 2, 3)] + deep)
        deep_points += len(deep)
    assert deep_points == {"line": 3, "conic": 3, "point": 2}[center]


def _box_pairs_match_the_quadratic_formula(box, kes):
    """Compare _point_blowdown_box with _integer_roots on the rows (k3, ke, kee)
    for k3 in -10..40, kee in -6..-1 and ke in kes; return the totals of
    expected pairs, of second roots and of double roots."""
    pairs = two_roots = double_roots = 0
    for k3 in range(-10, 41):
        for ke in kes:
            for kee in range(-6, 0):
                vals = (k3, ke, kee, 0)
                expected = [
                    (a_f, b_f)
                    for a_f in range(1, box + 1)
                    for b_f in _integer_roots(kee, -2 * a_f * ke, k3 * a_f * a_f + 2)
                    if b_f <= box
                ]
                assert list(_point_blowdown_box(vals, box)) == expected, (vals, box)
                a_fs = [a_f for a_f, _ in expected]
                pairs += len(a_fs)
                two_roots += len(a_fs) - len(set(a_fs))
                # a zero discriminant a_f^2*(ke^2 - k3*kee) - 2*kee needs k3 < 0
                double_roots += sum(a_f * a_f * (ke * ke - k3 * kee) == 2 * kee for a_f in a_fs)
    return pairs, two_roots, double_roots


def test_point_blowdown_box_matches_the_quadratic_formula():
    # the inline solve of Fbar^2.(-K) = -2 for b_f yields the pairs, in order,
    # that _integer_roots gives, on the synthetic grid of
    # test_solved_trials_cover_every_box_point and on rows with k3 <= 0
    kes = (*range(-6, 0), *range(1, 7))
    assert _box_pairs_match_the_quadratic_formula(60, kes) == (965, 135, 11)
    # small boxes, ke = 0 among the rows: the scan's end is 0 where
    # N^2*den < 2*k3, below N elsewhere, and N itself where a root b_f = N is
    # double in a_f (k3 = ke = 1, kee = -1 at N = 1 gives (1, 1))
    for box in (1, 2, 3, 4):
        _box_pairs_match_the_quadratic_formula(box, range(-6, 7))


def test_point_blowdown_box_stops_at_the_last_a_f_with_a_root_in_the_box(monkeypatch):
    # on real cells (k3 > 0) the scan tests exactly the a_f in 1..N whose
    # positive root b_f = (root - a_f*ke)/(-kee) of kee*b^2 - 2a*ke*b + k3*a^2
    # + 2 = 0 is at most N, here compared with N without taking the root
    tested = []

    def isqrt(n):
        tested.append(n)
        return math.isqrt(n)

    monkeypatch.setattr(sarkisov, "math", types.SimpleNamespace(isqrt=isqrt))
    for center, g in (("line", 7), ("conic", 12), ("point", 13), ("line", 21)):
        k3, ke, kee, _ = vals = midpoint_form(center, g).values
        den = ke * ke - k3 * kee
        for box in (1, 2, 5, 60, 1000):
            tested.clear()
            list(_point_blowdown_box(vals, box))
            in_box = [
                a_f
                for a_f in range(1, box + 1)
                # root <= N*(-kee) + a_f*ke, with root^2 the discriminant
                if -kee * box + a_f * ke >= 0
                and a_f * a_f * den - 2 * kee <= (-kee * box + a_f * ke) ** 2
            ]
            # one isqrt for the end of the scan, then one per a_f tested
            end = [box * box * den - 2 * k3]
            assert tested == end + [a_f * a_f * den - 2 * kee for a_f in in_box], (center, g, box)
    # line g = 21 at N = 1000: (k3, ke) = (36, 3) puts the last root in the box at a_f = 333
    assert in_box == list(range(1, 334))


def test_m_cap_matches_its_definition_by_search():
    # None without effectivity; else the largest m >= 0 with b >= m*a, strictly
    # for a birational contraction once h0 >= 2.  The B1 scan rests on the
    # identity m_cap(a) = m_cap(1) // a, the ray scan on a cap of 0 for every
    # a > b once h0 >= 1.
    for h0 in range(-3, 5):
        for a in range(1, 13):
            for b in range(1, 13):
                for birational in (False, True):
                    strict = birational and h0 >= 2
                    fits = [m for m in range(b + 1) if (b > m * a if strict else b >= m * a)]
                    expected = None if h0 < 1 else max(fits)
                    assert _m_cap(h0, a, b, birational) == expected
                    top = _m_cap(h0, 1, b, birational)
                    assert expected == (None if top is None else top // a)
                    assert expected == 0 or not (h0 >= 1 and a > b)


def test_integer_roots_need_a_square_discriminant():
    assert _integer_roots(1, 0, -2) == []  # x^2 = 2
    assert _integer_roots(1, 0, 4) == []  # x^2 = -4
    assert _integer_roots(1, 0, -4) == [2]


def test_solvers_carry_int():
    # the link and rho-2 solvers run on int; the link JSON still declares
    # Ebar^3 and the defect rational
    for center in ("line", "conic", "point"):
        assert all(type(v) is int for g in range(2, 61) for v in midpoint_form(center, g).values)
        for bound in (0, 60):
            cands = enumerate_links(center, range(2, 61), search_bound=bound)
            assert cands
            assert all(type(c.ebar_cube) is int and type(c.defect) is int for c in cands)
    for d in (0, *range(3, 12)):
        trials = _rho2_trials(d, 2 if d == 0 else 1)
        assert all(type(x) is int for trial in trials for x in trial)
    out = io.StringIO()
    argv = ["link", "--center", "point", "--genus-range", "8..13", "--show-excluded", "--json"]
    assert main(argv, out=out) == 0
    rows = json.loads(out.getvalue())
    assert rows
    assert all(set(row["ebar_cube"]) == set(row["defect"]) == {"num", "den"} for row in rows)


# --- rho = 2 ----------------------------------------------------------------

def test_rho2_primitive_solutions():
    sols = rho2_primitive_enumerate()
    assert len(sols) == 9
    assert sorted(s.antik_cube for s in sols) == [6, 12, 14, 24, 30, 48, 54, 56, 62]
    table = {s.antik_cube: s for s in sols}
    half = Fraction(1, 2)
    # (ray pair, d, d', g, a, b) row by row; the C1/C2 pair at 30 is recorded
    # from its C1 side (d = 3), the table prints the same pair as {C2, C1}
    assert (table[6].ray2, table[6].d, table[6].d_prime, table[6].g) == ("D1", 8, 2, 4)
    assert (table[6].a, table[6].b) == (1, 1)
    assert (table[12].ray2, table[12].d, table[12].d_prime, table[12].g) == ("C1", 6, 6, 7)
    assert (table[14].ray2, table[14].d, table[14].k, table[14].g) == ("B3/B4", 6, 2, 8)
    assert (table[14].a, table[14].b) == (1, 2)
    assert (table[24].ray2, table[24].d, table[24].d_prime, table[24].g) == ("D2", 4, 8, 13)
    assert (table[24].a, table[24].b) == (1, 2)
    assert {table[30].ray1, table[30].ray2} == {"C1", "C2"}
    assert (table[30].d, table[30].d_prime, table[30].g) == (3, 0, 16)
    assert (table[48].ray1, table[48].ray2, table[48].d_prime) == ("C2", "C2", 0)
    assert (table[48].a, table[48].b) == (half, 1)
    assert (table[54].ray2, table[54].d_prime) == ("D3", 9)
    assert (table[54].a, table[54].b) == (half, Fraction(3, 2))
    assert (table[56].ray2, table[56].k) == ("B2", 4)
    assert (table[56].a, table[56].b) == (half, 2)
    assert (table[62].ray2, table[62].k) == ("B5", 1)
    assert (table[62].a, table[62].b) == (half, Fraction(5, 2))
    assert table[62].g == 32


def _rho2_grid_scan(bound):
    # the brute-force oracle: every grid point (a, b) = (i/s, j/s) up to bound
    sols = []
    for d in (0, *range(3, 12)):
        s = 2 if d == 0 else 1
        grid = range(1, bound * s + 1)
        for i in grid:
            for j in grid:
                for q2 in RAY_TYPE:
                    sol = _rho2_trial(d, s, i, j, q2)
                    if sol is not None:
                        sols.append(sol)
    sols.sort(key=lambda s: s.antik_cube)
    return sols


# 40 lies above every cap on b that _rho2_trials derives (24, at d = 11);
# at 2 the bound drops the (-K)^3 = 62 row, which has b = 5/2
@pytest.mark.parametrize("bound", [2, 8, 16, 40])
def test_rho2_solve_matches_grid_scan(bound):
    sols = rho2_primitive_enumerate(bound)
    assert len(sols) == (8 if bound == 2 else 9)
    assert sols == _rho2_grid_scan(bound)


def _rho2_trials_reference(d, s):
    # the trials as listed before the direct per-(j, type) solve: a list of
    # (num, den) quotients for every (j, q2), where i = num/den
    coef = 12 - d
    trials = []
    for j in range(1, max(24 * s // coef, 5 * s // 2) + 1):
        for q2 in RAY_TYPE:
            if q2 == -2:
                quotients = [(2 * s * s + 2 * j * j, coef * j - k * s) for k in RAY_TYPE[q2]]
            else:
                quotients = [(q2 * s * s + 4 * j * j, coef * j)]
            for num, den in quotients:
                if den > 0 and num % den == 0:
                    trials.append((num // den, j, q2))
    return trials


def test_rho2_trials_match_the_per_quotient_reference():
    # the same ordered list on every d, on both grids (the enumerator uses
    # s = 2 at d = 0 alone, and skips d = 1, 2)
    for d in range(12):
        for s in (1, 2):
            assert _rho2_trials(d, s) == _rho2_trials_reference(d, s), (d, s)


def test_rho2_trials_cover_every_rational_solution():
    # trial-level oracle: the cap on b uses the three equations of a ray and
    # not that (-K)^3 is an integer, so every point of the box j < 50 (twice
    # the largest cap), i <= 8j + 8 that solves them with k3 = q/i^2 rational
    # must be a trial
    for d in (0, *range(3, 12)):
        s, coef = (2 if d == 0 else 1), 12 - d
        trials = set(_rho2_trials(d, s))
        for j in range(1, 50):
            for i in range(1, 8 * j + 9):
                for q2, lins in RAY_TYPE.items():
                    q = q2 * s * s + 2 * coef * i * j - 2 * j * j
                    lin, rem = divmod(q - coef * i * j, s * i)  # (-K)^2.D
                    if rem or lin not in lins:
                        continue
                    if q * i - 3 * coef * i * i * j + 6 * i * j * j == s**3 * _ray_cube(q2, lin):
                        assert (i, j, q2) in trials, (d, i, j, q2)


def test_rho2_has_no_solution_with_anticanonical_cube_two(monkeypatch):
    # the argument next to the k3 guard of _rho2_trial, run through the
    # function at every discriminant degree on a box of grid points: the
    # wrapped _ray_cube records the k3 of each trial that reaches the D^3 check
    reached = []

    def ray_cube(q2, lin):
        reached.append(sys._getframe(1).f_locals["k3"])
        return _ray_cube(q2, lin)

    monkeypatch.setattr(sarkisov, "_ray_cube", ray_cube)
    box = range(1, 31)
    sols = [_rho2_trial(d, s, i, j, q2) for d in range(12) for s in (1, 2) for i in box for j in box for q2 in RAY_TYPE]
    assert 2 in reached
    assert all(sol is None or sol.antik_cube != 2 for sol in sols)


def test_rho2_matches_catalog_primitive_entries():
    cat = catalog.load()
    entries = cat.list(rho=2, flag="Primitive")
    assert sorted(e.antik_cube for e in entries) == sorted(
        s.antik_cube for s in rho2_primitive_enumerate()
    )
    rays = {e.antik_cube: set(e.rays) for e in entries}
    for s in rho2_primitive_enumerate():
        assert {s.ray1, s.ray2} == rays[s.antik_cube]
