"""Acceptance criteria, one test per criterion; all tolerances are exact."""

import io
import random
from fractions import Fraction

from fano3 import catalog
from fano3.blowup import (
    CurveCenter,
    PointCenter,
    blowup_curve,
    blowup_point,
    pullback_form_curve,
)
from fano3.cli import main
from fano3.riemannroch import FanoNumerics, hilbert_polynomial
from fano3.sarkisov import enumerate_links, euler_propagate, rho2_primitive_enumerate
from fano3.scrolls import hyperelliptic_candidates, trigonal_candidates
from fano3.wps import CompleteIntersectionSpec, WeightSystem, ci_fano_invariants


def report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_riemann_roch_goldens():
    for g in list(range(2, 11)) + [12]:
        chi = hilbert_polynomial(FanoNumerics.from_genus(3, g))
        assert chi(1) == g + 2
    for d in range(1, 6):
        chi = hilbert_polynomial(FanoNumerics(3, 2, d))
        assert chi(1) == d + 2
    rng = random.Random(20260810)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 3)
        iota = rng.randint(max(1, n - 2), n + 1)
        coindex = n + 1 - iota
        if coindex == 0:
            d = Fraction(1)
        elif coindex == 1:
            d = Fraction(2)
        elif coindex == 2:
            d = Fraction(rng.randint(1, 40))
        else:
            d = Fraction(2 * rng.randint(1, 40))
        fn = FanoNumerics(n, iota, d)
        chi = hilbert_polynomial(fn)
        assert chi(0) == 1
        t = rng.randint(-10, 10)
        assert chi(-iota - t) == (-1) ** n * chi(t)
        checked += 1
    report("1 riemann-roch goldens")


def test_criterion_2_blowup_goldens():
    for g in range(7, 13):
        line = blowup_curve(2 * g - 2, CurveCenter(1, 0))
        conic = blowup_curve(2 * g - 2, CurveCenter(2, 0))
        point = blowup_point(2 * g - 2)
        assert tuple(line.values) == (2 * g - 6, 3, -2, 1)
        assert tuple(conic.values) == (2 * g - 8, 4, -2, 0)
        assert tuple(point.values) == (2 * g - 10, 4, -2, 1)
        base_curve = blowup_curve(2 * g - 2, CurveCenter(g - 2, 0))
        assert base_curve.values[3] == 4 - g
        assert pullback_form_curve(2 * g - 2, CurveCenter(g - 2, 0)).values[2] == 2 - g
    report("2 blowup goldens")


def test_criterion_3_link_enumeration():
    line = enumerate_links("line", range(7, 41))
    assert [(c.g, c.ctype, c.fbar, c.status) for c in line] == [
        (7, "D1", (1, 1), "confirmed"),
        (8, "C1", (1, 1), "confirmed"),
        (9, "B1", (3, 4), "confirmed"),
        (10, "B1", (2, 3), "confirmed"),
        (12, "B1", (1, 2), "confirmed"),
    ]

    conic = enumerate_links("conic", range(7, 41))
    assert sum(c.confirmed for c in conic) == 5
    spurious = [(c.g, c.ctype, c.fbar) for c in conic if not c.confirmed]
    assert spurious == [(7, "B1", (3, 2)), (8, "B2", (1, 1)), (11, "B1", (3, 4))]
    assert all(c.status.startswith("excluded:") for c in conic if not c.confirmed)

    point = enumerate_links("point", range(7, 41))
    assert sum(c.confirmed for c in point) == 5
    assert [(c.g, c.ctype, c.fbar) for c in point if not c.confirmed] == [
        (7, "B1", (2, 1)),
        (7, "B2", (2, 1)),
        (8, "B1", (5, 3)),
        (9, "B1", (1, 1)),
        (11, "C1", (1, 1)),
        (13, "B1", (2, 3)),
    ]
    # divisor-class coefficients verbatim
    assert [(c.g, c.fbar) for c in line if c.ctype == "B1"] == [
        (9, (3, 4)), (10, (2, 3)), (12, (1, 2)),
    ]
    assert [(c.g, c.fbar) for c in point if c.confirmed and c.ctype.startswith("B")] == [
        (7, (5, 2)), (8, (3, 2)), (9, (1, 1)), (12, (3, 4)),
    ]
    report("3 link enumeration")


def test_criterion_4_defects():
    for center in ("line", "conic", "point"):
        for cand in enumerate_links(center, range(7, 13)):
            if cand.confirmed:
                assert cand.defect > 0
    for cand in enumerate_links("line", range(7, 13)):
        if cand.ctype == "B1":
            assert cand.ebar_cube == -cand.target.iota_y
    report("4 defects")


def test_criterion_5_euler_numbers():
    cat = catalog.load()
    chi = {e.id: e.chi_top for e in cat.entries}
    values = {
        7: euler_propagate(chi["quadric"], CurveCenter(10, 7), CurveCenter(2, 0)),
        8: euler_propagate(chi["v3"], CurveCenter(4, 0), PointCenter()),
        9: euler_propagate(chi["p3"], CurveCenter(7, 3), CurveCenter(1, 0)),
        10: euler_propagate(chi["quadric"], CurveCenter(7, 2), CurveCenter(1, 0)),
        12: euler_propagate(chi["v5"], CurveCenter(5, 0), CurveCenter(1, 0)),
    }
    expected = {7: -10, 8: -6, 9: -2, 10: 0, 12: 4}
    assert values == expected
    for g, chi_val in expected.items():
        assert chi[f"fano-g{g}"] == chi_val
    report("5 euler numbers")


def test_criterion_6_rho2_enumeration():
    sols = rho2_primitive_enumerate()
    assert len(sols) == 9
    assert sorted(s.antik_cube for s in sols) == [6, 12, 14, 24, 30, 48, 54, 56, 62]
    rows = {s.antik_cube: (frozenset((s.ray1, s.ray2)), s.d, s.d_prime, s.g) for s in sols}
    assert rows[6] == (frozenset({"C1", "D1"}), 8, 2, 4)
    assert rows[12] == (frozenset({"C1"}), 6, 6, 7)
    assert rows[14] == (frozenset({"C1", "B3/B4"}), 6, None, 8)
    assert rows[24] == (frozenset({"C1", "D2"}), 4, 8, 13)
    assert rows[30] == (frozenset({"C1", "C2"}), 3, 0, 16)
    assert rows[48] == (frozenset({"C2"}), 0, 0, 25)
    assert rows[54] == (frozenset({"C2", "D3"}), 0, 9, 28)
    assert rows[56] == (frozenset({"C2", "B2"}), 0, None, 29)
    assert rows[62] == (frozenset({"C2", "B5"}), 0, None, 32)
    cat = catalog.load()
    prim = cat.list(rho=2, flag="Primitive")
    assert sorted(e.antik_cube for e in prim) == sorted(s.antik_cube for s in sols)
    report("6 rho2 enumeration")


def test_criterion_7_scroll_and_wps_goldens():
    trig8 = {c.scroll.splitting: c for c in trigonal_candidates(8)}
    assert not trig8[(2, 2, 1, 1)].excluded
    assert trig8[(3, 1, 1, 1)].excluded and trig8[(3, 1, 1, 1)].witness == -1
    hyp = {
        4: [(1, 1, 1)],
        5: [(2, 1, 1)],
        7: [(2, 2, 2)],
    }
    for g, expected in hyp.items():
        realized = catalog.realized_scrolls("hyperelliptic", g)
        assert sorted(realized) == expected
        assert set(realized) <= {c.scroll.splitting for c in hyperelliptic_candidates(g)}
    trig = {6: [(1, 1, 1, 1)], 7: [(2, 1, 1, 1)], 8: [(2, 2, 1, 1)], 10: [(2, 2, 2, 2)]}
    for g, expected in trig.items():
        cands = {c.scroll.splitting: c for c in trigonal_candidates(g)}
        for sp in expected:
            assert not cands[sp].excluded
    rows = {(r["genus"], tuple(r["splitting"])) for r in catalog.load().scroll_models["trigonal"]}
    assert rows == {(g, sp) for g, sps in trig.items() for sp in sps}
    models = [
        ((1, 1, 1, 2, 3), (6,), 2, 8),
        ((1, 1, 1, 1, 2), (4,), 2, 16),
        ((1, 1, 1, 1, 3), (6,), 1, 2),
        ((1, 1, 1, 1, 1, 2), (2, 4), 1, 4),
    ]
    for weights, degrees, iota, antik in models:
        inv = ci_fano_invariants(CompleteIntersectionSpec(WeightSystem(weights), degrees))
        assert (inv.index, inv.antik_power) == (iota, antik)
    report("7 scroll and wps goldens")


def test_criterion_8_catalog_verification():
    cat = catalog.load()
    failures = [r for r in catalog.verify_all() if not r.passed]
    assert failures == []
    out = io.StringIO()
    assert main(["catalog", "verify", "--all"], out=out) == 0
    h3_zero = [e for e in cat.entries if e.rho == 1 and e.h12 == 0]
    assert len(h3_zero) == 4
    assert all(e.antik_cube <= 72 for e in cat.entries if e.rho == 1)
    assert max(e.antik_cube for e in cat.entries) == 64
    report("8 catalog verification")


def test_criterion_9_determinism():
    commands = [
        ["link", "--center", c, "--genus-range", "7..40", "--show-excluded", "--json"]
        for c in ("line", "conic", "point")
    ] + [["rho2", "enumerate-primitive", "--json"], ["catalog", "list", "--json"]]
    first = []
    for argv in commands:
        out = io.StringIO()
        assert main(argv, out=out) == 0
        first.append(out.getvalue())
    second = []
    for argv in commands:
        out = io.StringIO()
        assert main(argv, out=out) == 0
        second.append(out.getvalue())
    assert first == second
    report("9 determinism")
