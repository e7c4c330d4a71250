"""Rebuild each birational link from the far side: blow up the center curve
Z on the target Y, express the form in (M, F), and change basis back to
(-K, Ebar).  This gives an oracle for Ebar^3 that is independent of the
enumeration's own solve."""

import pytest

from fano3 import catalog
from fano3.exactcore import Basis, change_basis, cls2, eval_form, form2
from fano3.sarkisov import enumerate_links, midpoint_form

CATALOG = catalog.load()


def mf_blowup_form(target_id: str, deg_z: int, genus_z: int):
    """(Mbar, Fbar) form of the blowup of a curve on Y: Mbar^3 = d(Y),
    Mbar^2.Fbar = 0, Mbar.Fbar^2 = -deg Z, Fbar^3 = 2 - 2g(Z) + K_Y.Z."""
    entry = CATALOG.by_id(target_id)
    iota = entry.index
    d = entry.antik_cube // iota**3
    f3 = 2 - 2 * genus_z - iota * deg_z
    return form2(Basis.MF, d, 0, -deg_z, f3)


def test_table_of_central_curves():
    # the three inverse double projections: Fbar^3 = -32, -23, -8
    rows = [
        ("p3", 7, 3, -32, 4),
        ("quadric", 7, 2, -23, 3),
        ("v5", 5, 0, -8, 2),
    ]
    for target, deg_z, genus_z, f3, iota in rows:
        form = mf_blowup_form(target, deg_z, genus_z)
        assert form.values[3] == f3
        ke = change_basis(
            form,
            [cls2(Basis.MF, iota, -1), cls2(Basis.MF, iota - 1, -1)],
            Basis.KE,
        )
        g = 12 - genus_z
        assert tuple(ke.values) == (2 * g - 6, 3, -2, -iota)


def test_genus7_inverse_construction_values():
    # quadric blown along a curve of degree 10 and genus 7
    form = mf_blowup_form("quadric", 10, 7)
    assert tuple(form.values) == (2, 0, -10, -42)
    k = cls2(Basis.MF, 3, -1)  # -K = 3M - F
    m = cls2(Basis.MF, 1, 0)
    f = cls2(Basis.MF, 0, 1)
    assert eval_form(form, k, k, k) == 6
    assert eval_form(form, k, k, m) == 8
    assert eval_form(form, k, k, f) == 18


def test_genus8_inverse_construction_values():
    # cubic blown along a rational normal quartic; Ebar = 3M - 2F
    form = mf_blowup_form("v3", 4, 0)
    assert tuple(form.values) == (3, 0, -4, -6)
    k = cls2(Basis.MF, 2, -1)
    e = cls2(Basis.MF, 3, -2)
    assert eval_form(form, k, k, k) == 6
    assert eval_form(form, e, e, e) == -15


@pytest.mark.parametrize("center", ["line", "conic", "point"])
def test_confirmed_b1_candidates_match_far_side_blowup(center):
    cands = [
        c
        for c in enumerate_links(center, range(7, 13))
        if c.confirmed and c.ctype == "B1"
    ]
    assert cands
    for c in cands:
        iota = c.target.iota_y
        if iota == 1:
            continue  # iota = 1 targets have no fundamental divisor M to blow up in
        (target,) = [e for e in CATALOG.list(rho=1) if (e.index, e.antik_cube) == c.target.fano()]
        form = mf_blowup_form(target.id, c.target.deg_z, c.target.genus_z)
        a_m = c.mbar[0]
        kbar = cls2(Basis.MF, iota, -1)
        ebar = cls2(Basis.MF, c.fbar[0], -a_m)  # Ebar = (a_m*iota - 1) M - a_m F
        ke = change_basis(form, [kbar, ebar], Basis.KE)
        assert ke.values == (*midpoint_form(center, c.g).values[:3], c.ebar_cube)
