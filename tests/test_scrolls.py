import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano3 import catalog
from fano3.cli import SCROLL_MAX_GENUS
from fano3.exactcore import Basis, cls2
from fano3.scrolls import (
    HyperellipticCandidate,
    ScrollData,
    TrigonalCandidate,
    _splittings,
    hyperelliptic_candidates,
    mark_realized,
    scroll_canonical,
    scroll_h0,
    scroll_intersection,
    trigonal_candidates,
)


def mf(a, b):
    return cls2(Basis.MF, a, b)


@pytest.mark.parametrize(
    "splitting,expected",
    [((1, 1, 1), 6), ((0, 0), 2), ((2, 2, 1, 1), 10)],
)
def test_scroll_h0(splitting, expected):
    assert scroll_h0(ScrollData(splitting)) == expected


def test_trigonal_exclusion_witness():
    s = ScrollData((2, 2, 1, 1))
    classes = [mf(3, -4), mf(1, -3), mf(1, -1), mf(1, -1)]
    assert scroll_intersection(s, classes) == -1


def test_double_fiber_vanishes():
    s = ScrollData((3, 1, 1, 1))
    assert scroll_intersection(s, [mf(0, 1), mf(0, 1), mf(5, 7), mf(1, -2)]) == 0


def test_top_power_of_tautological_class():
    s = ScrollData((1, 1, 1, 1))
    assert scroll_intersection(s, [mf(1, 0)] * 4) == 4


def test_wrong_arity():
    with pytest.raises(ValueError, match="need exactly 3 classes, got 4"):
        scroll_intersection(ScrollData((1, 1, 1)), [mf(1, 0)] * 4)
    with pytest.raises(ValueError, match=r"classes must be in the \(M, F\) basis"):
        scroll_intersection(ScrollData((1, 1)), [mf(1, 0), cls2(Basis.KE, 1, 0)])


def _scroll_intersection_slices(s, classes):
    # the reference: M^m and the m terms M^(m-1).F; a monomial with F twice vanishes
    a = [d.coords[0] for d in classes]
    b = [d.coords[1] for d in classes]
    return math.prod(a) * s.degree + sum(b[j] * math.prod(a[:j] + a[j + 1:]) for j in range(len(a)))


def _assert_sweep_matches_slices(s, classes):
    value, expected = scroll_intersection(s, classes), _scroll_intersection_slices(s, classes)
    assert value == expected
    assert type(value) is type(expected)


def test_sweep_matches_slices_on_a_box():
    # every class pair and triple with coefficients in -2..2
    coeffs = range(-2, 3)
    for splitting in ((1, 0), (3, 2, 0)):
        s = ScrollData(splitting)
        for coords in itertools.product(itertools.product(coeffs, coeffs), repeat=s.rank):
            _assert_sweep_matches_slices(s, [mf(a, b) for a, b in coords])


# zero drawn often, as a zero coefficient switches a term off
_COEFF = st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5, max_denominator=6) | st.just(0)


@given(st.lists(st.integers(0, 6), min_size=2, max_size=8), st.data())
def test_sweep_matches_slices(splitting, data):
    s = ScrollData(splitting)
    pairs = data.draw(st.lists(st.tuples(_COEFF, _COEFF), min_size=s.rank, max_size=s.rank))
    _assert_sweep_matches_slices(s, [mf(a, b) for a, b in pairs])


def _splittings_recursive(total, parts):
    # the reference: choose the largest part, then split the rest below it
    def rec(budget, slots, cap):
        if slots == 1:
            if 1 <= budget <= cap:
                yield (budget,)
            return
        for first in range(min(cap, budget - (slots - 1)), 0, -1):
            for rest in rec(budget - first, slots - 1, first):
                yield (first, *rest)

    return list(rec(total, parts, total))


def test_splittings_match_recursive_reference():
    for parts in range(2, 6):
        for total in range(70):
            assert _splittings(total, parts) == _splittings_recursive(total, parts), (parts, total)


def test_splittings_pass_the_validating_constructor():
    # the case lists skip ScrollData's checks; it would neither change nor reject a row
    for parts in range(2, 6):
        for total in range(70):
            for row in _splittings(total, parts):
                assert ScrollData(row).splitting == row, row


def _hyperelliptic_oracle(g):
    # the case lists as built before: every row through the validating constructor
    branch = cls2(Basis.MF, Fraction(4), Fraction(2 * (3 - g)))
    return [HyperellipticCandidate(ScrollData(sp), branch) for sp in _splittings_recursive(g - 1, 3)]


def _trigonal_oracle(g):
    total = g - 2
    member = cls2(Basis.MF, 3, 2 - total)
    k0 = (2 * total - 4) // 3 + 1
    witness = Fraction(2 * total - 3 * k0 - 4)
    return [
        TrigonalCandidate(ScrollData(sp), member, *((witness, k0) if sp[0] >= k0 else ()))
        for sp in _splittings_recursive(total, 4)
    ]


def _row_types(cands):
    # field 1 is the branch or member class; a hyperelliptic row has no witness
    return [(type(c), type(c.scroll), *map(type, c[1].coords), type(getattr(c, "witness", None))) for c in cands]


def test_trusted_rows_match_the_validated_oracle():
    for g in range(2, SCROLL_MAX_GENUS + 1):
        got, want = hyperelliptic_candidates(g), _hyperelliptic_oracle(g)
        assert got == want, g
        assert _row_types(got) == _row_types(want), g
    # the whole trigonal range would add about a second: its top genus stands in for 61..99
    for g in (*range(5, 61), SCROLL_MAX_GENUS):
        got, want = trigonal_candidates(g), _trigonal_oracle(g)
        assert got == want, g
        assert [(c.witness, c.witness_k) for c in got] == [(c.witness, c.witness_k) for c in want], g
        assert _row_types(got) == _row_types(want), g


@pytest.mark.parametrize(
    "kind,make,rank,g_min",
    [("hyperelliptic", hyperelliptic_candidates, 3, 2), ("trigonal", trigonal_candidates, 4, 5)],
)
def test_mark_realized_matches_a_per_row_reference(kind, make, rank, g_min):
    for g in range(g_min, SCROLL_MAX_GENUS + 1):
        cands = make(g)
        before = list(cands)
        # the first row, the last row, and a splitting no list holds (its parts are 0)
        synthetic = {(0,) * rank: "absent"}
        if cands:
            synthetic.update({cands[0].scroll.splitting: "first", cands[-1].scroll.splitting: "last"})
        for m in (catalog.realized_scrolls(kind, g), synthetic):
            got = mark_realized(cands, m)
            want = [c._replace(realized_as=m[c.scroll.splitting]) if c.scroll.splitting in m else c for c in cands]
            assert got == want and got is not cands, (g, m)
            assert cands == before, (g, m)


@pytest.mark.parametrize(
    "splitting,expected",
    [((1, 1, 1), (-3, 1)), ((1, 1, 1, 1), (-4, 2)), ((2, 2, 2), (-3, 4))],
)
def test_scroll_canonical(splitting, expected):
    assert tuple(scroll_canonical(ScrollData(splitting)).coords) == expected


def test_hyperelliptic_case_lists():
    assert [c.scroll.splitting for c in hyperelliptic_candidates(4)] == [(1, 1, 1)]
    assert [c.scroll.splitting for c in hyperelliptic_candidates(5)] == [(2, 1, 1)]
    g7 = hyperelliptic_candidates(7)
    assert {c.scroll.splitting for c in g7} == {(2, 2, 2), (3, 2, 1), (4, 1, 1)}
    marked = mark_realized(g7, {(2, 2, 2): "dp2-times-p1"})
    by_split = {c.scroll.splitting: c.status for c in marked}
    assert by_split[(2, 2, 2)] == "realized"
    assert by_split[(3, 2, 1)] == by_split[(4, 1, 1)] == "numeric-only"


@given(st.integers(2, 30))
def test_hyperelliptic_branch_class(g):
    for cand in hyperelliptic_candidates(g):
        assert tuple(cand.branch_class.coords) == (4, 2 * (2 - (g - 1)))
        assert cand.scroll.degree == g - 1


def test_trigonal_case_lists():
    g8 = {c.scroll.splitting: c for c in trigonal_candidates(8)}
    assert not g8[(2, 2, 1, 1)].excluded
    assert g8[(3, 1, 1, 1)].excluded
    assert g8[(3, 1, 1, 1)].witness == -1

    g6 = trigonal_candidates(6)
    assert [c.scroll.splitting for c in g6] == [(1, 1, 1, 1)]
    assert not g6[0].excluded

    g10 = {c.scroll.splitting: c for c in trigonal_candidates(10)}
    assert not g10[(2, 2, 2, 2)].excluded
    assert g10[(5, 1, 1, 1)].excluded


@pytest.mark.parametrize("make", [hyperelliptic_candidates, trigonal_candidates])
def test_case_lists_take_an_integer_genus(make):
    with pytest.raises(ValueError, match="genus must be an integer, got 7.5") as info:
        make(7.5)
    assert type(info.value) is ValueError
    assert make(8.0) == make(8)


def test_trigonal_witness_matches_intersection_loop():
    # the closed-form first witness against the sign test run at every k
    for g in range(5, 31):
        for cand in trigonal_candidates(g):
            s = cand.scroll
            witness = witness_k = None
            for k in range(1, s.splitting[0] + 1):
                val = scroll_intersection(s, [cand.member_class, mf(1, -k), mf(1, -1), mf(1, -1)])
                if val < 0:
                    witness, witness_k = val, k
                    break
            assert (cand.excluded, cand.witness, cand.witness_k) == (
                witness is not None, witness, witness_k
            )
            assert witness is None or type(cand.witness) is Fraction


def test_trigonal_member_class_and_sums():
    for g in range(6, 14):
        for cand in trigonal_candidates(g):
            assert cand.scroll.degree == g - 2
            assert tuple(cand.member_class.coords) == (3, 2 - (g - 2))


def _majorizes(p, q):
    # p majorizes q: partial sums of the descending sequences dominate
    return all(sum(p[: i + 1]) >= sum(q[: i + 1]) for i in range(len(p)))


def test_trigonal_exclusion_monotone_under_majorization():
    for g in range(7, 15):  # sum d_i <= 12
        cands = {c.scroll.splitting: c.excluded for c in trigonal_candidates(g)}
        for p, q in itertools.product(cands, repeat=2):
            if _majorizes(p, q) and cands[q]:
                assert cands[p], f"{p} majorizes excluded {q} but is admissible"


def test_canonical_times_tautological_identity():
    for m in (3, 4):
        for total in range(m, 31):
            for cand in (
                hyperelliptic_candidates(total + 1)
                if m == 3
                else trigonal_candidates(total + 2)
            ):
                s = cand.scroll
                ks = scroll_canonical(s)
                val = scroll_intersection(s, [ks] + [mf(1, 0)] * (m - 1))
                assert val == -m * s.degree + (s.degree - 2)

