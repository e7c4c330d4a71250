import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano3.exactcore import Basis, cls2
from fano3.scrolls import (
    ScrollData,
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

