from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano3.wps import (
    CompleteIntersectionSpec,
    WeightSystem,
    ci_fano_invariants,
    double_cover_antik_power,
    is_well_formed,
    normalize,
    pic_index,
)


@pytest.mark.parametrize(
    "weights,expected",
    [
        ((1, 1, 1, 2, 3), True),
        ((2, 2, 3), False),
        ((1, 1), True),
        # P(1,k) ~ P1: the complementary singleton {k} is not coprime, so the
        # system is not well-formed (its normal form is (1,1))
        ((1, 7), False),
        ((1, 5, 7), True),
    ],
)
def test_is_well_formed(weights, expected):
    assert is_well_formed(WeightSystem(weights)) is expected


def test_rank_one_normalization():
    assert normalize(WeightSystem((1, 7))).weights == (1, 1)
    assert pic_index(normalize(WeightSystem((1, 7)))) == 1


def test_normalize_instances():
    assert normalize(WeightSystem((2, 2, 2, 1))).weights == (1, 1, 1, 1)
    w = normalize(WeightSystem((4, 6, 2, 1)))
    assert is_well_formed(w)
    assert normalize(w).weights == w.weights  # idempotent on the result
    with pytest.raises(ValueError, match="well-formed"):
        pic_index(WeightSystem((2, 2, 1)))


@given(st.lists(st.integers(1, 30), min_size=2, max_size=6))
def test_normalize_idempotent(weights):
    once = normalize(WeightSystem(tuple(weights)))
    assert is_well_formed(once)
    assert normalize(once).weights == once.weights


@pytest.mark.parametrize(
    "weights,expected",
    [((1, 1, 1, 2, 3), 6), ((1, 1, 1, 1), 1), ((1, 1, 2, 5), 10)],
)
def test_pic_index(weights, expected):
    assert pic_index(WeightSystem(weights)) == expected


FOUR_MODELS = [
    ((1, 1, 1, 2, 3), (6,), 2, 8),
    ((1, 1, 1, 1, 2), (4,), 2, 16),
    ((1, 1, 1, 1, 3), (6,), 1, 2),
    ((1, 1, 1, 1, 1, 2), (2, 4), 1, 4),
]


@pytest.mark.parametrize("weights,degrees,iota,antik", FOUR_MODELS)
def test_weighted_models(weights, degrees, iota, antik):
    inv = ci_fano_invariants(CompleteIntersectionSpec(WeightSystem(weights), degrees))
    assert inv.index == iota
    assert inv.antik_power == antik
    assert inv.antik_power.denominator == 1
    if iota == 1:
        assert inv.genus == antik // 2 + 1


@pytest.mark.parametrize("weights,degrees,iota,antik", FOUR_MODELS)
def test_normalize_fixes_models_and_preserves_invariants(weights, degrees, iota, antik):
    w = WeightSystem(weights)
    assert normalize(w).weights == w.weights
    inv = ci_fano_invariants(CompleteIntersectionSpec(normalize(w), degrees))
    assert (inv.index, inv.antik_power) == (iota, antik)


def test_fundamental_degree_of_weighted_models():
    # iota = 2 models have half-anticanonical degree d = (-K)^3 / 8
    inv1 = ci_fano_invariants(
        CompleteIntersectionSpec(WeightSystem((1, 1, 1, 2, 3)), (6,))
    )
    assert inv1.antik_power / inv1.index**3 == 1
    inv2 = ci_fano_invariants(
        CompleteIntersectionSpec(WeightSystem((1, 1, 1, 1, 2)), (4,))
    )
    assert inv2.antik_power / inv2.index**3 == 2


def test_ordinary_complete_intersection_degenerates():
    cubic = ci_fano_invariants(
        CompleteIntersectionSpec(WeightSystem((1, 1, 1, 1, 1)), (3,))
    )
    assert cubic.index == 5 - 3
    assert cubic.antik_power == 24


def test_not_fano_guard():
    with pytest.raises(ValueError, match=r"sum\(degrees\) = 5 >= sum\(weights\) = 5"):
        ci_fano_invariants(CompleteIntersectionSpec(WeightSystem((1, 1, 1, 1, 1)), (5,)))
    with pytest.raises(ValueError, match="normalize the weight system first"):
        ci_fano_invariants(CompleteIntersectionSpec(WeightSystem((2, 2, 2, 2, 1)), (2,)))


def test_non_integral_degree_is_flagged_not_rejected():
    inv = ci_fano_invariants(CompleteIntersectionSpec(WeightSystem((1, 1, 1, 1, 5)), (6,)))
    assert inv.antik_power.denominator != 1
    assert any("integer" in w for w in inv.warnings)


def test_low_ambient_dimension_warns():
    inv = ci_fano_invariants(CompleteIntersectionSpec(WeightSystem((1, 1, 1, 2)), (2,)))
    assert any("Lefschetz" in w for w in inv.warnings)


def test_normalization_is_reduction_order_independent():
    # P(2,2,2,4,6) reduces to P(1,1,1,2,3) no matter which weight is spared
    assert not is_well_formed(WeightSystem((2, 2, 2, 4, 6)))
    assert normalize(WeightSystem((2, 2, 2, 4, 6))).weights == (1, 1, 1, 2, 3)
    assert normalize(WeightSystem((1, 2, 2, 4, 6))).weights == (1, 1, 1, 2, 3)


def test_normalized_models_share_invariants():
    # the degree-6 model computed over P(1,1,1,2,3) in either weight order
    for ws in ((1, 1, 1, 2, 3), (3, 2, 1, 1, 1), (2, 3, 1, 1, 1)):
        inv = ci_fano_invariants(CompleteIntersectionSpec(WeightSystem(ws), (6,)))
        assert (inv.index, inv.antik_power) == (2, 8)


def test_hurwitz_double_cover_checks():
    # genus-2 model: double cover of P3 branched in a sextic
    assert double_cover_antik_power(4, 3, 1) == 2
    # genus-3 model: double cover of the quadric branched in a degree-8 surface
    assert double_cover_antik_power(3, 2, 2) == 4
    # V1: double cover of P(1,1,1,2) branched in weighted degree 6 (A^3 = 1/2)
    assert double_cover_antik_power(5, 3, Fraction(1, 2)) == 8
    inv2 = ci_fano_invariants(CompleteIntersectionSpec(WeightSystem((1, 1, 1, 1, 3)), (6,)))
    assert inv2.antik_power == double_cover_antik_power(4, 3, 1)
    inv3 = ci_fano_invariants(
        CompleteIntersectionSpec(WeightSystem((1, 1, 1, 1, 1, 2)), (2, 4))
    )
    assert inv3.antik_power == double_cover_antik_power(3, 2, 2)
