"""The record types are NamedTuples.  The seven that validate their input do
it in __new__: bad input raises a plain ValueError, and the stored values
are normalized as documented."""

from fractions import Fraction

import pytest

from fano3.blowup import CurveCenter
from fano3.exactcore import Basis, DivisorClass, TrilinearForm
from fano3.riemannroch import FanoNumerics
from fano3.sarkisov import TargetInvariants
from fano3.scrolls import ScrollData
from fano3.wps import CompleteIntersectionSpec, WeightSystem


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: CurveCenter(0, 0), r"centers on Fano varieties have \(-K\).Z >= 1"),
        (lambda: CurveCenter(1, -1), "genus must be >= 0"),
        (lambda: CurveCenter(1.5, 0), "deg_antik must be an integer, got 1.5"),
        (lambda: CurveCenter(float("inf"), 0), "deg_antik must be an integer, got inf"),
        (lambda: DivisorClass(Basis.KE, [1, 2, 3]), "a class has 2 coordinates, got 3"),
        (lambda: TrilinearForm(Basis.KE, [1, 2, 3]), "a form stores 4 values, got 3"),
        (lambda: FanoNumerics(3, 2, Fraction(7, 3)), "degree H\\^n must be an integer"),
        (lambda: FanoNumerics(3, 5, 1), "need 1 <= iota <= n\\+1"),
        (lambda: FanoNumerics(3, 2, 0), "degree must be positive"),
        (lambda: FanoNumerics(3, 4, 2), "iota = n\\+1 forces H\\^n = 1"),
        (lambda: FanoNumerics(3, 3, 1), "iota = n forces H\\^n = 2"),
        (lambda: FanoNumerics(3, 1, 7), "coindex 3 needs even integral degree"),
        (lambda: FanoNumerics(3, 1.5, 22), "index must be an integer, got 1.5"),
        (lambda: ScrollData((3,)), "scrolls here have rank >= 2"),
        (lambda: ScrollData((2, -1)), "splitting degrees must be >= 0"),
        (lambda: ScrollData((1.5, 2)), "splitting degree must be an integer, got 1.5"),
        (lambda: WeightSystem((1,)), "need at least two weights"),
        (lambda: WeightSystem((1, 0, 2)), "weights must be positive integers"),
        (lambda: WeightSystem((1.5, 1, 1)), "weight must be an integer, got 1.5"),
        (lambda: WeightSystem((None, 1)), "weight must be an integer, got None"),
        (lambda: CompleteIntersectionSpec(WeightSystem((1, 1, 1, 1, 1)), [0]), "degrees must be positive"),
        (lambda: CompleteIntersectionSpec(WeightSystem((1, 1, 1)), [2, 2]), "codimension must be < dim"),
        (lambda: CompleteIntersectionSpec(WeightSystem((1, 1, 1, 1, 1)), [2.7]), "degree must be an integer, got 2.7"),
    ],
)
def test_validating_records_raise_a_plain_value_error(make, message):
    with pytest.raises(ValueError, match=message) as info:
        make()
    assert type(info.value) is ValueError


def test_validating_records_normalize_their_fields():
    # list-built DivisorClass and TrilinearForm values are checked in
    # test_exactcore.py::test_list_built_values_equal_their_tuple_twins
    for built, twin in [
        (WeightSystem([1, 1, 2]), WeightSystem((1, 1, 2))),
        (CompleteIntersectionSpec(WeightSystem((1, 1, 1, 1, 2)), [4]),
         CompleteIntersectionSpec(WeightSystem((1, 1, 1, 1, 2)), (4,))),
    ]:
        assert built == twin and hash(built) == hash(twin)
        assert all(type(v) is not list for v in built)
    assert ScrollData((1, 3, 2)).splitting == (3, 2, 1)
    degree = FanoNumerics(3, 1, Fraction(22)).degree
    assert (type(degree), degree) == (int, 22)
    assert FanoNumerics.from_genus(3, 12) == FanoNumerics(3, 1, 22)
    assert CurveCenter(2, 0) == (2, 0)
    # an integral value of another type is stored as the int
    for built, twin in [
        (WeightSystem((2.0, Fraction(1), 1)).weights, (2, 1, 1)),
        (CompleteIntersectionSpec(WeightSystem((1, 1, 1, 1, 1)), [2.0]).degrees, (2,)),
        (CurveCenter(Fraction(2), 0.0), (2, 0)),
        (ScrollData((1.0, 3)).splitting, (3, 1)),
        (FanoNumerics(3.0, Fraction(1), 22.0), (3, 1, 22)),
    ]:
        assert built == twin and [type(v) for v in built] == [int] * len(twin)


def test_plain_records_are_tuples():
    # records compare with plain tuples of the same values, and _replace
    # builds a changed copy
    target = TargetInvariants("conic-bundle", discriminant_degree=5)
    assert len(target) == len(TargetInvariants._fields)
    assert target == ("conic-bundle", None, 5, *[None] * 8)
    assert target._replace(discriminant_degree=6).discriminant_degree == 6
    assert target._asdict()["kind"] == "conic-bundle"
