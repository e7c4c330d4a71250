import io
import json
import math
from fractions import Fraction
from importlib import resources
from types import MappingProxyType

import pytest

from fano3 import catalog
from fano3.blowup import CurveCenter, blowup_curve
from fano3.cli import main


@pytest.fixture(scope="module")
def cat():
    return catalog.load()


def test_verify_all_passes():
    failures = [r for r in catalog.verify_all() if not r.passed]
    assert failures == []


def test_h3_zero_query_returns_exactly_four(cat):
    hits = [e.id for e in cat.entries if e.rho == 1 and e.h12 == 0]
    assert sorted(hits) == ["fano-g12", "p3", "quadric", "v5"]


def test_del_pezzo_rows(cat):
    rows = cat.list(index=2, rho=1)
    assert len(rows) == 5
    assert sorted(e.antik_cube for e in rows) == [8, 16, 24, 32, 40]
    # all eight index-2 entries, matching the table of del Pezzo threefolds
    all_dp = cat.list(index=2)
    degrees = sorted(e.antik_cube // 8 for e in all_dp)
    assert degrees == [1, 2, 3, 4, 5, 6, 6, 7]


def test_main_series_rows(cat):
    rows = cat.list(index=1, rho=1)
    assert len(rows) == 12
    assert sorted(e.genus for e in rows) == [2, 3, 3, 4, 5, 6, 6, 7, 8, 9, 10, 12]
    assert sorted({e.family for e in rows}) == [
        "g10", "g12", "g2", "g3", "g4", "g5", "g6", "g7", "g8", "g9",
    ]
    h12 = {g: set() for g in range(2, 13)}
    for e in rows:
        h12[e.genus].add(e.h12)
    assert h12[2] == {52} and h12[3] == {30} and h12[12] == {0}


def test_rho1_family_count(cat):
    families = {e.family for e in cat.entries if e.rho == 1}
    assert len(families) == cat.counts["rho1_families"] == 17
    assert cat.counts["rho_gt1_families"] == 88


def test_degree_bounds(cat):
    for e in cat.entries:
        if e.rho == 1:
            assert e.antik_cube <= 72
    assert max(e.antik_cube for e in cat.entries) == 64


# (-K)^3 <= 72 on rho = 1 at its boundary: no catalog entry comes near it, as
# the largest (-K)^3 is 64
DEGREE_BOUNDARIES = {"cube-72-passes": (72, True), "cube-73-fails": (73, False)}


@pytest.mark.parametrize("cube,passed", DEGREE_BOUNDARIES.values(), ids=DEGREE_BOUNDARIES)
def test_degree_bound_rho1_at_its_boundary(cat, cube, passed):
    results = {r.check: r for r in catalog.verify(cat.by_id("p3")._replace(antik_cube=cube))}
    assert results["degree-bound-rho1"].passed is passed


@pytest.mark.parametrize("genus", [12, 19])
def test_genus_filter_returns_exactly_that_genus(cat, genus):
    # genus 12 has three entries and genus 19 none; the library and the CLI agree
    expected = [e.id for e in cat.entries if e.genus == genus]
    assert len(expected) == {12: 3, 19: 0}[genus]
    assert [e.id for e in cat.list(genus=genus)] == expected
    out = io.StringIO()
    assert main(["catalog", "list", "--genus", str(genus), "--json"], out=out) == 0
    assert [row["id"] for row in json.loads(out.getvalue())] == expected


def test_rho2_primitive_count(cat):
    prim = cat.list(rho=2, flag="Primitive")
    assert len(prim) == 9
    assert sorted(e.antik_cube for e in prim) == [6, 12, 14, 24, 30, 48, 54, 56, 62]


def test_rho2_entry_counts(cat):
    imp = cat.list(rho=2, flag="Imprimitive")
    assert len(imp) == 27  # 6 double-B1 rows + 5 elliptic blowups + 16 others
    assert len(cat.list(rho=2)) == 36


def test_empty_filter_returns_everything(cat):
    assert cat.list() == list(cat.entries)
    assert len(cat.entries) == 59


def test_facts_for(cat):
    cubic = {f.predicate for f in cat.facts_for("v3")}
    assert "Irrational" in cubic
    g7 = {f.predicate: f.value for f in cat.facts_for("fano-g7")}
    assert g7["Rational"] is True
    assert g7["EulerNumber"] == -10
    # every fact subject is an entry, so an unknown subject is an error
    assert {f.subject for f in cat.facts} <= {e.id for e in cat.entries}
    with pytest.raises(ValueError, match="unknown catalog id 'unknown-subject'"):
        cat.facts_for("unknown-subject")


def test_chi_identity_everywhere(cat):
    for e in cat.entries:
        assert e.chi_top == 2 + 2 * e.rho - 2 * e.h12


def test_quartic_deformation_dimension_oracle(cat):
    # independent count: quartic monomials in 5 variables minus dim PGL_5
    # minus the scaling of the equation
    quartic_monomials = math.comb(4 + 4, 4)
    pgl5 = 5 * 5 - 1
    expected = quartic_monomials - pgl5 - 1
    assert expected == 45
    entry = cat.by_id("fano-g3-quartic")
    assert entry.moduli_dim == expected
    h1 = entry.h0_tangent - ((entry.antik_cube // 2 + 1) + entry.rho - entry.h12 - 19)
    assert h1 == expected


def test_blowdown_consistency_of_imprimitive_tables(cat):
    seen = 0
    for e in cat.entries:
        if not e.construction or "blowups" not in e.construction:
            continue
        for bl in e.construction["blowups"]:
            base = cat.by_id(bl["of"])
            form = blowup_curve(base.antik_cube, CurveCenter(base.index * bl["deg"], bl["genus"]))
            assert form.values[0] == e.antik_cube
            seen += 1
    assert seen >= 27


def test_blowdown_inconsistency_is_reported_on_integers(cat):
    # (-K)^3 of the blowup of V3 along an elliptic cubic is 12; a table entry
    # shifted to 14 fails the check, which compares integers
    entry = cat.by_id("rho2-impb-v3")._replace(antik_cube=14)
    results = {r.check: r for r in catalog.verify(entry)}
    failed = results["blowdown-consistency-0"]
    assert not failed.passed
    assert (type(failed.lhs), type(failed.rhs)) == (int, int)
    assert (failed.lhs, failed.rhs) == (12, 14)
    # chi(iota) is a value of the Hilbert polynomial, so it stays rational
    assert type(results["h0-anticanonical"].lhs) is Fraction


@pytest.mark.parametrize(
    "entry_id,field,value,failed",
    [
        ("fano-g7", "index", 0, {"index-range", "genus-degree", "h0-anticanonical"}),
        ("fano-g7", "index", 5, {"index-range", "genus-degree", "h0-anticanonical"}),
        ("fano-g7", "antik_cube", 13, {"genus-degree", "h0-anticanonical"}),
        ("v3", "antik_cube", 41, {"genus-degree", "h0-anticanonical"}),
    ],
    ids=["index-0-failed0", "index-5-failed1", "antik_cube-13-failed2", "v3-antik_cube-41-failed3"],
)
def test_out_of_range_inputs_fail_as_data(cat, entry_id, field, value, failed):
    # an index outside 1..4, an odd index-1 (-K)^3 or an index-2 (-K)^3 that
    # 8 does not divide has no Hilbert polynomial; verify returns the same
    # checks and fails those with no lhs
    entry = cat.by_id(entry_id)
    results = catalog.verify(entry._replace(**{field: value}))
    assert [r.check for r in results] == [r.check for r in catalog.verify(entry)]
    assert {r.check for r in results if not r.passed} == failed
    assert {r.check: r for r in results}["h0-anticanonical"].lhs is None


def _with_first_blowup(entry, **changes):
    blowups = entry.construction["blowups"]
    construction = {**entry.construction, "blowups": [{**blowups[0], **changes}, *blowups[1:]]}
    return entry._replace(construction=construction)


def _single_field_mutants(cat):
    """Each entry with one numeric field, one hyperplane-section field or one
    field of its first blowup moved by +-1 or +-2, or that blowup's target
    replaced by an unknown id."""
    fields = ("index", "antik_cube", "genus", "h12", "chi_top", "kc2", "h0_tangent", "moduli_dim", "rho")
    mutants = []
    for entry in cat.entries:
        for field in fields:
            value = getattr(entry, field)
            if value is not None:
                mutants += [entry._replace(**{field: value + d}) for d in (-2, -1, 1, 2)]
        hs = entry.hyperplane_section
        if hs is not None:
            for key in ("k2", "rho"):
                for d in (-2, -1, 1, 2):
                    mutants.append(entry._replace(hyperplane_section={**hs, key: hs[key] + d}))
        if entry.construction and "blowups" in entry.construction:
            bl = entry.construction["blowups"][0]
            mutants.append(_with_first_blowup(entry, of="nope"))
            for d in (-2, -1, 1, 2):
                mutants.append(_with_first_blowup(entry, deg=bl["deg"] + d))
                mutants.append(_with_first_blowup(entry, genus=bl["genus"] + d))
    return mutants


def test_verify_returns_on_every_single_field_mutant(cat):
    mutants = _single_field_mutants(cat)
    assert len(mutants) > 1800
    for mutant in mutants:
        results = catalog.verify(mutant)
        assert results and all(r.entry_id == mutant.id for r in results)
    # an unknown blowdown target fails its own check, with no lhs
    failed = [r for r in catalog.verify(_with_first_blowup(cat.by_id("rho2-impb-v3"), of="nope")) if not r.passed]
    assert [(r.check, r.lhs) for r in failed] == [("blowdown-consistency-0", None)]


def _check_name(result):
    # the blowdown checks of one entry are numbered; they count as one check
    return "blowdown-consistency" if result.check.startswith("blowdown-consistency-") else result.check


def test_checks_that_no_single_field_mutant_fails_alone(cat):
    # every other check has a mutant that fails it and no other check; these
    # five fail only together with another check, or never
    names, alone = set(), set()
    for mutant in _single_field_mutants(cat):
        results = catalog.verify(mutant)
        names |= {_check_name(r) for r in results}
        failed = {_check_name(r) for r in results if not r.passed}
        if len(failed) == 1:
            alone |= failed
    assert names - alone == {
        "degree-bound-rho1",
        "degree-top-index",
        "dp-degree-range",
        "h0-anticanonical",
        "index-range",
    }


def test_single_field_mutants_that_pass_every_check(cat):
    # what verify cannot see yet: an index no check bounds tightly enough, and
    # h0_tangent on the three entries without moduli_dim, which it is checked against
    original = {e.id: e for e in cat.entries}
    unseen = set()
    for mutant in _single_field_mutants(cat):
        if all(r.passed for r in catalog.verify(mutant)):
            old = original[mutant.id]
            (field,) = [f for f in mutant._fields if getattr(mutant, f) != getattr(old, f)]
            unseen.add((mutant.id, field, getattr(mutant, field)))
    index_ids = ["p3", "fano-g5", "fano-g9", "rho2-prim-4", "rho2-impa-2", "rho2-impb-v2",
                 "rho2-impb-v4", "rho2-impb-5", "rho2-impb-10", "rho2-impb-12", "rho2-impb-13"]
    assert unseen == {
        *((i, "index", 2) for i in index_ids),
        ("rho2-prim-7", "index", 3),
        ("rho2-impb-16", "index", 3),
        *(("p3", "h0_tangent", v) for v in (16, 17)),
        *(("quadric", "h0_tangent", v) for v in (11, 12)),
        *(("v5", "h0_tangent", v) for v in (4, 5)),
    }


def test_imprimitive_h12_matches_blowup_bookkeeping(cat):
    # h12 of a curve blowup is h12 of the base plus the genus of the center
    for e in cat.entries:
        if not e.construction or "blowups" not in e.construction:
            continue
        for bl in e.construction["blowups"]:
            base = cat.by_id(bl["of"])
            assert e.h12 == base.h12 + bl["genus"]


def test_scroll_realizations_resolve(cat):
    for kind in ("hyperelliptic", "trigonal"):
        for row in cat.scroll_models[kind]:
            if row["entry"] is not None:
                entry = cat.by_id(row["entry"])
                assert entry.antik_cube == 2 * row["genus"] - 2


def test_mukai_table(cat):
    models = {m["genus"]: m for m in cat.mukai_models}
    assert set(models) == {6, 7, 8, 9, 10}
    assert models[7]["ambient_dim"] == 10
    assert models[10]["group"] == "G2"


def test_base_point_and_hyperelliptic_flags(cat):
    bs = [e.id for e in cat.entries if "BasePointModel" in e.flags]
    assert sorted(bs) == ["dp1-times-p1", "rho2-impb-v1"]
    hyp = [e.id for e in cat.entries if "HyperellipticModel" in e.flags]
    assert "v1" in hyp and "fano-g2" in hyp and "fano-g3-double-quadric" in hyp


def test_link_facts_shape():
    facts = catalog.link_facts()
    # the rho = 1 entries keyed by (index, (-K)^3); index 1 gives the genera
    genera = sorted(cube // 2 + 1 for iota, cube in facts.chi if iota == 1)
    assert genera == [2, 3, 4, 5, 6, 7, 8, 9, 10, 12]
    assert len(facts.chi) == 7 + 10  # P^3, Q, V1..V5 and one key per genus
    assert facts.chi[(1, 22)] == 4  # g = 12
    assert facts.chi[(4, 64)] == 4  # P^3
    assert facts.irrational == {(2, 24)}  # V3
    assert (1, 12) in facts.rational  # g = 7


def test_link_facts_is_built_once_and_read_only():
    # every filter_links call shares one store, so none of it may change
    facts = catalog.link_facts()
    assert catalog.link_facts() is facts
    with pytest.raises(TypeError):
        facts.chi[(1, 22)] = 0
    assert type(facts.rational) is frozenset and type(facts.irrational) is frozenset


def test_every_table_of_the_data_file_is_a_catalog_field():
    # no table ships that load() ignores, and every field has its table
    text = resources.files("fano3.data").joinpath("classification.json").read_text()
    assert set(json.loads(text)) == {*catalog.Catalog._fields, "schema_version"}


def test_everything_load_reaches_is_read_only(cat):
    # the cached catalog is shared by every caller, so nothing in it may change
    stack, mappings = [cat], 0
    while stack:
        obj = stack.pop()
        if isinstance(obj, MappingProxyType):
            mappings += 1
            for key in (next(iter(obj)), "tampered"):
                with pytest.raises(TypeError):
                    obj[key] = None
            stack.extend(obj.values())
        elif isinstance(obj, tuple):  # a plain tuple or a NamedTuple record
            stack.extend(obj)
        else:
            assert obj is None or type(obj) in (bool, int, str), obj
    assert mappings > 100
