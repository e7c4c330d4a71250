"""The benchmark's reference digests, checked in the test suite so that a
change to any enumeration shows without a benchmark run.  bench/workloads.py
is loaded read-only: no bytecode is written next to it."""

import importlib.util
import json
import pathlib
import sys

import pytest

from fano3 import catalog, sarkisov

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("center", workloads.CENTERS)
def test_link_cells_match_reference(center):
    genera = workloads.REF_GENERA
    cells = workloads.link_cells(sarkisov.enumerate_links(center, genera), genera)
    assert [cells[g] for g in genera] == REFERENCE["links"][center]
    assert REFERENCE["g_min"] == genera.start


def test_rho2_matches_reference():
    for bound in (8, *workloads.SWEEP_RHO2_BOUNDS):
        got = workloads.rho2_digest(sarkisov.rho2_primitive_enumerate(bound))
        assert got == REFERENCE["rho2"][str(bound)], bound


@pytest.mark.parametrize("kind", ["hyperelliptic", "trigonal"])
def test_case_lists_match_reference(kind):
    for g, want in REFERENCE[kind].items():
        assert workloads.case_list_digest(workloads.case_list(kind, int(g))) == want, g


def test_catalog_check_count_matches_reference():
    assert len(catalog.verify_all()) == REFERENCE["catalog_checks"]
