"""Machine-readable classification tables plus a cross-identity verifier.

The data ships as a single JSON file; every entry is checked against the
closed-form identities (genus/degree, chi_top, section counts, Noether on
hyperplane sections, degree bounds, blowdown consistency).  The same file
backs the fact store consumed by the link filter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Any, Optional


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    rho: int
    index: int
    antik_cube: int
    genus: Optional[int]
    h12: int
    chi_top: int
    kc2: int
    description: str
    flags: tuple[str, ...] = ()
    family: Optional[str] = None
    rays: Optional[tuple[str, str]] = None
    construction: Optional[dict] = None
    hyperplane_section: Optional[dict] = None
    h0_tangent: Optional[int] = None
    moduli_dim: Optional[int] = None


@dataclass(frozen=True)
class FactRecord:
    subject: str
    predicate: str
    value: Any


@dataclass(frozen=True)
class Catalog:
    entries: tuple[CatalogEntry, ...]
    facts: tuple[FactRecord, ...]
    geometric_exclusions: tuple[dict, ...]
    mukai_models: tuple[dict, ...]
    scroll_models: dict
    counts: dict

    def by_id(self, entry_id: str) -> CatalogEntry:
        for e in self.entries:
            if e.id == entry_id:
                return e
        raise ValueError(f"unknown catalog id {entry_id!r}")

    def list(
        self,
        *,
        rho: Optional[int] = None,
        index: Optional[int] = None,
        genus: Optional[int] = None,
        flag: Optional[str] = None,
    ) -> list[CatalogEntry]:
        out = []
        for e in self.entries:
            if rho is not None and e.rho != rho:
                continue
            if index is not None and e.index != index:
                continue
            if genus is not None and e.genus != genus:
                continue
            if flag is not None and flag not in e.flags:
                continue
            out.append(e)
        return out

    def facts_for(self, subject: str) -> list[FactRecord]:
        """The recorded facts of one entry plus its Euler number; every fact
        subject is a catalog id, so an unknown subject raises as by_id does."""
        euler = FactRecord(subject, "EulerNumber", self.by_id(subject).chi_top)
        return [f for f in self.facts if f.subject == subject] + [euler]


@lru_cache(maxsize=1)
def load() -> Catalog:
    raw = json.loads(resources.files("fano3.data").joinpath("classification.json").read_text())
    entries = tuple(
        CatalogEntry(**{**e, "flags": tuple(e.get("flags", ())), "rays": tuple(e.get("rays", ())) or None})
        for e in raw["entries"]
    )
    facts = tuple(FactRecord(f["subject"], f["predicate"], f["value"]) for f in raw["facts"])
    return Catalog(
        entries=entries,
        facts=facts,
        geometric_exclusions=tuple(raw["geometric_exclusions"]),
        mukai_models=tuple(raw["mukai_models"]),
        scroll_models=raw["scroll_models"],
        counts=raw["counts"],
    )


@dataclass(frozen=True)
class CheckResult:
    entry_id: str
    check: str
    passed: bool
    lhs: Any
    rhs: Any


def _fano_genus(entry: CatalogEntry) -> int:
    # (-K)^3 / 2 + 1, meaningful for any Fano threefold in these identities
    return entry.antik_cube // 2 + 1


def verify(entry: CatalogEntry) -> list[CheckResult]:
    """Run every applicable identity on one entry; failures are data.

    Never raises on out-of-range values: a check whose inputs are out of
    range still runs and fails with lhs None.
    """
    from fano3.blowup import CurveCenter, blowup_curve
    from fano3.riemannroch import FanoNumerics, hilbert_polynomial

    checks: list[CheckResult] = []

    def add(name: str, lhs: Any, rhs: Any) -> None:
        checks.append(CheckResult(entry.id, name, lhs == rhs, lhs, rhs))

    iota, cube = entry.index, entry.antik_cube
    index_ok = 1 <= iota <= 4
    add("index-range", index_ok, True)
    if iota == 1:
        add("genus-degree", cube, 2 * (entry.genus or 0) - 2)
    elif not index_ok:
        add("genus-degree", None, (0, True))
    else:
        d, rem = divmod(cube, iota**3)
        add("genus-degree", (rem, d >= 1), (0, True))
        if iota == 4:
            add("degree-top-index", d, 1)
        if iota == 3:
            add("degree-top-index", d, 2)
        if iota == 2:
            add("dp-degree-range", 1 <= d <= 8, True)
    add("chi-top", entry.chi_top, 2 + 2 * entry.rho - 2 * entry.h12)
    add("kc2", entry.kc2, 24)
    if entry.rho == 1:
        add("degree-bound-rho1", cube <= 72, True)
    # h^0(-K) = g + 2 via the Hilbert polynomial at t = iota, where
    # FanoNumerics(3, iota, cube / iota^3) exists; index_ok keeps iota = 0
    # out of the division
    try:
        fn = FanoNumerics(3, iota, Fraction(cube, iota**3)) if index_ok else None
    except ValueError:
        fn = None
    h0 = None if fn is None else Fraction(hilbert_polynomial(fn)(iota))  # rational in the JSON contract
    add("h0-anticanonical", h0, cube // 2 + 3)
    if entry.hyperplane_section is not None:
        hs = entry.hyperplane_section
        add("noether-hyperplane-section", hs["k2"] + hs["rho"], 10)
    if entry.h0_tangent is not None:
        h1 = entry.h0_tangent - (_fano_genus(entry) + entry.rho - entry.h12 - 19)
        add("tangent-deformation-nonneg", h1 >= 0, True)
        if entry.moduli_dim is not None:
            add("tangent-deformation", h1, entry.moduli_dim)
    if entry.construction and "blowups" in entry.construction:
        for i, bl in enumerate(entry.construction["blowups"]):
            target = next((e for e in load().entries if e.id == bl["of"]), None)
            if target is None or bl["deg"] < 1 or bl["genus"] < 0:
                add(f"blowdown-consistency-{i}", None, entry.antik_cube)
                continue
            center = CurveCenter(target.index * bl["deg"], bl["genus"])
            predicted = blowup_curve(target.antik_cube, center).values[0]
            add(f"blowdown-consistency-{i}", predicted, entry.antik_cube)
    return checks


def verify_all() -> list[CheckResult]:
    out: list[CheckResult] = []
    for entry in load().entries:
        out.extend(verify(entry))
    return out


@dataclass(frozen=True)
class LinkFactStore:
    """Catalog-backed inputs for sarkisov.filter_links, with the rho = 1
    entries keyed by (index, (-K)^3): how a link knows the Fanos at its ends."""

    chi: dict[tuple[int, int], int]
    rational: frozenset[tuple[int, int]]
    irrational: frozenset[tuple[int, int]]
    geometric_rules: dict[tuple[str, tuple[int, int]], str]  # (center, fbar) -> rule


def link_facts() -> LinkFactStore:
    """Fact store for the link filter, built from the shipped tables."""
    cat = load()
    key = {e.id: (e.index, e.antik_cube) for e in cat.entries if e.rho == 1}
    chi = {key[e.id]: e.chi_top for e in cat.entries if e.id in key}
    holds = {(f.predicate, key[f.subject]) for f in cat.facts if f.value and f.subject in key}
    rational = frozenset(k for predicate, k in holds if predicate == "Rational")
    irrational = frozenset(k for predicate, k in holds if predicate == "Irrational")
    rules = {(r["center"], tuple(r["fbar"])): r["rule"] for r in cat.geometric_exclusions}
    return LinkFactStore(chi, rational, irrational, rules)


def realized_scrolls(kind: str, genus: int) -> dict[tuple[int, ...], str]:
    """splitting -> entry id for the realized models of the given kind/genus."""
    out = {}
    for row in load().scroll_models[kind]:
        if row["genus"] == genus and row["entry"]:
            out[tuple(row["splitting"])] = row["entry"]
    return out
