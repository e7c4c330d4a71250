"""Workload inputs, operations and output checks.

Inputs are plain data drawn from ``random.Random`` seeded by the workload, the
benchmark seed and the pass number, so a seed always gives the same inputs.
An operation is one call into fano3 (or one ``python -m fano3.cli`` process);
its output is checked after the pass, outside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

CENTERS = ("line", "conic", "point")
WORKLOADS = ("reproduce", "sweep", "cli")

# argv of the committed golden samples in docs/samples/
GOLDEN = {
    "rr.json": ["rr", "--dim", "3", "--index", "1", "--genus", "12", "--t", "1", "--json"],
    "blowup.json": ["blowup", "--antik-cube", "22", "--curve", "1,0", "--json"],
    "scroll.json": ["scroll", "--weights", "2,2,1,1", "--intersect", "3M-4F,M-3F,M-F,M-F", "--json"],
    "wps.json": ["wps", "--weights", "1,1,1,2,3", "--degrees", "6", "--json"],
    "link.json": ["link", "--center", "line", "--genus-range", "7..13", "--show-excluded", "--json"],
    "rho2.json": ["rho2", "enumerate-primitive", "--json"],
    "catalog.json": ["catalog", "list", "--rho", "1", "--index", "2", "--json"],
}

# Genus ranges: the paper's tables (reproduce) and the wide windows beyond
# them (sweep).  The reference holds a digest for every cell in REF_GENERA.
TABLE_GENERA = range(7, 41)
REF_GENERA = range(5, 401)
SWEEP_WIDTH = 48
HYPERELLIPTIC_TABLE = range(4, 8)
TRIGONAL_TABLE = range(6, 11)
SWEEP_TRIGONAL = range(35, 38)
SWEEP_HYPERELLIPTIC = range(41, 101)
SWEEP_RHO2_BOUNDS = (10, 11)
# box x cells of one certificate call, so that its cost does not depend on the
# draw; two calls per center
CERTIFICATE_BUDGET = 1700
CERTIFICATES_PER_CENTER = 2
SAMPLES_PER_IDENTITY = 16

# exact (index, (-K)^dim) of quasi-smooth Fano complete intersections
CI_GOLDENS = [
    ((1, 1, 1, 2, 3), (6,), 2, 8),
    ((1, 1, 1, 1, 2), (4,), 2, 16),
    ((1, 1, 1, 1, 3), (6,), 1, 2),
    ((1, 1, 1, 1, 1, 2), (2, 4), 1, 4),
    ((1, 1, 1, 1, 1), (4,), 1, 4),
    ((1, 1, 1, 1, 1), (3,), 2, 24),
    ((1, 1, 1, 1, 1), (2,), 3, 54),
    ((1, 1, 1, 1, 1, 1), (2, 3), 1, 6),
]
CATALOG_SUBJECTS = ("p3", "quadric", "v3", "v4", "v5", "fano-g7", "fano-g9", "fano-g12", "rho2-prim-3")
WPS_POOL = [(w, d) for w, d, _, _ in CI_GOLDENS] + [((1, 1, 2, 3), None), ((2, 4, 6, 3, 1), None)]


# --- inputs -------------------------------------------------------------------

def make_inputs(workload: str, seed: int, pass_index: int) -> dict:
    rng = random.Random(f"fano3-bench/{workload}/{seed}/{pass_index}")
    return {"reproduce": _reproduce_inputs, "sweep": _sweep_inputs, "cli": _cli_inputs}[workload](rng)


def _reproduce_inputs(rng: random.Random) -> dict:
    certificate = []
    for center in CENTERS * CERTIFICATES_PER_CENTER:
        box = rng.randint(100, 340)
        width = CERTIFICATE_BUDGET // box
        start = rng.randint(TABLE_GENERA.start, TABLE_GENERA.stop - width)
        certificate.append((center, box, start, width))
    hilbert = []
    for _ in range(SAMPLES_PER_IDENTITY):
        n = rng.randint(1, 3)
        kind = rng.randrange(4)
        if kind == 0:
            numerics = (n, n + 1, 1)
        elif kind == 1:
            numerics = (n, n, 2)
        elif kind == 2:
            n = rng.randint(2, 3)
            numerics = (n, n - 1, rng.randint(1, 40))
        else:
            numerics = (3, 1, 2 * rng.randint(2, 40) - 2)
        hilbert.append((*numerics, rng.randint(-10, 10)))
    blowup = [
        (2 * rng.randint(2, 40) - 2, rng.randint(1, 12), rng.randint(0, 6))
        for _ in range(SAMPLES_PER_IDENTITY)
    ]
    basis = []
    while len(basis) < SAMPLES_PER_IDENTITY:
        u, v = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(2)]
        if u[0] * v[1] - u[1] * v[0] == 0:
            continue
        form = tuple(rng.randint(-30, 30) for _ in range(4))
        classes = tuple((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3))
        basis.append((form, u, v, classes))
    ci = [_random_ci(rng) for _ in range(SAMPLES_PER_IDENTITY)]
    return {"certificate": certificate, "hilbert": hilbert, "blowup": blowup, "basis": basis, "ci": ci}


def _well_formed(weights: tuple[int, ...]) -> bool:
    n = len(weights) - 1
    return all(math.gcd(*(w for j, w in enumerate(weights) if j != skip)) == 1 for skip in range(n + 1))


def _random_ci(rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    while True:
        n = rng.randint(4, 6)
        weights = tuple(sorted([1] * (n - 1) + [rng.randint(1, 5) for _ in range(2)]))
        degrees = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, n - 3)))
        if _well_formed(weights) and sum(degrees) < sum(weights):
            return weights, degrees


def _sweep_inputs(rng: random.Random) -> dict:
    top = REF_GENERA.stop - SWEEP_WIDTH
    return {
        "windows": [(c, rng.randint(TABLE_GENERA.stop, top)) for c in CENTERS],
        "trigonal": rng.sample(SWEEP_TRIGONAL, 2),
        "hyperelliptic": rng.sample(SWEEP_HYPERELLIPTIC, 2),
        "rho2_bound": rng.choice(SWEEP_RHO2_BOUNDS),
    }


DRAWN_PER_SUBCOMMAND = 2
LINK_ARGV_CELLS = 6


def _flag(rng: random.Random, name: str) -> list[str]:
    return [name] if rng.random() < 0.5 else []


def _argv_rr(rng):
    index = rng.randint(1, 4)
    size = {1: ["--genus", str(rng.randint(2, 20))], 2: ["--degree", str(rng.randint(1, 8))],
            3: ["--degree", "2"], 4: ["--degree", "1"]}[index]
    return ["rr", "--dim", "3", "--index", str(index), *size, "--t", str(rng.randint(-3, 6))]


def _argv_blowup(rng):
    cube = str(2 * rng.randint(2, 32))
    if rng.random() < 0.3:
        return ["blowup", "--antik-cube", cube, "--point"]
    return ["blowup", "--antik-cube", cube, "--curve", f"{rng.randint(1, 8)},{rng.randint(0, 3)}"]


def _argv_scroll(rng):
    mode = rng.choice(("h0", "canonical", "intersect", "hyperelliptic", "trigonal"))
    if mode == "hyperelliptic":
        return ["scroll", "--hyperelliptic", str(rng.randint(2, 14))]
    if mode == "trigonal":
        return ["scroll", "--trigonal", str(rng.randint(5, 16))]
    rank = rng.randint(2, 4)
    argv = ["scroll", "--weights", ",".join(str(rng.randint(0, 3)) for _ in range(rank))]
    if mode == "intersect":
        classes = [f"{rng.randint(-3, 3)}M{rng.randint(-4, 4):+d}F" for _ in range(rank)]
        return argv + ["--intersect=" + ",".join(classes)]  # classes may start with "-"
    return argv + [f"--{mode}"]


def _argv_wps(rng):
    weights, degrees = rng.choice(WPS_POOL)
    argv = ["wps", "--weights", ",".join(map(str, weights))]
    if degrees is not None and rng.random() < 0.8:
        argv += ["--degrees", ",".join(map(str, degrees))]
    return argv


def _argv_link(rng):
    # a fixed number of cells, so that cells_per_s does not depend on the draw
    lo = rng.randint(5, 40 - LINK_ARGV_CELLS + 1)
    argv = ["link", "--center", rng.choice(CENTERS), "--genus-range", f"{lo}..{lo + LINK_ARGV_CELLS - 1}"]
    return argv + _flag(rng, "--show-excluded")


def _argv_rho2(rng):
    return ["rho2", "enumerate-primitive"]


def _argv_catalog(rng):
    action = rng.choice(("list", "facts", "verify"))
    if action == "facts":
        return ["catalog", "facts", rng.choice(CATALOG_SUBJECTS)]
    if action == "verify":
        return ["catalog", "verify", *rng.choice((["--all"], ["--id", rng.choice(CATALOG_SUBJECTS)]))]
    key, values = rng.choice((("--rho", (1, 2, 3)), ("--index", (1, 2, 3, 4)), ("--genus", range(2, 13))))
    return ["catalog", "list", key, str(rng.choice(values))]


ARGV_MAKERS = (_argv_rr, _argv_blowup, _argv_scroll, _argv_wps, _argv_link, _argv_rho2, _argv_catalog)


def _cli_inputs(rng: random.Random) -> dict:
    argvs = [list(a) for a in GOLDEN.values()]
    for make in ARGV_MAKERS:
        for _ in range(DRAWN_PER_SUBCOMMAND):
            argvs.append(make(rng) + _flag(rng, "--json"))
    rng.shuffle(argvs)
    return {"argv": argvs}


# --- digests ------------------------------------------------------------------

def _plain(x: Any) -> Any:
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    raise TypeError(f"cannot digest {type(x).__name__}")


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def link_cells(cands, genera) -> dict[int, str]:
    """Digest of the documented JSON payload of each (center, genus) cell."""
    from fano3.cli import candidate_payload

    by_g = defaultdict(list)
    for c in cands:
        by_g[c.g].append(candidate_payload(c))
    return {g: digest(by_g[g]) for g in genera}


def case_list_digest(cands) -> str:
    rows = []
    for c in cands:
        row = {"splitting": list(c.scroll.splitting), "status": c.status, "entry": c.realized_as}
        if hasattr(c, "branch_class"):
            row["branch"] = list(c.branch_class.coords)
        else:
            row.update(witness=c.witness, witness_k=c.witness_k)
        rows.append(row)
    return digest(rows)


def rho2_digest(sols) -> str:
    return digest([
        {"antik_cube": s.antik_cube, "rays": [s.ray1, s.ray2], "d": s.d, "d_prime": s.d_prime,
         "k": s.k, "g": s.g, "a": s.a, "b": s.b}
        for s in sols
    ])


def case_list(kind: str, g: int):
    from fano3 import catalog, scrolls

    make = scrolls.hyperelliptic_candidates if kind == "hyperelliptic" else scrolls.trigonal_candidates
    return scrolls.mark_realized(make(g), catalog.realized_scrolls(kind, g))


def make_reference(box: int, log=print) -> dict:
    """Digests of the brute-force (box `box`) link cells and of the other
    enumerations the workloads check."""
    from fano3 import catalog, sarkisov

    links = {}
    for center in CENTERS:
        links[center] = [
            link_cells(sarkisov.enumerate_links(center, [g], search_bound=box), [g])[g]
            for g in REF_GENERA
        ]
        log(f"reference: {center} cells {REF_GENERA.start}..{REF_GENERA.stop - 1} at box {box}")
    return {
        "box": box,
        "g_min": REF_GENERA.start,
        "links": links,
        "hyperelliptic": {str(g): case_list_digest(case_list("hyperelliptic", g))
                          for g in (*HYPERELLIPTIC_TABLE, *SWEEP_HYPERELLIPTIC)},
        "trigonal": {str(g): case_list_digest(case_list("trigonal", g))
                     for g in (*TRIGONAL_TABLE, *SWEEP_TRIGONAL)},
        "rho2": {str(b): rho2_digest(sarkisov.rho2_primitive_enumerate(b)) for b in (8, *SWEEP_RHO2_BOUNDS)},
        "catalog_checks": len(catalog.verify_all()),
    }


# --- operations ---------------------------------------------------------------

@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    cells: int = 0


class Context:
    """What the operations need besides their inputs: the checkout, the
    reference digests, the golden bytes and the expected CLI outputs."""

    def __init__(self, root: Path, reference: dict) -> None:
        self.root = root
        self.reference = reference
        self.golden = {tuple(argv): (root / "docs" / "samples" / name).read_text()
                       for name, argv in GOLDEN.items()}
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self._expected: dict[tuple, tuple[int, str]] = {}

    def cells_ok(self, center: str, cells: dict[int, str]) -> bool:
        ref = self.reference["links"][center]
        g_min = self.reference["g_min"]
        return all(ref[g - g_min] == d for g, d in cells.items())

    def expected(self, argv: list[str]) -> tuple[int, str]:
        """The in-process cli.main result for argv, computed once."""
        key = tuple(argv)
        if key not in self._expected:
            self._expected[key] = run_main(argv)
        return self._expected[key]


def run_main(argv: list[str]) -> tuple[int, str]:
    from fano3 import cli

    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def build_ops(workload: str, inputs: dict, ctx: Context, child: list[str] | None = None) -> list[Op]:
    """Operations of one pass.  `child` is the command that runs one CLI
    process for the cli workload (the traced run swaps in its own)."""
    if workload == "reproduce":
        return _reproduce_ops(inputs, ctx)
    if workload == "sweep":
        return _sweep_ops(inputs, ctx)
    return _cli_ops(inputs, ctx, child or [sys.executable, "-m", "fano3.cli"])


def _golden_op(argv: list[str], ctx: Context) -> Op:
    want = ctx.golden[tuple(argv)]
    cells = _link_argv_cells(argv)
    return Op("golden", lambda: run_main(argv), lambda got: got == (0, want), cells)


def _reproduce_ops(inputs: dict, ctx: Context) -> list[Op]:
    # layer functions are looked up at call time, so the tracer's wrappers apply
    from fano3 import blowup, catalog, exactcore, riemannroch, sarkisov, wps
    from fano3.blowup import CurveCenter
    from fano3.exactcore import Basis, cls2, form2
    from fano3.riemannroch import FanoNumerics
    from fano3.wps import CompleteIntersectionSpec, WeightSystem

    ops = [_golden_op(argv, ctx) for argv in GOLDEN.values()]
    tables: dict[str, list] = {}

    def table(center):
        def call():
            tables[center] = sarkisov.enumerate_links(center, TABLE_GENERA)
            return tables[center]
        return call

    for center in CENTERS:
        ops.append(Op("link-table", table(center),
                      lambda got, c=center: ctx.cells_ok(c, link_cells(got, TABLE_GENERA)),
                      len(TABLE_GENERA)))
    ref = ctx.reference
    ops.append(Op("rho2", lambda: sarkisov.rho2_primitive_enumerate(),
                  lambda got: rho2_digest(got) == ref["rho2"]["8"]))
    for kind, genera in (("hyperelliptic", HYPERELLIPTIC_TABLE), ("trigonal", TRIGONAL_TABLE)):
        for g in genera:
            ops.append(Op(kind, lambda k=kind, g=g: case_list(k, g),
                          lambda got, k=kind, g=g: case_list_digest(got) == ref[k][str(g)]))
    ops.append(Op("verify-all", lambda: catalog.verify_all(),
                  lambda got: len(got) == ref["catalog_checks"] and all(r.passed for r in got)))

    def hilbert_call():
        return [(n, i, Fraction(d), t, riemannroch.hilbert_polynomial(FanoNumerics(n, i, d)))
                for n, i, d, t in inputs["hilbert"]]

    def hilbert_check(got):
        return all(
            chi(0) == 1 and chi(-i - t) == (-1) ** n * chi(t) and len(chi.coeffs) == n + 1
            and chi.coeffs[-1] == d / math.factorial(n) and all(chi(-k) == 0 for k in range(1, i))
            for n, i, d, t, chi in got
        )

    def blowup_call():
        return [(c, deg, h, blowup.blowup_curve(c, CurveCenter(deg, h)).values,
                 blowup.blowup_point(c).values, blowup.blowup_curve(c, CurveCenter(1, 0)).values,
                 blowup.blowup_curve(c, CurveCenter(2, 0)).values)
                for c, deg, h in inputs["blowup"]]

    def blowup_check(got):
        return all(
            curve == (c - 2 * deg + 2 * h - 2, deg - 2 * h + 2, 2 * h - 2, 2 - 2 * h - deg)
            and point == (c - 8, 4, -2, 1) and line == (c - 4, 3, -2, 1) and conic == (c - 6, 4, -2, 0)
            for c, deg, h, curve, point, line, conic in got
        )

    def basis_call():
        out = []
        for form, u, v, classes in inputs["basis"]:
            old = form2(Basis.KE, *form)
            new = exactcore.change_basis(old, [cls2(Basis.KE, *u), cls2(Basis.KE, *v)], Basis.MF)
            same = exactcore.change_basis(old, [cls2(Basis.KE, 1, 0), cls2(Basis.KE, 0, 1)], Basis.KE)
            mapped = [cls2(Basis.KE, p * u[0] + q * v[0], p * u[1] + q * v[1]) for p, q in classes]
            lhs = exactcore.eval_form(new, *(cls2(Basis.MF, p, q) for p, q in classes))
            out.append((lhs, exactcore.eval_form(old, *mapped), same.values, old.values))
        return out

    def basis_check(got):
        return all(lhs == rhs and same == old for lhs, rhs, same, old in got)

    def ci_call():
        specs = [(w, d) for w, d, _, _ in CI_GOLDENS] + inputs["ci"]
        return [(w, d, wps.ci_fano_invariants(CompleteIntersectionSpec(WeightSystem(w), d)))
                for w, d in specs]

    def ci_check(got):
        goldens = {(w, d): (i, a) for w, d, i, a in CI_GOLDENS}
        for w, d, inv in got:
            iota, dim = sum(w) - sum(d), len(w) - 1 - len(d)
            antik = Fraction(iota**dim * math.prod(d), math.prod(w))
            if (inv.index, inv.dim, inv.antik_power) != (iota, dim, antik):
                return False
            if (w, d) in goldens and goldens[w, d] != (iota, antik):
                return False
        return True

    ops += [
        Op("hilbert", hilbert_call, hilbert_check),
        Op("blowup", blowup_call, blowup_check),
        Op("basis", basis_call, basis_check),
        Op("ci", ci_call, ci_check),
    ]
    for center, box, start, width in inputs["certificate"]:
        genera = range(start, start + width)

        def certificate(center=center, box=box, genera=genera):
            return sarkisov.enumerate_links(center, genera, search_bound=box)

        def certificate_check(got, center=center, genera=genera):
            default = [c for c in tables.get(center, []) if c.g in genera]
            return got == default and ctx.cells_ok(center, link_cells(got, genera))

        ops.append(Op("certificate", certificate, certificate_check, width))
    return ops


def _sweep_ops(inputs: dict, ctx: Context) -> list[Op]:
    from fano3 import sarkisov

    ref = ctx.reference
    ops = []
    for center, start in inputs["windows"]:
        genera = range(start, start + SWEEP_WIDTH)
        ops.append(Op("window", lambda c=center, gs=genera: sarkisov.enumerate_links(c, gs),
                      lambda got, c=center, gs=genera: ctx.cells_ok(c, link_cells(got, gs)),
                      SWEEP_WIDTH))
    for kind in ("trigonal", "hyperelliptic"):
        for g in inputs[kind]:
            ops.append(Op(kind, lambda k=kind, g=g: case_list(k, g),
                          lambda got, k=kind, g=g: case_list_digest(got) == ref[k][str(g)]))
    bound = inputs["rho2_bound"]
    ops.append(Op("rho2", lambda: sarkisov.rho2_primitive_enumerate(bound),
                  lambda got: rho2_digest(got) == ref["rho2"][str(bound)]))
    return ops


def _link_argv_cells(argv: list[str]) -> int:
    if argv[0] != "link":
        return 0
    lo, _, hi = argv[argv.index("--genus-range") + 1].partition("..")
    return int(hi) - int(lo) + 1


def _cli_ops(inputs: dict, ctx: Context, command: list[str]) -> list[Op]:
    ops = []
    for argv in inputs["argv"]:
        want = ctx.expected(argv)
        golden = ctx.golden.get(tuple(argv))

        def call(argv=argv):
            proc = subprocess.run([*command, *argv], cwd=ctx.root, env=ctx.env,
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        def check(got, want=want, golden=golden):
            code, stdout, _ = got
            return code == 0 and want == (0, stdout) and golden in (None, stdout)

        ops.append(Op("proc", call, check, _link_argv_cells(argv)))
    return ops
