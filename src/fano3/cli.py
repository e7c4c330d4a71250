"""Command-line front end.  Tables are for humans; --json is the contract.

Exit codes: 0 success, 2 usage error, 3 catalog verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Optional, Sequence


def _jsonable(obj: Any) -> Any:
    # the classes are disjoint, so the order only sets the cost: the Fraction
    # test goes through ABCMeta.__instancecheck__ and comes last
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (dict, MappingProxyType)):  # the catalog's objects are proxies
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if type(obj) in (list, tuple):  # not a record, though every record is a tuple
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"


# --- rr -------------------------------------------------------------------

# hilbert_polynomial costs about dim^2 integer operations (3.5 ms at dim 100,
# 9 ms for a whole rr call at t = 10^6, on a 2-vCPU Xeon VM); the cap bounds
# chi(t), which grows like t^dim
RR_MAX_DIM = 100
RR_MAX_T = 10**6
# the trigonal case list has O(g^3) rows (6 736 rows, 659 kB of JSON at
# genus 100), the hyperelliptic one O(g^2) (817 rows)
SCROLL_MAX_GENUS = 100


def _cmd_rr(args) -> tuple[Any, str]:
    from fano3 import riemannroch

    if args.dim > RR_MAX_DIM:
        raise ValueError(f"--dim must be at most {RR_MAX_DIM}, got {args.dim}")
    if abs(args.t) > RR_MAX_T:
        raise ValueError(f"--t must lie in -{RR_MAX_T}..{RR_MAX_T}")
    if args.genus is not None:
        if args.index != args.dim - 2:
            raise ValueError(f"--genus needs --index = --dim - 2 (coindex 3), got --index {args.index}")
        fn = riemannroch.FanoNumerics.from_genus(args.dim, args.genus)
    else:
        fn = riemannroch.FanoNumerics(args.dim, args.index, args.degree)
    chi = riemannroch.hilbert_polynomial(fn)
    value = chi(args.t)
    payload = {
        "dim": args.dim,
        "index": args.index,
        "degree": Fraction(fn.degree),  # rational in the JSON contract
        "t": args.t,
        "value": Fraction(value),  # rational in the JSON contract
        "coefficients": list(chi.coeffs),
        "h0_fundamental": riemannroch.h0_fundamental(fn),
    }
    return payload, str(value)


# --- blowup ---------------------------------------------------------------

def _cmd_blowup(args) -> tuple[Any, str]:
    from fano3 import blowup

    if args.point:
        form = blowup.blowup_point(args.antik_cube)
        center = {"kind": "point"}
    else:
        deg, genus = args.curve
        form = blowup.blowup_curve(args.antik_cube, blowup.CurveCenter(deg, genus))
        center = {"kind": "curve", "deg_antik": deg, "genus": genus}
    names = ["(-K)^3", "(-K)^2.E", "(-K).E^2", "E^3"]
    table = "\n".join(f"{n:10s} {v}" for n, v in zip(names, form.values))
    if form.not_big:
        table += "\nflag: anticanonical class not big"
    values = [Fraction(v) for v in form.values]  # rational in the JSON contract
    return {"center": center, "basis": "KE", "values": values, "not_big": form.not_big}, table


# --- scroll ---------------------------------------------------------------

_CLASS_TERM = re.compile(r"([+-]?\d*)([MF])")


def parse_mf_class(text: str) -> DivisorClass:
    from fano3.exactcore import Basis, cls2

    cleaned = text.replace(" ", "")
    # a sign before every term after the first: "MF" and "2M3F" are not classes
    if not re.fullmatch(r"[+-]?\d*[MF]([+-]\d*[MF])*", cleaned):
        raise ValueError(f"cannot parse divisor class {text!r}")
    coords = {"M": 0, "F": 0}
    for coeff, name in _CLASS_TERM.findall(cleaned):
        coords[name] += int(coeff + "1" if coeff in ("", "+", "-") else coeff)
    return cls2(Basis.MF, coords["M"], coords["F"])


def _cmd_scroll(args) -> tuple[Any, str]:
    from fano3 import scrolls

    if (args.weights is None) == (args.hyperelliptic is None and args.trigonal is None):
        raise ValueError(
            "--weights is required with --h0/--canonical/--intersect and not allowed"
            " with --hyperelliptic/--trigonal"
        )
    if args.weights is None:
        if args.hyperelliptic is not None:
            kind, genus, make = "hyperelliptic", args.hyperelliptic, scrolls.hyperelliptic_candidates
        else:
            kind, genus, make = "trigonal", args.trigonal, scrolls.trigonal_candidates
        if genus > SCROLL_MAX_GENUS:
            raise ValueError(f"genus must be at most {SCROLL_MAX_GENUS}, got {genus}")
        from fano3 import catalog

        cands = scrolls.mark_realized(make(genus), catalog.realized_scrolls(kind, genus))
        # every row of a list has the same branch class, and every excluded
        # row the same witness: each is converted once
        if kind == "hyperelliptic":
            branch = [Fraction(v) for v in cands[0].branch_class.coords] if cands else None
        else:
            witness = next((Fraction(c.witness) for c in cands if c.excluded), None)
        rows = []
        for c in cands:
            row = {"splitting": list(c.scroll.splitting), "status": c.status, "entry": c.realized_as}
            if kind == "hyperelliptic":
                row["branch"] = branch
            else:
                row.update(witness=witness if c.excluded else None, witness_k=c.witness_k)
            rows.append(row)
        table = "\n".join(
            f"{str(r['splitting']):15s} {r['status']}"
            + (f" (witness {r['witness']} at k={r['witness_k']})" if r.get("witness") is not None else "")
            for r in rows
        )
        return rows, table or "(no splittings)"
    s = scrolls.ScrollData(args.weights)
    splitting = list(s.splitting)
    if args.h0:
        value = scrolls.scroll_h0(s)
        return {"splitting": splitting, "h0": value}, str(value)
    if args.canonical:
        k = scrolls.scroll_canonical(s)
        canonical = [Fraction(v) for v in k.coords]
        return {"splitting": splitting, "canonical": canonical}, f"K = {k.coords[0]} M + {k.coords[1]} F"
    value = scrolls.scroll_intersection(s, args.intersect)
    return {"splitting": splitting, "value": Fraction(value)}, str(value)


# --- wps ------------------------------------------------------------------

# the table's label of each payload field in line order; a None field has no line
WPS_LABELS = (
    ("weights", "weights"), ("well_formed", "well-formed"), ("normalized", "normalized"),
    ("pic_index", "pic index"), ("dim", "dim"), ("index", "index"),
    ("antik_power", "(-K)^dim"), ("genus", "genus"),
)


def _cmd_wps(args) -> tuple[Any, str]:
    from fano3 import wps

    w = wps.WeightSystem(args.weights)
    normalized = wps.normalize(w)
    payload: dict[str, Any] = {
        "weights": list(w.weights),
        "well_formed": wps.is_well_formed(w),
        "normalized": list(normalized.weights),
        "pic_index": wps.pic_index(normalized),
    }
    if args.degrees:
        # the degrees belong to the given weights, not to the normalized ones
        spec = wps.CompleteIntersectionSpec(w, args.degrees)
        inv = wps.ci_fano_invariants(spec)
        payload.update(
            degrees=list(spec.degrees),
            dim=inv.dim,
            index=inv.index,
            antik_power=inv.antik_power,
            genus=inv.genus,
            warnings=list(inv.warnings),
        )
    lines = [f"{label:12s} {payload[field]}" for field, label in WPS_LABELS if payload.get(field) is not None]
    lines += [f"{'warning':12s} {msg}" for msg in payload.get("warnings", ())]
    return payload, "\n".join(lines)


# --- link -----------------------------------------------------------------

def candidate_payload(c: sarkisov.LinkCandidate) -> dict:
    return {
        "center": c.center,
        "g": c.g,
        "type": c.ctype,
        "mu": c.mu,
        "a": c.fbar[0],
        "b": c.fbar[1],
        "mbar": list(c.mbar),
        "fbar": list(c.fbar),
        "target": {k: v for k, v in c.target._asdict().items() if v is not None},
        "ebar_cube": Fraction(c.ebar_cube),
        "defect": Fraction(c.defect),
        "status": c.status,
        "m_cap": c.m_cap,
    }


# the table's description of a link's target, one template per TargetInvariants.kind
TARGET_TEMPLATES = {
    "del-pezzo-fibration": "del Pezzo fibration of degree {fiber_degree}",
    "conic-bundle": "conic bundle, discriminant degree {discriminant_degree}",
    "fano-curve-blowdown":
        "blowup of curve (deg {deg_z}, genus {genus_z}) on target with iota={iota_y}, d={degree_y}",
    "fano-point-blowdown": "point blowdown (k={k}) onto Fano with (-K)^3={antik_cube_y}",
}


def _candidate_row(c: sarkisov.LinkCandidate) -> str:
    return (
        f"g={c.g:<3d} {c.ctype:<6s} F=({c.fbar[0]},{c.fbar[1]}) "
        f"Ebar^3={str(c.ebar_cube):>4s} def={str(c.defect):>3s} "
        f"{c.status:<28s} {TARGET_TEMPLATES[c.target.kind].format_map(c.target._asdict())}"
    )


def _cmd_link(args) -> tuple[Any, str]:
    from fano3 import sarkisov

    genera = [args.genus] if args.genus is not None else args.genus_range
    cands = sarkisov.enumerate_links(args.center, genera)
    if not args.show_excluded:
        cands = [c for c in cands if c.confirmed]
    payload = [candidate_payload(c) for c in cands]
    return payload, "\n".join(_candidate_row(c) for c in cands) or "(no candidates)"


# --- rho2 -----------------------------------------------------------------

def _cmd_rho2(args) -> tuple[Any, str]:
    from fano3 import sarkisov

    sols = sarkisov.rho2_primitive_enumerate()
    payload = [
        {
            "antik_cube": s.antik_cube,
            "rays": [s.ray1, s.ray2],
            "d": s.d,
            "d_prime": s.d_prime,
            "k": s.k,
            "g": s.g,
            "a": s.a,
            "b": s.b,
        }
        for s in sols
    ]
    table = "\n".join(
        f"(-K)^3={s.antik_cube:<3d} rays=({s.ray1},{s.ray2:<6s}) d={s.d} "
        f"d'={'-' if s.d_prime is None else s.d_prime} g={s.g:<3d} "
        f"(a,b)=({s.a},{s.b})"
        for s in sols
    )
    return payload, table


# --- catalog --------------------------------------------------------------

def _cmd_catalog(args) -> tuple[Any, str] | tuple[Any, str, int]:
    from fano3 import catalog

    cat = catalog.load()
    if args.action == "list":
        entries = cat.list(rho=args.rho, index=args.index, genus=args.genus, flag=args.flag)
        payload = [{k: v for k, v in e._asdict().items() if v is not None} for e in entries]
        table = "\n".join(
            f"{e.id:22s} rho={e.rho:<2d} iota={e.index} (-K)^3={e.antik_cube:<3d} "
            f"h12={e.h12:<2d} chi={e.chi_top:<5d} {e.description}"
            for e in entries
        )
        return payload, table or "(no entries)"
    if args.action == "facts":
        facts = cat.facts_for(args.subject)
        payload = [f._asdict() for f in facts]
        return payload, "\n".join(f"{f.predicate:12s} {f.value}" for f in facts)
    # verify
    if args.id is not None:
        results = catalog.verify(cat.by_id(args.id))
    else:
        results = catalog.verify_all()
    failures = [r for r in results if not r.passed]
    payload = {
        "checks": len(results),
        "failures": [r._asdict() for r in failures],
    }
    lines = [f"{len(results)} checks, {len(failures)} failures"]
    lines += [f"FAIL {r.entry_id} {r.check}: {r.lhs} != {r.rhs}" for r in failures]
    return payload, "\n".join(lines), 3 if failures else 0


# --- driver ---------------------------------------------------------------

def _parsed(form: str, parse):
    """An argparse type= that applies parse and, on ValueError, names the
    expected form."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects {form}, got {text!r}") from None

    return convert


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _curve(text: str) -> tuple[int, int]:
    deg, genus = _ints(text)
    return deg, genus


def _classes(text: str) -> list[DivisorClass]:
    return [parse_mf_class(c) for c in text.split(",")]


def _genus_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    first, last = int(lo), int(hi)
    if first > last:
        raise ValueError("empty range")
    return range(first, last + 1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI grammar.  Building it costs more than most commands, so it is
    built once per process and shared: callers parse with it and change
    nothing."""
    p = argparse.ArgumentParser(prog="fano3", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    ints = _parsed("comma-separated integers like 2,1,1", _ints)

    def command(parent, name: str, text: str) -> argparse.ArgumentParser:
        parser = parent.add_parser(name, help=text)
        parser.add_argument("--json", action="store_true", help="canonical JSON instead of a table")
        return parser

    rr = command(sub, "rr", "Hilbert polynomial / section counts")
    rr.add_argument("--dim", type=int, required=True)
    rr.add_argument("--index", type=int, required=True)
    size = rr.add_mutually_exclusive_group(required=True)
    size.add_argument("--degree", type=int)
    size.add_argument("--genus", type=int)
    rr.add_argument("--t", type=int, default=1)

    bl = command(sub, "blowup", "intersection form of a blowup")
    bl.add_argument("--antik-cube", type=int, required=True)
    center = bl.add_mutually_exclusive_group(required=True)
    center.add_argument("--point", action="store_true")
    center.add_argument("--curve", type=_parsed("DEG,GENUS with integers", _curve),
                        help="DEG,GENUS with DEG = (-K).Z")

    sc = command(sub, "scroll", "scroll intersection calculus")
    sc.add_argument("--weights", type=ints, help="splitting degrees d1,d2,...")
    mode = sc.add_mutually_exclusive_group(required=True)
    mode.add_argument("--h0", action="store_true")
    mode.add_argument("--canonical", action="store_true")
    mode.add_argument("--intersect", type=_parsed("classes like 3M-4F,M-F", _classes),
                      help="comma list of classes like 3M-4F,M-F,...; write"
                      " --intersect=-M+F,... when the first class starts with '-'")
    mode.add_argument("--hyperelliptic", type=int, help="genus for the rank-3 case list")
    mode.add_argument("--trigonal", type=int, help="genus for the rank-4 case list")

    wp = command(sub, "wps", "weighted projective space arithmetic")
    wp.add_argument("--weights", type=ints, required=True)
    wp.add_argument("--degrees", type=ints)

    ln = command(sub, "link", "two-ray link enumeration")
    ln.add_argument("--center", choices=("line", "conic", "point"), required=True)
    genera = ln.add_mutually_exclusive_group(required=True)
    genera.add_argument("--genus", type=int)
    genera.add_argument("--genus-range", type=_parsed("A..B with integers A <= B", _genus_range),
                        help="A..B inclusive")
    ln.add_argument("--show-excluded", action="store_true")

    r2 = command(sub, "rho2", "Picard-number-2 enumeration")
    r2.add_argument("action", choices=("enumerate-primitive",))

    ct = sub.add_parser("catalog", help="classification tables")
    actions = ct.add_subparsers(dest="action", required=True)
    ls = command(actions, "list", "entries matching every filter given")
    ls.add_argument("--rho", type=int)
    ls.add_argument("--index", type=int)
    ls.add_argument("--genus", type=int)
    ls.add_argument("--flag")
    facts = command(actions, "facts", "the facts recorded for one subject")
    facts.add_argument("subject")
    verify = command(actions, "verify", "run the identity checks")
    which = verify.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="every entry (the default)")
    which.add_argument("--id")
    return p


# Each handler computes and returns its payload and table (`catalog` adds an
# exit code); main alone renders one of them and writes it.  Each handler
# imports its own layers, so that a process pays only for the modules its
# subcommand uses: `fano3 rr` loads riemannroch and nothing else.
COMMANDS = {
    "rr": _cmd_rr,
    "blowup": _cmd_blowup,
    "scroll": _cmd_scroll,
    "wps": _cmd_wps,
    "link": _cmd_link,
    "rho2": _cmd_rho2,
    "catalog": _cmd_catalog,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    try:
        with contextlib.redirect_stdout(out or sys.stdout):  # argparse prints --help there
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, table, *code = COMMANDS[args.command](args)
        # rendered before anything is written: Python prints no int over 4300 digits
        text = dumps(payload) if args.json else table + "\n"
    except ValueError as exc:
        print(f"fano3 {args.command}: error: {exc}", file=sys.stderr)
        return 2
    (out or sys.stdout).write(text)
    return code[0] if code else 0


if __name__ == "__main__":
    raise SystemExit(main())
