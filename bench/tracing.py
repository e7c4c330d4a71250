"""Spans around calls into the public functions of each fano3 layer.

A span is ``[name, start, end, parent, op]``: perf_counter seconds, the index
of the enclosing span (or None) and the benchmark operation id.  The tracer
patches each traced function in its defining module and in every other fano3
module that imported it by name, so calls between layers are seen too.
Spans stay in memory; the benchmark aggregates them after a pass.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
import time

# layer module -> public functions that get a span
TRACED = {
    "exactcore": ("eval_form", "change_basis"),
    "riemannroch": ("hilbert_polynomial",),
    "blowup": ("blowup_curve", "blowup_point"),
    "scrolls": ("hyperelliptic_candidates", "trigonal_candidates"),
    "wps": ("ci_fano_invariants",),
    "sarkisov": ("enumerate_links", "filter_links", "rho2_primitive_enumerate"),
    "catalog": ("load", "verify_all", "link_facts"),
    "cli": ("main", "dumps"),
}

# (a, b) scans per (center, genus) cell of the brute-force link search: fiber
# types D1-D3 and C1-C2 scan a (5), B1 scans a_m for iota = 1..4 (4), and the
# point blowdowns scan a_f (1); each scan runs over the whole box.
SCANS_PER_CELL = 10


def _link_counts(args, result):
    cells = len(set(args["g_range"]))
    return {"sarkisov.cells": cells, "sarkisov.trials": cells * SCANS_PER_CELL * args["search_bound"]}


def _rho2_counts(args, result):
    b = args["bound"]
    # d = 0 uses the half-integral grid, the nine other discriminant degrees
    # the integral one; each grid is scanned as (a, b) pairs.
    return {"sarkisov.rho2.grid_points": (2 * b) ** 2 + 9 * b * b}


# traced name -> counts taken from the bound arguments and the result
COUNTERS = {
    "sarkisov.enumerate_links": _link_counts,
    "sarkisov.filter_links": lambda args, result: {
        "sarkisov.candidates": len(result),
        "sarkisov.confirmed": sum(c.confirmed for c in result),
    },
    "sarkisov.rho2_primitive_enumerate": _rho2_counts,
    "scrolls.hyperelliptic_candidates": lambda args, result: {"scrolls.splittings": len(result)},
    "scrolls.trigonal_candidates": lambda args, result: {"scrolls.splittings": len(result)},
    "catalog.verify_all": lambda args, result: {"catalog.checks": len(result)},
    "cli.dumps": lambda args, result: {"cli.dumps.bytes": len(result)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def adopt(self, parent: int, spans: list[list], counts: dict) -> None:
        """Append spans recorded in a child process under span `parent`."""
        base = len(self.spans)
        for name, start, end, p, _ in spans:
            self.spans.append([name, start, end, parent if p is None else base + p, self.op])
        self.counts.update(counts)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "cli.main":
                argv = (args[0] if args else kwargs.get("argv")) or sys.argv[1:]
                sub = argv[0] if argv and argv[0] in sys.modules["fano3.cli"].COMMANDS else "other"
                sid = self.begin(f"cli.main.{sub}")
            else:
                sid = self.begin(name)
            try:
                if counter is None:
                    return fn(*args, **kwargs)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if "g_range" in bound.arguments:  # may be a one-shot iterator
                    bound.arguments["g_range"] = list(bound.arguments["g_range"])
                result = fn(*bound.args, **bound.kwargs)
                self.counts.update(counter(bound.arguments, result))
                return result
            finally:
                self.end(sid)

        return traced

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"fano3.{layer}") for layer in TRACED}
        modules = [m for n, m in list(sys.modules.items()) if n == "fano3" or n.startswith("fano3.")]
        for layer, names in TRACED.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def self_times(spans: list[list]) -> list[float]:
    """Seconds of each span minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]
