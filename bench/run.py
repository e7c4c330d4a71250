#!/usr/bin/env python3
"""fano3 benchmark: one closed-loop client driving the public API.

    python3 bench/run.py --workload {reproduce,sweep,cli} --seed N --seconds S --trace {0,1}
    python3 bench/run.py reference        # rewrite bench/reference.json
    python3 bench/run.py compare OLD NEW  # "metric: a -> b" from two records

Run from the root of a checkout; fano3 is imported from its src/.  The last
stdout line is the JSON result; the full record (machine, seed, sample
counts) goes to bench/out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

# box of the brute-force link search the reference digests come from
REFERENCE_BOX = 1000
SETUP_REPEATS = 15
HASH_SEED = "0"
PROBE_REPEATS = 5
# Every time is reported at a reference speed: scaled by CAL_REF / c, where c
# is the mean time of a fixed Fraction-arithmetic loop (CAL_STEPS steps)
# measured just before and just after it in this process, at most CAL_EVERY
# seconds of operations apart.  This cancels the CPU-speed drift of a shared
# virtual machine; raw times stay in the record.
CAL_STEPS = 1500
CAL_REF = 0.0175
CAL_EVERY = 0.25
LAYER_MODULES = ("fano3", "fano3.exactcore", "fano3.riemannroch", "fano3.blowup", "fano3.sarkisov",
                 "fano3.catalog", "fano3.scrolls", "fano3.wps", "fano3.cli")
SUBCOMMANDS = ("rr", "blowup", "scroll", "wps", "link", "rho2", "catalog")
SPAN_TIMES = (
    "sarkisov.enumerate_links", "sarkisov.filter_links", "sarkisov.rho2_primitive_enumerate",
    "scrolls.trigonal_candidates", "scrolls.hyperelliptic_candidates",
    "catalog.load", "catalog.verify_all", "catalog.link_facts",
    *(f"cli.main.{s}" for s in SUBCOMMANDS), "cli.dumps",
    "riemannroch.hilbert_polynomial", "blowup.blowup_curve", "blowup.blowup_point",
    "exactcore.eval_form", "exactcore.change_basis", "wps.ci_fano_invariants",
)
SPAN_COUNTS = {
    "sarkisov.cells": "count", "sarkisov.trials": "count", "sarkisov.candidates": "count",
    "sarkisov.rho2.grid_points": "count", "scrolls.splittings": "count", "catalog.checks": "count",
    "cli.dumps.bytes": "bytes",
}
# the fresh-interpreter set-up: import the CLI, cold catalog load, link facts
SETUP_PROBE = """
import json, time
t0 = time.perf_counter()
import fano3.cli
t1 = time.perf_counter()
from fano3 import catalog
catalog.load()
t2 = time.perf_counter()
catalog.link_facts()
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""
IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_fano3():
    if not (SRC / "fano3" / "__init__.py").is_file():
        fail(f"no fano3 sources under {SRC}; run from the root of a fano3 checkout")
    sys.path.insert(0, str(SRC))
    import fano3

    if Path(fano3.__file__).resolve().parent != SRC / "fano3":
        fail(f"imported fano3 from {fano3.__file__}, not from {SRC}")


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method; the value itself for one sample)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- set-up probes -------------------------------------------------------------

def _python(args: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"{' '.join(args[:2])} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return proc


def calibrate() -> float:
    """Seconds for a fixed loop of Fraction arithmetic, the kind of work fano3 does."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, CAL_STEPS):
        acc += Fraction(i, i + 1) * Fraction(3, 7) - Fraction(1, 2)
    return time.perf_counter() - t0


def bracketed(n: int, measure) -> list[tuple]:
    """n results of measure(), each with the factor that brings its times to
    the reference speed, from the calibrations just before and after it."""
    out = []
    cal = calibrate()
    for _ in range(n):
        value = measure()
        nxt = calibrate()
        out.append((value, 2 * CAL_REF / (cal + nxt)))
        cal = nxt
    return out


def measure_setup(env: dict) -> list[list[float]]:
    """(import, load, link_facts) seconds at the reference speed, each from a
    fresh interpreter; a first run, which may write bytecode caches, is discarded."""
    _python(["-c", SETUP_PROBE], env)
    runs = bracketed(SETUP_REPEATS, lambda: json.loads(_python(["-c", SETUP_PROBE], env).stdout))
    return [[t * scale for t in probe] for probe, scale in runs]


def _wall(args: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    _python(args, env)
    return time.perf_counter() - t0


def _import_selfs(env: dict) -> dict[str, int]:
    seen = dict.fromkeys(LAYER_MODULES, 0)
    for m in IMPORTTIME.finditer(_python(["-X", "importtime", "-c", "import fano3.cli"], env).stderr):
        if m.group(3) in seen:
            seen[m.group(3)] = int(m.group(1))
    return seen


def measure_processes(env: dict) -> dict[str, float]:
    """Bare interpreter start and `-X importtime` self time per fano3 module, in ms."""
    walls = bracketed(PROBE_REPEATS, lambda: _wall(["-c", "pass"], env))
    out = {"proc.interpreter.ms": 1e3 * statistics.median(t * scale for t, scale in walls)}
    selfs = bracketed(PROBE_REPEATS, lambda: _import_selfs(env))
    for name in LAYER_MODULES:
        out[f"import.{name}.ms"] = statistics.median(us[name] * scale for us, scale in selfs) / 1e3
    return out


# --- passes ---------------------------------------------------------------------

class PassResult:
    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.times: list[float] = []  # raw seconds per operation
        self.scales: list[float] = []  # per operation, to the reference speed
        self.cells: list[int] = []
        self.failed = 0
        self.spans: dict[str, float] = collections.defaultdict(float)  # self seconds, when traced
        self.counts: dict[str, float] = {}

    @property
    def scaled(self) -> list[float]:
        return [t * s for t, s in zip(self.times, self.scales)]

    @property
    def total(self) -> float:
        """Time in the program at the reference speed."""
        return sum(self.scaled)


def run_pass(ops, tracer=None) -> PassResult:
    """Run each operation once, timed; check the outputs afterwards."""
    result = PassResult(tracer is not None)
    outputs = []
    if tracer is not None:
        tracer.install()
    try:
        cal, since_cal = calibrate(), 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
                sid = tracer.begin(f"op.{op.kind}")
            t0 = time.perf_counter()
            try:
                got = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                got = exc
            result.times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end(sid)
                if op.kind == "proc" and not isinstance(got, Exception):
                    got = _adopt_child_spans(tracer, sid, got)
            result.cells.append(op.cells)
            outputs.append(got)
            since_cal += result.times[-1]
            if since_cal >= CAL_EVERY or i == len(ops) - 1:
                nxt = calibrate()
                result.scales += [2 * CAL_REF / (cal + nxt)] * (i + 1 - len(result.scales))
                cal, since_cal = nxt, 0.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
            result.spans[span[0]] += own * result.scales[span[4]]
        result.counts = tracer.counts
    for op, got in zip(ops, outputs):
        try:
            ok = not isinstance(got, Exception) and op.check(got)
        except Exception:
            ok = False
        result.failed += not ok
    return result


CHILD_MARK = "BENCH-SPANS "


def _adopt_child_spans(tracer, sid, got):
    code, stdout, stderr = got
    head, _, tail = stderr.rpartition(CHILD_MARK)
    if tail:
        record = json.loads(tail)
        tracer.adopt(sid, record["spans"], record["counts"])
        stderr = head
    return code, stdout, stderr


def run_workload(workload: str, seed: int, seconds: float, traced: bool, ctx) -> dict:
    """Passes until `seconds` have elapsed.  A traced run pairs each untraced
    pass with a traced one on the same inputs."""
    child = [sys.executable, str(HERE / "child.py")]
    run = {"attempted": 0, "failed": 0, "plain": [], "traced": []}

    def one(pass_index: int, tracer=None) -> PassResult:
        inputs = workloads.make_inputs(workload, seed, pass_index)
        ops = workloads.build_ops(workload, inputs, ctx, child if tracer else None)
        res = run_pass(ops, tracer)
        run["attempted"] += len(ops)
        run["failed"] += res.failed
        return res

    one(0)  # warms caches and lazy set-up; checked but not timed
    t_end = time.perf_counter() + seconds
    for pass_index in itertools.count(1):
        tracers = [None]
        if traced:
            # alternate which of the pair goes first, so neither always runs warmer
            tracers = [None, tracing.Tracer()][:: 1 if pass_index % 2 else -1]
        for tracer in tracers:
            res = one(pass_index, tracer)
            run["traced" if res.traced else "plain"].append(res)
        if time.perf_counter() >= t_end:
            return run


# --- metrics ------------------------------------------------------------------

def end_to_end(run: dict, setup: list[list[float]], workload: str) -> tuple[dict, dict]:
    passes = run["plain"]
    times = [t for p in passes for t in p.scaled]
    cell_ops = [(t, c) for p in passes for t, c in zip(p.scaled, p.cells) if c]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(sum(r) for r in setup), "s"),
        "run_s": (statistics.median(p.total for p in passes), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (1e3 * quantile(times, 50), "ms"),
        "op_p90_ms": (1e3 * quantile(times, 90), "ms"),
        "cells_per_s": (sum(c for _, c in cell_ops) / sum(t for t, _ in cell_ops), "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    samples = {"passes": len(passes), "op_p50_ms": len(times), "op_p90_ms": len(times),
               "setup_s": len(setup), "cells": sum(c for _, c in cell_ops),
               "setup": setup, "raw_op_s": [p.times for p in passes],
               "op_scale": [p.scales for p in passes]}
    return metrics, samples


def per_layer(run: dict, setup: list[list[float]], probes: dict, workload: str) -> dict:
    n = len(run["traced"])
    spans, counts = collections.Counter(), collections.Counter()
    for p in run["traced"]:
        spans.update(p.spans)
        counts.update(p.counts)
    metrics = {f"{name}.ms": (1e3 * spans[name] / n, "ms") for name in SPAN_TIMES}
    for name, unit in SPAN_COUNTS.items():
        metrics[name] = (counts.get(name, 0) / n, unit)
    candidates = counts.get("sarkisov.candidates", 0)
    metrics["sarkisov.confirmed_ratio"] = (
        counts.get("sarkisov.confirmed", 0) / candidates if candidates else 0.0, "ratio")
    proc_walls = [t for p in run["plain"] for t in p.scaled] if workload == "cli" else []
    metrics["proc.wall.ms"] = (1e3 * statistics.median(proc_walls) if proc_walls else 0.0, "ms")
    metrics["cli.import.ms"] = (1e3 * statistics.median(r[0] for r in setup), "ms")
    metrics["setup.catalog_load.ms"] = (1e3 * statistics.median(r[1] for r in setup), "ms")
    metrics["setup.link_facts.ms"] = (1e3 * statistics.median(r[2] for r in setup), "ms")
    for name, value in probes.items():
        metrics[name] = (value, "ms")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.total for p in run["traced"]) / statistics.median(p.total for p in run["plain"]),
        "ratio")
    metrics["fail_ratio"] = (run["failed"] / run["attempted"], "ratio")
    metrics["machine.nproc"] = (os.cpu_count(), "count")
    metrics["src.lines"] = (src_lines(), "count")
    return metrics


def benchmark(args) -> int:
    import_fano3()

    try:
        reference = json.loads(REFERENCE.read_text())
        ctx = workloads.Context(ROOT, reference)
    except OSError as exc:
        fail(f"missing benchmark input: {exc}")
    setup = measure_setup(ctx.env)
    probes = measure_processes(ctx.env) if args.trace else {}
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ctx)
    e2e, samples = end_to_end(run, setup, args.workload)
    metrics = per_layer(run, setup, probes, args.workload) if args.trace else e2e
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "src.lines": src_lines(), "fail_ratio": run["failed"] / run["attempted"],
        "samples": samples, "result": result,
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(f"machine: {json.dumps(record['machine'])} seed={args.seed} src.lines={record['src.lines']}")
    counts = {k: v for k, v in samples.items() if isinstance(v, int)}
    print(f"samples: {json.dumps(counts)} fail_ratio={record['fail_ratio']} record={out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


# --- other subcommands -----------------------------------------------------------

def write_reference() -> int:
    import_fano3()

    t0 = time.perf_counter()
    ref = workloads.make_reference(REFERENCE_BOX, log=lambda m: print(m, file=sys.stderr))
    REFERENCE.write_text(json.dumps(ref, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)} in {time.perf_counter() - t0:.1f} s")
    return 0


def compare(old_path: str, new_path: str) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    print(f"{old['workload']} seed {old['seed']} -> {new['workload']} seed {new['seed']}")
    om, nm = old["result"]["metrics"], new["result"]["metrics"]
    for name in sorted(om.keys() & nm.keys()):
        a, b, unit = om[name]["value"], nm[name]["value"], nm[name]["unit"]
        change = f" ({100 * (b - a) / a:+.1f}%)" if a else ""
        print(f"{name}: {a:.6g} -> {b:.6g} {unit}{change}")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["reference"]:
        return write_reference()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare OLD.json NEW.json")
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED or "PYTHONDONTWRITEBYTECODE" in os.environ:
        # String hashing is randomised per process, which moves dict-heavy
        # operations by about 10% from one run to the next, and whether
        # imports compile from source depends on the caller.  Restart with a
        # set hash seed and bytecode caching on; the CLI children inherit both.
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
