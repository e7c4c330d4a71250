#!/usr/bin/env python3
"""Flip each comparison operator of one fano3 module and report the mutants
that no test kills.

    python scripts/mutation_probe.py MODULE [TEST ...]

MODULE is a name under src/fano3 (`sarkisov`); the tests default to
tests/test_MODULE.py.  Each operator in turn becomes its neighbour (< and <=,
> and >=, == and !=) in a copy of the tree in a temporary directory, and the
tests run there with `pytest -x`.  A comparison whose flip no input can tell
from the original carries the marker `# equivalent-mutant: <reason>` in the
comment on its line or in the comment lines just above it; a surviving
mutant so marked is reported with its reason, any other survivor makes the
exit code 1, and a marked mutant that the tests kill is reported as a stale
marker.  Each mutant costs one pytest run, so this is not part of the
tier-1 suite.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
MARKER = "equivalent-mutant:"


def marked_reason(lines: list, lineno: int):
    """The text after MARKER in the comment of line lineno, 1-based, and the
    comment lines just above it; None when there is no marker."""
    start = lineno - 1
    while start and lines[start - 1].lstrip().startswith("#"):
        start -= 1
    block = [line.lstrip().lstrip("#").strip() for line in lines[start:lineno - 1]]
    text = " ".join([*block, lines[lineno - 1].partition("  # ")[2]])
    return text.split(MARKER, 1)[1].strip() if MARKER in text else None


def mutants(source: bytes):
    """Yield (line, mutated comparison, mutated source) for every comparison operator."""
    tree = ast.parse(source)
    starts = [0, *(i + 1 for i, c in enumerate(source) if c == ord("\n"))]
    compares = sorted((n for n in ast.walk(tree) if isinstance(n, ast.Compare)), key=lambda n: (n.lineno, n.col_offset))
    for node in compares:
        for k, op in enumerate(node.ops):
            if type(op) not in FLIPS:
                continue  # is, in
            left, right = ([node.left, *node.comparators][k], node.comparators[k])
            lo = starts[left.end_lineno - 1] + left.end_col_offset  # ast offsets count UTF-8 bytes
            hi = starts[right.lineno - 1] + right.col_offset
            at = source.index(SYMBOLS[type(op)].encode(), lo, hi)
            new = FLIPS[type(op)]
            ops = [*node.ops[:k], new(), *node.ops[k + 1:]]
            text = ast.unparse(ast.Compare(node.left, ops, node.comparators))
            mutated = source[:at] + SYMBOLS[new].encode() + source[at + len(SYMBOLS[type(op)]):]
            yield node.lineno, text, mutated


def main(module: str, *tests: str) -> int:
    tests = tests or (f"tests/test_{module}.py",)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", "out"))
        path = copy / "src" / "fano3" / f"{module}.py"
        source = path.read_bytes()
        # no bytecode: a flip between == and != keeps the file size, so a
        # cached .pyc of the same second could stand in for the mutant
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

        def passes() -> bool:
            argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
            try:
                return subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, timeout=600).returncode == 0
            except subprocess.TimeoutExpired:
                return False  # a mutant that loops is killed

        if not passes():
            sys.exit(f"the tests fail on the unmutated tree: {' '.join(tests)}")
        lines = source.decode().splitlines()
        found = survived = 0
        for line, text, mutated in mutants(source):
            found += 1
            path.write_bytes(mutated)
            reason = marked_reason(lines, line)
            if passes():
                survived += reason is None
                print(f"{module}.py:{line} {text}  " + (f"equivalent: {reason}" if reason else "SURVIVED"))
            elif reason:
                print(f"{module}.py:{line} {text}  killed, but marked equivalent: a stale marker")
        path.write_bytes(source)
    print(f"{module}: {found} mutants, {survived} unmarked survivors")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
