"""One traced CLI process: `python3 bench/child.py ARGV...` behaves like
`python -m fano3.cli ARGV...` and appends its spans to stderr as one
"BENCH-SPANS {json}" line for the parent benchmark to adopt."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fano3.cli  # noqa: E402
import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
try:
    code = fano3.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
sys.stdout.flush()
print("BENCH-SPANS " + json.dumps({"spans": tracer.spans, "counts": tracer.counts}), file=sys.stderr)
sys.exit(code)
