#!/usr/bin/env python3
"""Reproduce the numerical classification tables from scratch and print them.

Runs the two-ray link enumeration for all three centers, the Picard-rank-2
primitive systems, the hyperelliptic/trigonal scroll case lists, and the
catalog verifier, each as a `fano3` command whose argv heads its table.
Everything is exact arithmetic; total runtime is seconds.  Exits nonzero if
any command does.
"""

import sys

from fano3.cli import main

COMMANDS = [
    *(["link", "--center", c, "--genus-range", "7..40", "--show-excluded"]
      for c in ("line", "conic", "point")),
    ["rho2", "enumerate-primitive"],
    *(["scroll", "--hyperelliptic", str(g)] for g in range(4, 8)),
    *(["scroll", "--trigonal", str(g)] for g in range(6, 11)),
    ["catalog", "verify", "--all"],
]


if __name__ == "__main__":
    codes = []
    for argv in COMMANDS:
        print("== fano3", *argv, flush=True)
        codes.append(main(argv))
    sys.exit(max(codes))
