#!/usr/bin/env python3
"""Run the desk-scale certification suites and print a timing table."""

from __future__ import annotations

import argparse
import sys
import time

from loophomology.certify import SUITES, check_scope, run_suites
from loophomology.cli import int_at_least, run


def certify(args: argparse.Namespace) -> int:
    failures = 0
    for name in check_scope(args.suite, args.max_degree):
        start = time.monotonic()
        (result,) = run_suites([name], max_degree=args.max_degree)
        elapsed = time.monotonic() - start
        mark = "pass" if result.passed else "FAIL"
        print(f"{name:<20} {mark}  {elapsed:7.2f}s  {result.details}")
        failures += not result.passed
    return 3 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--suite", action="append", choices=sorted(SUITES),
                    help="run one suite (repeatable, default all)")
    ap.add_argument("--max-degree", type=int_at_least(1), default=None,
                    help="override each suite's default degree cap")
    return run(certify, ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
