#!/usr/bin/env python3
"""Sweep the spherical-class screen over a degree range.

Prints one line per degree: the verdict, surviving candidates, and listed
squares.  Use --json-lines for machine consumption.
"""

from __future__ import annotations

import argparse
import json
import sys

from loophomology.certify import ensure_degree_allowed
from loophomology.cli import int_at_least, run
from loophomology.screener import screen_degree
from loophomology.spaces import load_space


def sweep(args: argparse.Namespace) -> int:
    space = load_space(args.space, args.n)
    ensure_degree_allowed(args.max_degree)
    for degree in range(1, args.max_degree + 1):
        report = screen_degree(space, degree, loop=args.loop)
        if args.json_lines:
            print(json.dumps(report.to_dict(), sort_keys=True))
            continue
        cands = ", ".join(str(c) for c in report.candidates) or "-"
        squares = ", ".join(str(s) for s in report.squares) or "-"
        print(f"d={degree:<3} {report.verdict:<28} candidates: {cands}   squares: {squares}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--space", required=True, help="qs0, qsn, or a description file")
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--max-degree", type=int_at_least(1), default=12)
    ap.add_argument("--loop", type=int_at_least(1), default=None, help="loop filtration cut")
    ap.add_argument("--json-lines", action="store_true")
    return run(sweep, ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
