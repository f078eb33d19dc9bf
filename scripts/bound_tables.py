#!/usr/bin/env python3
"""Tabulate generator-dimension maxima, printed bounds, and thresholds.

The first table sets the closed-form maximum next to exhaustive search; the
others set each printed bound next to its oracle, twice the closed-form
maximum.  Rows where the two disagree are marked so neither number is
silently preferred.
"""

from __future__ import annotations

import argparse
import sys

from loophomology.certify import ensure_degree_allowed
from loophomology.cli import int_at_least, run
from loophomology.screener import (
    bounds_report,
    immersion_threshold_report,
    max_generator_dim,
    max_generator_dim_exhaustive,
)


def tabulate(args: argparse.Namespace) -> int:
    # the exhaustive oracle is exponential in the level, so --max-l is held to
    # the degree budget, as in the dimension-bounds suite
    ensure_degree_allowed(args.max_l)
    print("# max generator dimension (closed form vs exhaustive), base dim 1")
    for l in range(1, args.max_l + 1):
        closed = max_generator_dim(l, 1)
        brute = max_generator_dim_exhaustive(l, 1)
        flag = "" if closed == brute else "  <-- MISMATCH"
        print(f"l={l:<3} closed={closed:<8} exhaustive={brute}{flag}")

    print("\n# doubled bounds: printed form vs oracle")
    for l in range(2, args.max_l + 1):
        for k in range(-1, args.max_k + 1):
            r = bounds_report(l, k)
            mark = " discrepancy" if r.discrepancy else ""
            print(f"l={l} k={k:<3} printed={r.printed:<8} oracle={r.oracle}{mark}")

    print("\n# immersion thresholds n_min(d, k)")
    for d in range(1, args.max_l + 1):
        row = (immersion_threshold_report(d, k) for k in range(1, args.max_k + 1))
        print(f"d={d:<3} " + "  ".join(f"k={t.k}:{t.n_min}({t.oracle_n_min})" for t in row))
    print("\nparenthesized values use twice the closed-form max_generator_dim"
          " in place of the printed form")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-l", type=int_at_least(1), default=8)
    ap.add_argument("--max-k", type=int_at_least(1), default=4)
    return run(tabulate, ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
