"""Command-line front end.

Subcommands:

  basis                print the monomial basis of one degree of one space
  screen               spherical-candidate screen for one degree
  bounds               printed bound next to twice the top generator dimension
  immersion-threshold  smallest codimension threshold past the degree bound
  stable-range         the stable-range inequality as a yes/no query
  verify               run the certification suites

Exit codes: 0 success, 2 malformed input, 3 counterexample or failed suite,
4 a limit reached: the degree budget, a monomial past its packed field
(PackedFieldOverflow), or memory (MemoryError).  Output is deterministic: the same invocation
prints the same bytes.

Spaces are selected with --space: the built-in ids "qs0" and "qsn" (the
latter takes --n), or a path to a UTF-8 JSON file with fields  model
("qs0" | "qsn" | "sigma2"), n, cells, sq_action.  Unknown fields are
rejected rather than ignored.
"""

from __future__ import annotations

import argparse
import os
import sys

from .certify import SUITES, ensure_degree_allowed, run_suites
from .errors import (
    CounterexampleFound,
    DegreeBudgetExceeded,
    LoopHomologyError,
    PackedFieldOverflow,
)
from .f2algebra import basis_lines
from .screener import bounds_report, immersion_threshold_report, screen_degree, stable_range_check
from .spaces import load_space


def int_at_least(low: int):
    """argparse type: an integer >= low, so bad values stop before any work."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _print_json(payload: dict) -> None:
    import json  # here, not at import: most queries print no JSON
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_basis(args: argparse.Namespace) -> int:
    space = load_space(args.space, args.n)
    ensure_degree_allowed(args.degree)
    lines = basis_lines(space, args.degree, args.charge)
    if args.json:
        _print_json({"basis": lines})
    else:
        sys.stdout.write("".join(f"{line}\n" for line in lines))
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    space = load_space(args.space, args.n)
    ensure_degree_allowed(args.degree)
    report = screen_degree(space, args.degree, args.loop)
    if args.json:
        _print_json(report.to_dict())
        return 0
    print(f"space {report.space.label}")
    print(f"degree {report.degree}")
    print(f"loop {report.loop if report.loop is not None else 'unrestricted'}")
    print(f"verdict {report.verdict}")
    for c in report.candidates:
        print(f"candidate {c}")
    for s in report.squares:
        print(f"square {s}")
    maxima = report.bounds["max_generator_dim"]
    for l in sorted(maxima, key=int):
        print(f"bound l={l} max_generator_dim {maxima[l]}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    # the bounds grow as 2^l, so the level is held to the degree budget
    ensure_degree_allowed(args.l)
    rep = bounds_report(args.l, args.k)
    flag = "true" if rep.discrepancy else "false"
    print(f"printed {rep.printed}, oracle {rep.oracle}, discrepancy={flag}")
    return 0


def _cmd_immersion_threshold(args: argparse.Namespace) -> int:
    ensure_degree_allowed(args.d)
    rep = immersion_threshold_report(args.d, args.k)
    flag = "true" if rep.discrepancy else "false"
    print(f"n_min {rep.n_min}")
    print(f"printed {rep.n_min}, oracle {rep.oracle_n_min}, discrepancy={flag}")
    return 0


def _cmd_stable_range(args: argparse.Namespace) -> int:
    print("true" if stable_range_check(args.d, args.n, args.l) else "false")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = args.suite or None
    results = run_suites(names, max_degree=args.max_degree)
    failed = False
    for r in results:
        if r.passed:
            print(f"{r.name} pass")
        else:
            failed = True
            print(f"{r.name} fail: {r.details}")
    return 3 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loophomology",
        description="mod-2 homology of iterated loop spaces: bases, screens, bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    basis = sub.add_parser("basis", help="monomial basis of one degree")
    basis.add_argument("--space", required=True, help="qs0, qsn, or a JSON file path")
    basis.add_argument("--n", type=int, help="sphere dimension for --space qsn")
    basis.add_argument("--degree", type=int_at_least(0), required=True)
    basis.add_argument("--charge", type=int, help="component selector (qs0 only)")
    basis.add_argument("--json", action="store_true")
    basis.set_defaults(fn=_cmd_basis)

    screen = sub.add_parser("screen", help="spherical-candidate screen")
    screen.add_argument("--space", required=True, help="qs0, qsn, or a JSON file path")
    screen.add_argument("--n", type=int, help="sphere dimension for --space qsn")
    screen.add_argument("--degree", type=int_at_least(1), required=True)
    screen.add_argument("--loop", type=int_at_least(1), help="loop filtration level")
    screen.add_argument("--json", action="store_true")
    screen.set_defaults(fn=_cmd_screen)

    bounds = sub.add_parser("bounds", help="printed bound vs twice the top generator dimension")
    bounds.add_argument("--l", type=int, required=True)
    bounds.add_argument("--k", type=int, required=True,
                        help="the bottom cell of Sigma^2 X is k + 2; -1 is X = S^-1")
    bounds.set_defaults(fn=_cmd_bounds)

    thr = sub.add_parser("immersion-threshold", help="smallest n past the bound")
    thr.add_argument("--d", type=int, required=True)
    thr.add_argument("--k", type=int, required=True)
    thr.set_defaults(fn=_cmd_immersion_threshold)

    srange = sub.add_parser("stable-range", help="d + l < 2(n + l - 1) query")
    srange.add_argument("--d", type=int_at_least(0), required=True)
    srange.add_argument("--n", type=int_at_least(1), required=True)
    srange.add_argument("--l", type=int_at_least(1), required=True)
    srange.set_defaults(fn=_cmd_stable_range)

    verify = sub.add_parser("verify", help="run certification suites")
    verify.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="run one suite (repeatable); default is all of them",
    )
    verify.add_argument("--max-degree", type=int_at_least(1), help="override the sweep cap")
    verify.set_defaults(fn=_cmd_verify)
    return parser


def run(fn, *args) -> int:
    """Call fn(*args); map each error to its exit code and one stderr line."""
    try:
        code = fn(*args)
        sys.stdout.flush()  # so a reader that has gone is met here, not at exit
        return code
    except BrokenPipeError:
        # the rest of the output goes to devnull, so the flush at exit cannot
        # raise again; a reader that stops early is not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (DegreeBudgetExceeded, PackedFieldOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4
    except CounterexampleFound as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return 3
    except (LoopHomologyError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return run(args.fn, args)


if __name__ == "__main__":
    raise SystemExit(main())
