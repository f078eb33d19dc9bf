"""Run one `loophomology` command line with the layer trace installed.

Usage: python3 perfbench/shim.py <loophomology arguments...>

The command's stdout and exit code are those of the plain CLI.  After the
command, one line starting with TRACE_MARKER goes to stderr, holding the
trace as JSON: per-function calls, self times and work counters, the
operation caches' hits and misses, and the time the package import took.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_MARKER = "#perfbench-trace "


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import loophomology.cli

    import_s = time.perf_counter() - start

    import layertrace

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        return loophomology.cli.main(argv)
    finally:
        sys.stdout.flush()
        report = tracer.report()
        report["import_s"] = import_s
        print(TRACE_MARKER + json.dumps(report), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
