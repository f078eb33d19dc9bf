"""Record the stdout digest of every query the cli-session workload can issue.

Usage (from the repository root): python3 perfbench/record_digests.py

Runs each query of `workloads.query_universe()` twice, under two hash seeds,
and writes `expected_digests.json`.  It refuses to write when a query exits
nonzero or prints different bytes under the two hash seeds, because the
benchmark's workloads must not fail and their output must not depend on the
hash seed.  Re-record only at a commit whose CLI output is known to be right.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from run import HERE, Runner
from workloads import DIGESTS_FILE, Job, query_universe


def main() -> int:
    digests: dict[str, str] = {}
    problems = []
    with tempfile.TemporaryDirectory(dir=HERE, prefix="tmp-") as workdir:
        runners = [Runner(seed, Path(workdir), budget_s=3600.0) for seed in (0, 1)]
        for queries in query_universe().values():
            for query in queries:
                job = Job(query)
                outputs = set()
                for runner in runners:
                    _, _, code, out, err, _ = runner.spawn(runner.command(job))
                    if code != 0:
                        problems.append(f"{job.key}: exit {code}: {err.decode()[-300:]}")
                    outputs.add(hashlib.sha256(out).hexdigest())
                if len(outputs) != 1:
                    problems.append(f"{job.key}: output depends on the hash seed")
                digests[job.key] = outputs.pop()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    DIGESTS_FILE.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {DIGESTS_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
