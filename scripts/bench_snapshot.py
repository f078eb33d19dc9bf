#!/usr/bin/env python3
"""Write BENCH_<pr>.json: one snapshot of the benchmark harness on this checkout.

Usage (from any directory):

    python3 scripts/bench_snapshot.py --pr 33

Compiles src/ and perfbench/ to bytecode first: under
PYTHONDONTWRITEBYTECODE=1 an uncompiled tree recompiles every module it
imports in every fresh process, the harness's own modules as well as the
package's.  Then runs
perfbench/run.py --workload all with --trace 0 and then with --trace 1, both
with seed 1 and a fixed --seconds, and writes BENCH_<pr>.json at the
repository root.  The file holds each run's command line, the JSON result
it printed last, the host fields of its `info:` lines, a `notes` field
with the harness's known flaws, and `src_status`: the `git status
--porcelain -- src` lines of the measured tree, so a snapshot of an edited
tree says so ([] for a clean tree, null where git cannot say).  Exits 1
with one stderr line if a run fails to finish, and 3 if a run finished with
a job that failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: A run stops once another pass would end past --seconds.  A cli-session
#: pass takes about 5 s on a 2-core host, so 25 s gives it three or more.
SECONDS = 25
COMMANDS = tuple(
    ["python3", "perfbench/run.py", "--workload", "all", "--seed", "1",
     "--seconds", str(SECONDS), "--trace", trace]
    for trace in ("0", "1")
)
NOTES = (
    "Known flaws of the harness that wrote this file. peak_rss_mb cannot read "
    "below about 21 MB: Runner.spawn takes ru_maxrss from os.wait4, which keeps "
    "the runner's own high-water mark from before exec. {zeros} of {calls} "
    "per-layer *.calls counters read 0 under --trace 1 ({zero_names}). Some of "
    "those layers are off the workload's path; the rest are on it, but the "
    "engine reaches them through private packed helpers the shim does not wrap. The "
    "f2algebra.masks_for_term_sets layer also counts the reduced-psi work of "
    "the primitive rows that stream through it."
)


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The last JSON line a harness run printed, and its info fields per workload."""
    lines = stdout.splitlines()
    if not lines:
        raise ValueError("the harness printed nothing")
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        workload, sep, rest = line.partition(" info: ")
        if sep:
            fields = dict(kv.split("=", 1) for kv in rest.split())
            info[workload.strip()] = {
                "sha": fields["sha"],
                "python": fields["python"],
                "nproc": int(fields["nproc"]),
                "repo.src_lines": int(fields["repo.src_lines"]),
                "host.probe_s": [float(v) for v in fields["host.probe_s"].split("/")],
            }
    return result, info


def snapshot(pr: int, outputs: list[str]) -> dict:
    """The file's content from each command's stdout, in COMMANDS order."""
    runs = []
    for command, stdout in zip(COMMANDS, outputs, strict=True):
        result, info = parse_run(stdout)
        runs.append({"command": " ".join(command), "result": result, "info": info})
    metrics = runs[-1]["result"]["metrics"]
    calls = sorted(name for name in metrics if name.endswith(".calls"))
    zeros = [name for name in calls if metrics[name]["value"] == 0]
    notes = NOTES.format(zeros=len(zeros), calls=len(calls), zero_names=", ".join(zeros))
    return {"pr": pr, "runs": runs, "notes": notes}


def src_status() -> list[str] | None:
    """The `git status --porcelain -- src` lines of this checkout, or None
    where git is missing or this is not a git checkout."""
    try:
        done = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.splitlines() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    args = ap.parse_args(argv)
    if args.pr < 1:
        ap.error(f"--pr must be >= 1, got {args.pr}")

    status = src_status()
    for tree in ("src", "perfbench"):
        compileall.compile_dir(ROOT / tree, quiet=1)
    outputs = []
    for command in COMMANDS:
        done = subprocess.run([sys.executable, *command[1:]], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"error: {' '.join(command)} exited {done.returncode}")
        outputs.append(done.stdout)
    try:
        content = snapshot(args.pr, outputs)
    except (ValueError, KeyError) as exc:
        raise SystemExit(f"error: unreadable harness output: {exc}") from None
    content["src_status"] = status
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(content, indent=2) + "\n", encoding="utf-8")
    print(path.name)
    return 0 if all(run["result"]["correct"] for run in content["runs"]) else 3


if __name__ == "__main__":
    sys.exit(main())
