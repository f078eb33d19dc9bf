"""Benchmark of loophomology: certification suites and a CLI session, end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify-hopf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each job is a fresh `loophomology` process run from `src/`, one at a time
(a closed loop with one client).  A run first times the package's set-up in
fresh processes, then runs passes over the workload's job list until at least
MIN_PASSES passes are done and another pass would end after `--seconds`.
Every job's output is checked: a job fails on a nonzero exit, a failed suite,
or stdout that differs from the recorded digest.

With `--trace 0` the run reports the end-to-end metrics that BENCHMARK.json
lists; with `--trace 1` it runs one pass untraced and one pass through
`shim.py`, which installs the layer trace, and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give each metric with its unit and
sample count, the failed jobs, and the host: git SHA, Python version, CPU
count, `src/` line count and a host-speed probe.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layertrace
from shim import TRACE_MARKER
from workloads import (
    DIGESTS_FILE,
    WORKLOADS,
    Job,
    load_digests,
    workload_pass,
    write_descriptions,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: What a console-script `loophomology` runs.
LAUNCH = "import sys; from loophomology.cli import main; sys.exit(main())"
#: Set-up: import the CLI and construct the built-in spaces, then print the
#: monotonic clock, which the parent compares with the moment it spawned.
SETUP_PROBE = (
    "import time, loophomology.cli; "
    "from loophomology.spaces import qs0_space, qsn_space, two_cell_space; "
    "qs0_space(), qsn_space(1), two_cell_space(); "
    "print(repr(time.monotonic()))"
)
SETUP_PROBES_PER_BLOCK = 4
MIN_PASSES = 2
#: A run stops starting jobs after this many seconds, and kills a job that
#: would run past it, so that it ends within 180 s.
RUN_BUDGET_S = 165.0


class RunOutOfTime(Exception):
    pass


@dataclass
class Outcome:
    job: Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    failure: str  # empty when the job passed
    trace: dict | None = None


class Runner:
    """Spawns and checks jobs for one run; every job runs to its end before the next."""

    def __init__(self, seed: int, workdir: Path, budget_s: float = RUN_BUDGET_S) -> None:
        self.seed = seed
        self.deadline = time.monotonic() + budget_s
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % 2**32))
        # An installed package imports from cached bytecode, and the degree
        # budget must stay at its default for the workloads to be the same.
        for name in ("PYTHONDONTWRITEBYTECODE", "LOOPHOMOLOGY_MAX_DEGREE"):
            self.env.pop(name, None)
        self.files = write_descriptions(workdir)
        self.digests = load_digests() if DIGESTS_FILE.exists() else {}

    def spawn(self, argv: list[str]):
        """Run argv to completion; return (start, end, exit code, stdout, stderr, rusage)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunOutOfTime
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        errors: list[bytes] = []
        reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            reader.join()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            proc.stderr.close()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return start, end, proc.returncode, out, errors[0] if errors else b"", usage

    def setup_probe(self) -> float:
        start, _, code, out, err, _ = self.spawn([sys.executable, "-c", SETUP_PROBE])
        if code != 0:
            raise RuntimeError(f"set-up probe failed with exit {code}: {err.decode()[-500:]}")
        return float(out) - start

    def command(self, job: Job, traced: bool = False) -> list[str]:
        """The job's process: the CLI as a console script runs it, or through the shim."""
        entry = [str(HERE / "shim.py")] if traced else ["-c", LAUNCH]
        return [sys.executable, *entry, *(self.files.get(a, a) for a in job.args)]

    def run_job(self, job: Job, traced: bool = False) -> Outcome:
        start, end, code, out, err, usage = self.spawn(self.command(job, traced))
        trace = None
        if traced:
            lines = err.decode(errors="replace").splitlines()
            marked = [l for l in lines if l.startswith(TRACE_MARKER)]
            trace = json.loads(marked[-1][len(TRACE_MARKER):]) if marked else None
        failure = self.check(job, code, out)
        if traced and trace is None and not failure:
            failure = "no trace record"
        return Outcome(
            job,
            end - start,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
            failure,
            trace,
        )

    def check(self, job: Job, code: int, out: bytes) -> str:
        if code != 0:
            return f"exit code {code}"
        if job.suites:
            want = "".join(f"{suite} pass\n" for suite in job.suites)
            return "" if out.decode(errors="replace") == want else f"suite output {out[:200]!r}"
        expected = self.digests.get(job.key)
        if expected is None:
            return "no recorded digest"
        return "" if hashlib.sha256(out).hexdigest() == expected else "stdout digest mismatch"


def run_pass(runner: Runner, jobs: list[Job], outcomes: list[Outcome], traced: bool = False) -> float:
    """Run jobs in order, appending each outcome as it ends; return the pass's wall time."""
    start = time.monotonic()
    for job in jobs:
        outcomes.append(runner.run_job(job, traced))
    return time.monotonic() - start


def nearest_rank(values: list[float], percent: int) -> float:
    """The nearest-rank percentile: the smallest value with `percent`% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * percent // 100) - 1)]


def timed_run(runner: Runner, workload: str, seconds: float) -> tuple[dict, list[Outcome]]:
    """End-to-end metrics as {name: (value, samples)}, and every job outcome."""
    runner.setup_probe()  # untimed: the first import may compile bytecode
    setups: list[float] = []
    passes: list[float] = []
    outcomes: list[Outcome] = []
    start = time.monotonic()
    while True:
        try:
            # set-up is timed in a block before each pass and after the last,
            # so that its samples spread over the run as the passes do
            setups += [runner.setup_probe() for _ in range(SETUP_PROBES_PER_BLOCK)]
            if len(passes) >= MIN_PASSES and time.monotonic() - start + passes[-1] > seconds:
                break
            jobs = workload_pass(workload, runner.seed, len(passes))
            passes.append(run_pass(runner, jobs, outcomes))
        except RunOutOfTime:
            break
    if not passes:
        raise RunOutOfTime
    latencies = [o.wall_s * 1000 for o in outcomes]
    metrics = {
        "wall_s": (statistics.median(passes), len(passes)),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), len(outcomes)),
        "query_p50_ms": (statistics.median(latencies), len(latencies)),
        "query_p90_ms": (nearest_rank(latencies, 90), len(latencies)),
        "setup_s": (statistics.median(setups), len(setups)),
    }
    return metrics, outcomes


def traced_run(runner: Runner, workload: str) -> tuple[dict, list[Outcome], dict]:
    """Per-layer numbers from one traced pass, next to one untraced pass.

    Returns run-level metrics as {name: (value, samples)}, every job outcome,
    and the merged trace of the traced pass.
    """
    runner.setup_probe()
    jobs = workload_pass(workload, runner.seed, 0)
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    plain_wall = run_pass(runner, jobs, plain)
    traced_wall = run_pass(runner, jobs, traced, traced=True)
    total: dict = {}
    for outcome in traced:
        if outcome.trace is not None:
            layertrace.merge(total, outcome.trace)
    metrics = {
        "run.cpu_s": (sum(o.cpu_s for o in plain), len(plain)),
        "run.wall_s": (plain_wall, 1),
        "run.traced_wall_s": (traced_wall, 1),
        "run.trace_overhead_s": (traced_wall - plain_wall, 1),
        "run.import_s": (total.get("import_s", 0.0), len(traced)),
    }
    return metrics, plain + traced, total


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast this host runs Python now."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: spec[key] for key in ("end_to_end", "per_layer")}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its table; return the result object."""
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    probes = [host_probe()]
    with tempfile.TemporaryDirectory(dir=HERE, prefix="tmp-") as workdir:
        runner = Runner(seed, Path(workdir))
        if trace:
            measured, outcomes, total = traced_run(runner, workload)
        else:
            measured, outcomes = timed_run(runner, workload, seconds)
            total = {}
    probes.append(host_probe())
    lines = src_lines()
    measured["host.probe_s"] = (statistics.mean(probes), len(probes))
    measured["repo.src_lines"] = (lines, 1)
    failed = [o for o in outcomes if o.failure]

    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name in measured:
            value, samples = measured[name]
        else:
            value, samples = layertrace.metric(total, name), 1
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"{workload:20s} {name:44s} {value:14.6g} {spec['unit']:6s} n={samples}")
    for outcome in failed:
        print(f"{workload:20s} FAILED {outcome.job.key}: {outcome.failure}")
    print(
        f"{workload:20s} info: failed_frac={len(failed)}/{len(outcomes)} "
        f"sha={git_sha()} python={sys.version.split()[0]} nproc={os.cpu_count()} "
        f"repo.src_lines={lines} host.probe_s={probes[0]:.4f}/{probes[1]:.4f}"
    )
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "loophomology" / "cli.py").is_file():
        print(f"error: no loophomology sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
