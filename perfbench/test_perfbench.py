"""Tests of the benchmark itself: its inputs, its output check and its trace.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

from collections import Counter

import pytest

import layertrace
import run
from workloads import PASS_MIX, Job, load_digests, query_universe, session_pass


@pytest.fixture
def runner(tmp_path):
    return run.Runner(seed=3, workdir=tmp_path, budget_s=120.0)


def test_mix_is_identical_for_one_seed():
    assert session_pass(7, 0) == session_pass(7, 0)
    assert session_pass(7, 1) == session_pass(7, 1)
    assert session_pass(7, 0) != session_pass(8, 0)
    assert session_pass(7, 0) != session_pass(7, 1)


def test_mix_is_stratified_and_drawn_from_the_recorded_universe():
    universe = query_universe()
    kind_of = {q: kind for kind, queries in universe.items() for q in queries}
    jobs = session_pass(11, 0)
    assert Counter(kind_of[job.args] for job in jobs) == Counter(PASS_MIX)
    assert set(load_digests()) == {Job(q).key for q in kind_of}


def test_corrupted_expected_digest_fails_the_job(runner):
    jobs = [
        Job(("stable-range", "--d", "5", "--n", "3", "--l", "2")),
        Job(("bounds", "--l", "3", "--k", "1")),
    ]
    outcomes: list[run.Outcome] = []
    run.run_pass(runner, jobs, outcomes)
    assert [o.failure for o in outcomes] == ["", ""]

    runner.digests = dict(runner.digests, **{jobs[1].key: "0" * 64})
    outcomes = []
    run.run_pass(runner, jobs, outcomes)
    assert [o.failure for o in outcomes] == ["", "stdout digest mismatch"]


def test_suite_check_needs_every_suite_to_pass(runner):
    job = Job(("verify", "--suite", "a", "--suite", "b"), ("a", "b"))
    assert runner.check(job, 0, b"a pass\nb pass\n") == ""
    assert runner.check(job, 0, b"a pass\nb fail: 1 != 2\n")
    assert runner.check(job, 3, b"a pass\nb pass\n") == "exit code 3"


def test_traced_self_times_stay_within_wall_time(runner):
    job = Job(("screen", "--space", "qs0", "--degree", "8"))
    outcome = runner.run_job(job, traced=True)
    assert outcome.failure == ""
    functions = outcome.trace["functions"]
    assert sum(stat["self_s"] for stat in functions.values()) <= outcome.wall_s
    assert functions["cli.main"]["calls"] == 1
    assert functions["screener.screen_degree"]["calls"] == 1
    # screener calls reduced_coproduct through its own `from .hopf import` binding
    assert functions["hopf.reduced_coproduct"]["calls"] > 0

    total = layertrace.merge({}, outcome.trace)
    for spec in run.declared_metrics()["per_layer"]:
        if not spec["name"].startswith(("run.", "host.", "repo.")):
            layertrace.metric(total, spec["name"])  # every declared name resolves


def test_tracer_self_time_excludes_wrapped_callees():
    # outer runs from t=0 to t=3 and calls inner, which runs from t=1 to t=2
    tracer = layertrace.Tracer(clock=iter(range(4)).__next__)
    inner = tracer._wrap("m.inner", lambda: None)
    outer = tracer._wrap("m.outer", lambda: inner())
    outer()
    assert tracer.stats["m.inner"] == {"calls": 1, "self_s": 1}
    assert tracer.stats["m.outer"] == {"calls": 1, "self_s": 2}


def test_p90_leaves_ten_samples_beyond_it_at_one_hundred():
    values = list(range(1, 101))
    p90 = run.nearest_rank(values, 90)
    assert sum(v > p90 for v in values) == 10
    assert run.nearest_rank([5.0, 7.0], 90) == 7.0
