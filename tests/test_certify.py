"""Certification runner: suite wiring, degree budget, failure conversion."""

from __future__ import annotations

import pytest

from loophomology import certify
from loophomology.certify import (
    BUDGET_ENV,
    DEFAULT_DEGREE_BUDGET,
    SUITES,
    degree_budget,
    ensure_degree_allowed,
    run_suites,
)
from loophomology.errors import DegreeBudgetExceeded


def test_default_budget(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    assert degree_budget() == DEFAULT_DEGREE_BUDGET == 24
    ensure_degree_allowed(24)
    with pytest.raises(DegreeBudgetExceeded):
        ensure_degree_allowed(25)


def test_env_budget(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "6")
    assert degree_budget() == 6
    with pytest.raises(DegreeBudgetExceeded):
        ensure_degree_allowed(7)
    monkeypatch.setenv(BUDGET_ENV, "not-a-number")
    with pytest.raises(ValueError):
        degree_budget()


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["no-such-suite"])


@pytest.mark.parametrize(
    "names, kwargs",
    [
        (["kernel-of-r", "no-such-suite"], {}),
        (["kernel-of-r"], {"max_degree": 0}),
        (["kernel-of-r"], {"jobs": 0}),
    ],
)
def test_bad_arguments_are_rejected_before_any_suite_runs(monkeypatch, names, kwargs):
    def must_not_run(**kwargs):
        raise AssertionError("a suite ran before its arguments were checked")

    monkeypatch.setitem(certify.SUITES, "kernel-of-r", must_not_run)
    with pytest.raises(ValueError):
        run_suites(names, **kwargs)


def test_suite_names_are_stable():
    assert list(SUITES) == [
        "kernel-of-r",
        "primitive-basis",
        "even-squares",
        "wellington",
        "suspension-kernel",
        "sum-identity",
        "hopf-consistency",
        "dimension-bounds",
        "stable-range",
    ]


def test_single_cheap_suite():
    (res,) = run_suites(["sum-identity"])
    assert res.name == "sum-identity" and res.passed
    assert "k <= " in res.details or res.details


def test_max_degree_caps_work():
    results = run_suites(["kernel-of-r", "suspension-kernel"], max_degree=6)
    assert all(r.passed for r in results)
    assert [r.name for r in results] == ["kernel-of-r", "suspension-kernel"]


def test_budget_env_propagates(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "4")
    with pytest.raises(DegreeBudgetExceeded):
        run_suites(["kernel-of-r"])  # default cap 16 exceeds the budget
    results = run_suites(["kernel-of-r"], max_degree=4)
    assert results[0].passed


def test_dimension_bounds_is_under_the_budget(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "3")
    (res,) = run_suites(["dimension-bounds"], max_degree=3)
    assert res.passed

    # the exhaustive oracle is exponential in the level, so a cap past the
    # budget is refused before it runs
    def no_oracle(*args):
        raise AssertionError("the exhaustive oracle ran past the budget")

    monkeypatch.setattr(certify, "max_generator_dim_exhaustive", no_oracle)
    with pytest.raises(DegreeBudgetExceeded):
        run_suites(["dimension-bounds"])  # default cap 10 exceeds the budget
    with pytest.raises(DegreeBudgetExceeded):
        run_suites(["dimension-bounds"], max_degree=4)


def test_parallel_jobs_agree():
    seq = run_suites(["wellington"], max_degree=9, jobs=1)
    par = run_suites(["wellington"], max_degree=9, jobs=2)
    assert seq[0].passed and par[0].passed
    assert seq[0].details == par[0].details


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor: records max_workers, starts no process."""

    requested: list[int] = []

    def __init__(self, max_workers: int) -> None:
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None

    def map(self, fn, items):
        return map(fn, items)


def test_pmap_caps_workers(monkeypatch):
    monkeypatch.setattr(certify, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "requested", [])
    monkeypatch.setattr(certify.os, "cpu_count", lambda: 3)
    assert certify._pmap(abs, range(-5, 0), jobs=64) == [5, 4, 3, 2, 1]
    assert certify._pmap(abs, [-1, -2], jobs=64) == [1, 2]
    assert certify._pmap(abs, range(-5, 0), jobs=2) == [5, 4, 3, 2, 1]
    assert _RecordingPool.requested == [3, 2, 2]
    monkeypatch.setattr(certify.os, "cpu_count", lambda: None)
    assert certify._pmap(abs, range(-5, 0), jobs=64) == [5, 4, 3, 2, 1]
    assert _RecordingPool.requested == [3, 2, 2]  # one worker: no pool at all
