"""Certification runner: suite wiring, degree budget, failure conversion."""

from __future__ import annotations

import pytest

from loophomology import certify, screener
from loophomology.certify import (
    BUDGET_ENV,
    DEFAULT_DEGREE_BUDGET,
    SUITES,
    SuiteResult,
    check_scope,
    degree_budget,
    ensure_degree_allowed,
    run_suites,
)
from loophomology.errors import DegreeBudgetExceeded
from loophomology.f2algebra import ONE_CODE, _packing, _pair, _times, basis_enumerate
from loophomology.spaces import qs0_space, qsn_space


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
        (["kernel-of-r", "even-squares"], {"max_degree": 3}),
        (["kernel-of-r", "dimension-bounds"], {"max_degree": 1}),
    ],
)
def test_bad_arguments_are_rejected_before_any_suite_runs(monkeypatch, names, kwargs):
    def must_not_run(**kwargs):
        raise AssertionError("a suite ran before its arguments were checked")

    monkeypatch.setitem(certify.SUITES, "kernel-of-r", must_not_run)
    with pytest.raises(ValueError):
        run_suites(names, **kwargs)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_a_suite_called_directly_refuses_a_cap_below_its_floor(name):
    _, floor, _ = certify.SCOPES[name]
    below = floor - 1
    with pytest.raises(ValueError, match=f"{name} scope is empty: max degree {below} is below"):
        SUITES[name](max_degree=below)


def test_every_cap_is_checked_before_any_suite_runs(monkeypatch):
    # even-squares' default cap 20 is past a budget of 16, so nothing may run
    def must_not_run(**kwargs):
        raise AssertionError("a suite ran before every cap was checked")

    monkeypatch.setenv(BUDGET_ENV, "16")
    monkeypatch.setitem(certify.SUITES, "kernel-of-r", must_not_run)
    with pytest.raises(DegreeBudgetExceeded, match="degree 20"):
        run_suites(["kernel-of-r", "even-squares"])
    with pytest.raises(DegreeBudgetExceeded):
        run_suites()


def test_declaring_a_suite_is_one_step(monkeypatch):
    # the throwaway suites go into copies of the two tables, so nothing leaks
    monkeypatch.setattr(certify, "SUITES", dict(SUITES))
    monkeypatch.setattr(certify, "SCOPES", dict(certify.SCOPES))
    caps = []

    def body(cap):
        caps.append(cap)
        return (lambda d: (True, d, "")), range(1, cap + 1), lambda n: f"1..{cap}: {n}"

    budgeted = certify._suite("throwaway", 7, floor=3)(body)
    closed_form = certify._suite("throwaway-closed", 7, budgeted=False)(body)
    assert list(certify.SUITES)[-2:] == ["throwaway", "throwaway-closed"]
    assert certify.SUITES["throwaway"] is budgeted and budgeted.__name__ == "body"
    assert certify.SCOPES["throwaway"] == (7, 3, True)

    # run at its declared cap, through the one gate
    assert run_suites(["throwaway"]) == [SuiteResult("throwaway", True, "1..7: 28")]
    assert caps == [7]
    with pytest.raises(ValueError, match="throwaway scope is empty: max degree 2 is below 3"):
        check_scope(["throwaway"], max_degree=2)
    assert caps == [7]

    # the budget holds the budgeted declaration and not the other
    monkeypatch.setenv(BUDGET_ENV, "6")
    with pytest.raises(DegreeBudgetExceeded, match="degree 7"):
        run_suites(["throwaway-closed", "throwaway"])
    assert caps == [7]
    assert closed_form() == SuiteResult("throwaway-closed", True, "1..7: 28")
    assert caps == [7, 7]


def test_closed_form_suites_stay_outside_the_budget(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "4")
    closed_forms = {name for name, (_, _, budgeted) in certify.SCOPES.items() if not budgeted}
    assert closed_forms == {"sum-identity", "stable-range"}
    results = run_suites(["sum-identity", "stable-range"], max_degree=5)
    assert all(r.passed for r in results)


def hopf_case(args: tuple) -> tuple[bool, int, str]:
    """hopf-consistency's walk over the one degree of a (space, degree) case."""
    space, degree = args
    return certify._hopf_walk((space, range(degree, degree + 1)))


def _change_psi_of_x1(monkeypatch, change):
    """Add change(x_1) mod 2 to psi(x_1) in the packed psi the case runs on."""
    real = certify._psi
    space = qsn_space(1)
    (x1,) = map(_packing(space).encode, basis_enumerate(space, 1))
    monkeypatch.setattr(
        certify, "_psi", lambda p, code: real(p, code) ^ change(x1) if code == x1 else real(p, code)
    )


def test_hopf_consistency_names_every_identity_it_checks():
    (result,) = run_suites(["hopf-consistency"], max_degree=3)
    assert result.passed
    for identity in (
        "coassociativity", "cocommutativity", "counit", "multiplicativity", "Sq^1 Sq^1 = 0"
    ):
        assert identity in result.details


def test_hopf_consistency_catches_a_coproduct_that_is_not_cocommutative(monkeypatch):
    # x_1 -> x_1 (x) 1 alone is coassociative but not cocommutative
    _change_psi_of_x1(monkeypatch, lambda x: {_pair(ONE_CODE, x)})
    assert hopf_case((qsn_space(1), 1)) == (False, 0, "cocommutativity fails on x_1")


def test_hopf_consistency_catches_a_coproduct_that_is_not_coassociative(monkeypatch):
    # x_1 -> x_1 (x) 1 + 1 (x) x_1 + x_1^2 (x) 1: (psi (x) 1) psi(x_1) has
    # x_1^2 (x) 1 (x) 1 twice, (1 (x) psi) psi(x_1) once
    _change_psi_of_x1(monkeypatch, lambda x: {_pair(_times(x, x), ONE_CODE)})
    assert hopf_case((qsn_space(1), 1)) == (False, 0, "coassociativity fails on x_1")


def test_hopf_consistency_catches_a_coproduct_that_breaks_the_counit(monkeypatch):
    # psi(x_1) = 0 is coassociative and cocommutative, but not counital
    _change_psi_of_x1(monkeypatch, lambda x: {_pair(x, ONE_CODE), _pair(ONE_CODE, x)})
    assert hopf_case((qsn_space(1), 1)) == (False, 0, "counit law fails on x_1")


def test_hopf_consistency_catches_a_coproduct_that_is_not_multiplicative(monkeypatch):
    # x_1 -> x_1 (x) 1 + 1 (x) x_1 + x_1 (x) x_1 is a coalgebra on its own,
    # but psi(x_1)^2 gains x_1^2 (x) x_1^2, which psi(x_1^2) lacks
    _change_psi_of_x1(monkeypatch, lambda x: {_pair(x, x)})
    assert hopf_case((qsn_space(1), 1)) == (True, 1, "")
    assert hopf_case((qsn_space(1), 2)) == (
        False, 0, "multiplicativity fails on x_1 | x_1")


def test_hopf_consistency_catches_a_sq1_that_does_not_square_to_zero(monkeypatch):
    monkeypatch.setattr(certify, "_sq_monomial", lambda p, r, code: frozenset({code}))
    assert hopf_case((qsn_space(1), 1)) == (False, 0, "Sq^1 Sq^1 != 0 on x_1")


def test_the_walk_of_a_space_names_each_failing_degree_as_its_own_case_does(monkeypatch):
    # the non-multiplicative psi(x_1) of the test above fails each of the
    # degrees 2..5 of qs1; qs0 is left alone
    qs1 = qsn_space(1)
    p = _packing(qs1)
    (x1,) = map(p.encode, basis_enumerate(qs1, 1))
    real = certify._psi
    monkeypatch.setattr(
        certify, "_psi",
        lambda q, code: real(q, code) ^ {_pair(x1, x1)} if q is p and code == x1 else real(q, code),
    )
    cases = [hopf_case((qs1, d)) for d in range(1, 6)]
    assert [ok for ok, _, _ in cases] == [True, False, False, False, False]
    (result,) = run_suites(["hopf-consistency"], max_degree=5)
    assert result == (
        "hopf-consistency", False, "; ".join(detail for ok, _, detail in cases if not ok)
    )


def test_the_walk_of_each_space_counts_what_its_degrees_count():
    spaces = (qsn_space(1), qs0_space())
    n = sum(hopf_case((s, d))[1] for s in spaces for d in range(1, 7))
    (result,) = run_suites(["hopf-consistency"], max_degree=6)
    assert result.passed and f": {n} identities (" in result.details
    (result,) = run_suites(["hopf-consistency"])
    assert result.passed and ": 2397 identities (" in result.details


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


def test_dimension_bounds_catches_an_oracle_that_is_not_twice_the_maximum(monkeypatch):
    real = screener.oracle_main1
    monkeypatch.setattr(screener, "oracle_main1", lambda l, k: real(l, k) + 1)
    (res,) = run_suites(["dimension-bounds"], max_degree=3)
    assert not res.passed
    assert res.details == (
        "l=2, k=-1: oracle 7 vs twice exhaustive 3; l=3, k=-1: oracle 19 vs twice exhaustive 9")


def test_dimension_bounds_checks_every_base_the_printed_oracles_use(monkeypatch):
    # a closed form off by one only above base 1 reaches bounds --k 0..3 and
    # immersion-threshold --k 2.., so the suite must look past base 1
    real = screener.max_generator_dim

    def wrong(l, base):
        return real(l, base) + (base >= 2)

    monkeypatch.setattr(screener, "max_generator_dim", wrong)
    monkeypatch.setattr(certify, "max_generator_dim", wrong)
    (res,) = run_suites(["dimension-bounds"], max_degree=3)
    assert not res.passed
    assert res.details == (
        "l=2, k=0: closed form 6 vs exhaustive 5; l=3, k=0: closed form 14 vs exhaustive 13")
    monkeypatch.setattr(certify, "max_generator_dim", real)
    (res,) = run_suites(["dimension-bounds"], max_degree=3)
    assert res.details == (
        "l=2, k=0: oracle 12 vs twice exhaustive 5; l=3, k=0: oracle 28 vs twice exhaustive 13")


def test_the_cheap_suites_pass_at_max_degree_9():
    names = ["wellington", "sum-identity", "stable-range", "dimension-bounds"]
    results = run_suites(names, max_degree=9)
    assert [r.name for r in results] == names
    assert all(r.passed for r in results)


def test_the_join_reads_its_rows_once():
    # a sweep streams its cases, so _joined may be handed a one-pass iterator
    rows = [(True, 3, ""), (False, 0, "degree 4: one"), (True, 2, ""), (False, 1, "degree 6: two")]
    assert certify._joined(iter(rows)) == certify._joined(rows) == (
        False, 6, "degree 4: one; degree 6: two"
    )
    assert certify._joined(iter(rows[::2])) == (True, 5, "")


def test_every_suite_resolves_its_cap_and_runs_its_cases_through_the_one_runner(monkeypatch):
    calls, real = [], certify._cap

    def recorded(name, *args):
        calls.append(name)
        return real(name, *args)

    monkeypatch.setattr(certify, "_cap", recorded)
    # every suite is the one runner that _suite declares, around its own body
    assert len({suite.__code__ for suite in SUITES.values()}) == 1
    for name, suite in SUITES.items():
        calls.clear()
        _, floor, _ = certify.SCOPES[name]
        assert suite(max_degree=max(floor, 2)).passed
        assert calls == [name]
