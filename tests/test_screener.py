"""Spherical-class screening, even-square refutation, quantitative bounds."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_kernel_rows import primitive_annihilated_basis
from test_steenrod import _workload_descriptions

from loophomology import screener
from loophomology.certify import suite_even_squares
from loophomology.dlops import apply_Q_iterated
from loophomology.errors import CounterexampleFound, UnsupportedOperand
from loophomology.f2algebra import (
    Element,
    Generator,
    _basis_codes,
    _packing,
    _square_set,
    base_element,
    generator_monomial,
    masks_for_term_sets,
    split_decomposable,
    translation_class,
    translation_monomial,
)
from loophomology.hopf import is_primitive, primitive_space
from loophomology.linalg_f2 import span_intersection
from loophomology.screener import (
    EvenSquareDegree,
    MechanismEntry,
    MInfinityModule,
    MSymbol,
    bound_main1,
    bounds_report,
    even_square_screen_at,
    generator_span,
    immersion_threshold_report,
    max_generator_dim,
    max_generator_dim_exhaustive,
    oracle_main1,
    screen_degree,
    stable_range_check,
    sum_identity_check,
    wellington_check,
)
from loophomology.seqcore import UpperSeq, _lower_fold, sphere_class, upper
from loophomology.spaces import (
    MODEL_QS0,
    SqEntry,
    qs0_space,
    qsn_space,
    space_from_dict,
    suspension_space,
    two_cell_space,
)
from loophomology.steenrod import is_A_annihilated
from loophomology.suspension import _suspend_codes

QS1 = qsn_space(1)


# --- extended module and the odd-entry containment ---------------------------


def test_msymbol_admits_excess_equal_base():
    s = MSymbol(sphere_class(1), upper(1))
    assert s.dimension == 2 and s.all_entries_odd
    assert not MSymbol(sphere_class(1), upper(2)).all_entries_odd
    with pytest.raises(ValueError):
        MSymbol(sphere_class(2), upper(1))  # excess below base dimension
    with pytest.raises(ValueError):
        MSymbol(sphere_class(1), upper(1, 3))  # inadmissible
    assert MSymbol(sphere_class(1), upper(5, 3)).all_entries_odd


def test_module_basis_low_degrees():
    mod = MInfinityModule(QS1)
    assert [str(s) for s in mod.basis(1)] == ["x_1"]
    assert [str(s) for s in mod.basis(2)] == ["Q^(1) x_1"]
    assert [str(s) for s in mod.basis(3)] == ["Q^(2) x_1"]
    with pytest.raises(UnsupportedOperand):
        MInfinityModule(qs0_space())


def test_module_action_pullback():
    mod = MInfinityModule(QS1)
    # Sq^1 of the embedded square x_1^2 is zero; of Q^(2)x_1 is the square symbol
    assert mod.sq(1, MSymbol(sphere_class(1), upper(1))) == frozenset()
    out = mod.sq(1, MSymbol(sphere_class(1), upper(2)))
    assert {str(s) for s in out} == {"Q^(1) x_1"}


def _admissible_to_monomial(entries, base):
    """The monomial Q^I(b) is, for an admissible I, read off its lower
    indices: None when one is negative (the class is zero), and each zero
    lower index is Q_0, the square, so t of them give g^(2^t) with g the
    generator the positive ones name, or [2^t] when they name none on [1].
    The oracle for Packing.admissible_code and MInfinityModule.embed."""
    js = _lower_fold(entries, base.dimension)
    if any(j < 0 for j in js):
        return None
    squarings = [m for m, j in enumerate(js) if j == 0]
    assert squarings == list(range(len(squarings))), entries  # admissible: zeros lead
    rest, power = entries[len(squarings):], 2 ** len(squarings)
    if not rest and base.kind == "unit_loop":
        return translation_monomial(power)
    return generator_monomial(Generator(base, UpperSeq(rest)), power)


@pytest.mark.parametrize("space", [QS1, two_cell_space()], ids=lambda s: s.label)
def test_embed_matches_the_monomial_oracle(space):
    mod = MInfinityModule(space)
    syms = [s for d in range(1, 17) for s in mod.basis(d)]
    assert syms
    for s in syms:
        expected = Element(space, frozenset({_admissible_to_monomial(s.seq.entries, s.base)}))
        assert mod.embed(s) == expected, s


def test_wellington_degree_nine():
    report = wellington_check(QS1, 9)
    assert report.ok
    assert [[str(s) for s in v] for v in report.annihilated] == [["Q^(5,3) x_1"]]
    assert report.violations == ()


@pytest.mark.parametrize("degree", (0, -1))
def test_wellington_refuses_a_degree_below_one(monkeypatch, degree):
    # refused before the module is built: qs0 would raise UnsupportedOperand
    monkeypatch.setattr(screener, "MInfinityModule", None)
    for space in (QS1, qs0_space()):
        with pytest.raises(ValueError, match="positive degrees"):
            wellington_check(space, degree)


@pytest.mark.parametrize("degree", (1, 3, 5, 7, 9, 11))
def test_wellington_odd_degrees_sphere(degree):
    assert wellington_check(QS1, degree).ok


@pytest.mark.parametrize("degree", (1, 3, 5, 7, 9))
def test_wellington_odd_degrees_two_cell(degree):
    assert wellington_check(two_cell_space(), degree).ok


# --- candidate screening ------------------------------------------------------


def test_generator_span_respects_filtration():
    assert [str(m) for m in generator_span(QS1, 9)] == ["Q^(5,3) x_1", "Q^8 x_1"]
    assert [str(m) for m in generator_span(QS1, 9, loop=3)] == ["Q^(5,3) x_1"]
    assert generator_span(QS1, 9, loop=2) == []


def test_screen_positive_degrees_only():
    with pytest.raises(ValueError):
        screen_degree(QS1, 0)


def test_screen_degree_nine_loop_three():
    report = screen_degree(QS1, 9, loop=3)
    assert [str(c) for c in report.candidates] == ["Q^(5,3) x_1"]
    assert report.squares == ()
    assert report.verdict == "candidates-remain"
    cut = screen_degree(QS1, 9, loop=2)
    assert cut.candidates == () and cut.verdict == "no-spherical-candidates"


def test_screen_degree_four_lists_the_bottom_power():
    report = screen_degree(QS1, 4)
    assert [str(c) for c in report.candidates] == ["Q^3 x_1"]
    assert [str(s) for s in report.squares] == ["x_1^4"]
    assert report.verdict == "candidates-include-squares"


@pytest.mark.parametrize(
    "space, top",
    [(QS1, 24), (qsn_space(2), 24), (two_cell_space(), 24), (qs0_space(), 16)],
    ids=["qs1", "qs2", "two-cell", "qs0"],
)
def test_every_listed_square_is_primitive_and_annihilated(space, top):
    # the screen checks only the roots and squares them as elements: squaring
    # is injective and commutes with psi and Sq_*, so each power is PA too
    listed = 0
    for degree in range(2, top + 1, 2):
        for power in screen_degree(space, degree).squares:
            assert is_primitive(power) and is_A_annihilated(power), (degree, str(power))
            listed += 1
    assert listed >= 3


def test_screen_report_dict_shape():
    d = screen_degree(QS1, 9, loop=3).to_dict()
    assert set(d) == {"space", "degree", "loop", "candidates", "squares", "bounds"}
    assert d["space"] == "qs1" and d["degree"] == 9 and d["loop"] == 3
    assert set(d["bounds"]) == {"base_dim", "max_generator_dim", "degree_exceeds_max_at"}
    assert d["bounds"]["base_dim"] == 1
    assert d["bounds"]["max_generator_dim"]["3"] == 9


def test_even_square_screen_mechanism():
    entry = even_square_screen_at(QS1, 4)
    assert entry.ok and entry.kernel_ok and entry.kernel_witnesses == ()
    by_root = {m.root: m for m in entry.mechanism}
    assert by_root["Q^3 x_1"].has_linear_part
    assert by_root["Q^3 x_1"].product_nonzero and by_root["Q^3 x_1"].identity_holds
    # pure squares carry no single-operation part; handled at half dimension
    assert not by_root["x_1^4"].has_linear_part
    assert by_root["x_1^4"].product_nonzero is None


def test_mechanism_route_desuspends_to_charge_zero(monkeypatch):
    # each desuspended Q^I x_1 is Q^I[1] of charge 2^len(I) in qs0; P0 must be
    # moved back to the charge-zero component before Q^degree is applied
    seen = []
    real = screener.apply_Q

    def spy(a, e):
        seen.append(e)
        return real(a, e)

    monkeypatch.setattr(screener, "apply_Q", spy)
    entries = [even_square_screen_at(QS1, degree) for degree in (2, 4, 6, 8)]
    checked = sum(m.has_linear_part for e in entries for m in e.mechanism)
    assert checked and len(seen) == checked
    assert all(p0.space == qs0_space() and p0.charge == 0 for p0 in seen)


def former_p0(space, root: Element) -> Element:
    """P0 as the mechanism route first built it: Q^I applied to the
    desuspended base class through Adem straightening and the Cartan
    formula, then moved to charge zero on qs0."""
    pred = space.predecessor()
    p0 = Element(pred, frozenset())
    for m in split_decomposable(root)[0].terms:
        g = m.factors[0][0]
        piece = apply_Q_iterated(g.seq, base_element(pred, space.desuspended_base(g.base)))
        if pred.model == MODEL_QS0:
            piece = piece * translation_class(pred, -(2 ** len(g.seq)))
        p0 = p0 + piece
    return p0


#: space, top even root dimension, and how many roots there have a linear part
P0_CASES = {
    "qs1": (QS1, 12, 7),
    "qs2": (qsn_space(2), 12, 5),
    "two-cell": (two_cell_space(), 8, 2),
    "a1b5-sq4": (suspension_space({"a": 1, "b": 5}, (SqEntry(4, "b", ("a",)),)), 12, 3),
    **{
        name: (space_from_dict(d), 12, roots)
        for (name, d), roots in zip(_workload_descriptions().items(), (6, 6, 4))
    },
}


@pytest.mark.parametrize("name", P0_CASES)
def test_mechanism_route_reads_p0_as_the_former_evaluation(monkeypatch, name):
    # the route reads each Q^I b as the generator Q^I b' of the predecessor;
    # excess(I) > |b| > |b'|, so straightening Q^I b' changes nothing
    space, top, roots = P0_CASES[name]
    seen = []
    real = screener.apply_Q

    def spy(a, e):
        seen.append(e)
        return real(a, e)

    monkeypatch.setattr(screener, "apply_Q", spy)
    # only the mechanism route is under test: the kernel route sees one
    # stage with an empty kernel and stops there
    monkeypatch.setattr(screener, "_pri_ann_stages", lambda pred, degree, codes: iter([([], [])]))
    expected = []
    for degree in range(2, top + 1, 2):
        even_square_screen_at(space, degree)
        expected += [
            former_p0(space, root)
            for root in primitive_space(space, degree)
            if split_decomposable(root)[0]
        ]
    assert len(expected) == roots and seen == expected


def test_even_square_witnesses_print_in_structural_order(monkeypatch):
    # Force a nonempty meet: every square counts as hit by the suspension.
    # The witnesses come back re-reduced over monomials in structural order,
    # whatever bits the packed codes were given.
    import loophomology.screener as screener

    monkeypatch.setattr(screener, "span_intersection", lambda images, squares: squares)
    entry = even_square_screen_at(QS1, 4)
    assert not entry.kernel_ok and not entry.ok
    assert entry.kernel_witnesses == ("(Q^3 x_1)^2", "x_1^8", "(Q^2 x_1)^2 x_1^2")
    # another basis of the same meet prints the same
    monkeypatch.setattr(
        screener,
        "span_intersection",
        lambda images, squares: [squares[0] ^ squares[1], squares[1] ^ squares[2], squares[2]],
    )
    assert even_square_screen_at(QS1, 4).kernel_witnesses == entry.kernel_witnesses


def former_kernel_route(space, degree: int) -> tuple[bool, int]:
    """The kernel route as it ran before it walked the sieve's stages: the
    whole primitive annihilated basis of H_{2 degree - 1} of the
    predecessor, suspended and met with the span of the squares.  Whether
    the meet is zero, and its dimension."""
    pred = space.predecessor()
    p, source = _packing(space), _packing(pred)
    upstairs = primitive_annihilated_basis(pred, 2 * degree - 1)
    images = [_suspend_codes(source, p, source.encode_set(w.terms)) for w in upstairs]
    squares = [_square_set((c,)) for c in _basis_codes(space, degree)]
    masks, _ = masks_for_term_sets(images + squares)
    meet = span_intersection(masks[: len(images)], masks[len(images) :])
    return not meet, len(meet)


#: space and top even root dimension of the early-exit oracle
EARLY_EXIT_CASES = {
    "qs1": (QS1, 12),
    "qs2": (qsn_space(2), 10),
    "two-cell": (two_cell_space(), 10),
    "a1b5-sq4": (suspension_space({"a": 1, "b": 5}, (SqEntry(4, "b", ("a",)),)), 12),
    **{name: (space_from_dict(d), 12) for name, d in _workload_descriptions().items()},
}


@pytest.mark.parametrize("name", EARLY_EXIT_CASES)
def test_the_staged_kernel_route_gives_the_former_verdict(name):
    # each stage's kernel contains the primitive annihilated subspace, so
    # stopping at the first empty meet leaves the verdict as it was
    space, top = EARLY_EXIT_CASES[name]
    for degree in range(2, top + 1, 2):
        entry = even_square_screen_at(space, degree)
        got = (entry.kernel_ok, len(entry.kernel_witnesses))
        assert got == former_kernel_route(space, degree), (name, degree)


def cuts_built(monkeypatch, space, degree: int) -> dict:
    """How many codes get coproduct rows at each cut k of the sieve while
    the even-square route runs at one root."""
    built: dict = {}
    real = screener._reduced_psi

    def spy(p, m, k=None, memo=None):
        built[k] = built.get(k, 0) + 1
        return real(p, m, k, memo)

    with monkeypatch.context() as mp:
        mp.setattr(screener, "_reduced_psi", spy)
        even_square_screen_at(space, degree)
    return built


def test_the_kernel_route_stops_at_the_first_empty_meet(monkeypatch):
    # qs1 root 8: the first cut over qs0's 613 codes in degree 15 already
    # suspends into no square, so no later cut is built
    assert cuts_built(monkeypatch, QS1, 8) == {1: 613}
    # the two-cell model at root 6 stops at the cut k = 4 of degree 11
    assert cuts_built(monkeypatch, two_cell_space(), 6) == {1: 15, 2: 8, 4: 5}
    # qs2 at root 10 meets the squares until the top cut 19 // 2 = 9
    assert cuts_built(monkeypatch, qsn_space(2), 10) == {1: 330, 2: 104, 4: 9, 8: 3, 9: 3}


def test_a_meet_reported_at_the_top_cut_is_re_verified(monkeypatch):
    # a forced meet at every stage walks qs1 root 4 to the top cut of degree
    # 7, whose kernel vector is re-verified before witnesses are printed
    monkeypatch.setattr(screener, "span_intersection", lambda images, squares: squares)
    assert cuts_built(monkeypatch, QS1, 4) == {1: 26, 2: 17, 3: 17}
    monkeypatch.setattr(screener, "is_primitive", lambda vec: False)
    with pytest.raises(CounterexampleFound, match="failed re-verification"):
        even_square_screen_at(QS1, 4)


#: Prints a qs0 screen and the forced-meet witnesses above, whose terms are
#: Monomials: their set order, and so any first-seen column order over them,
#: follows the hash seed.
HASH_SEED_PROBE = """
from loophomology import screener
from loophomology.cli import main
from loophomology.spaces import qsn_space

main(["screen", "--space", "qs0", "--degree", "14", "--json"])
screener.span_intersection = lambda images, squares: squares
print(screener.even_square_screen_at(qsn_space(1), 4).kernel_witnesses)
"""


def test_screen_and_witnesses_print_the_same_under_any_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_PROBE],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0 and proc.stderr == ""
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].endswith("('(Q^3 x_1)^2', 'x_1^8', '(Q^2 x_1)^2 x_1^2')\n")


def test_even_square_failures_list_witnesses_then_failing_roots():
    entry = EvenSquareDegree(
        4,
        False,
        ("w",),
        (
            MechanismEntry("held", True, True, True),
            MechanismEntry("zero product", True, False, True),
            MechanismEntry("pure square", False, None, None),
            MechanismEntry("identity broken", True, True, False),
        ),
    )
    assert entry.failures == ("w", "zero product", "identity broken")
    assert not entry.ok
    passing = EvenSquareDegree(4, True, (), entry.mechanism[:1] + entry.mechanism[2:3])
    assert passing.failures == () and passing.ok


def test_even_square_screen_guards():
    with pytest.raises(ValueError):
        even_square_screen_at(QS1, 3)
    with pytest.raises(UnsupportedOperand):
        even_square_screen_at(qs0_space(), 4)


@pytest.mark.parametrize("degree", (0, -2))
def test_even_square_screen_refuses_a_root_below_one(monkeypatch, degree):
    # refused before any work: qs0 would raise UnsupportedOperand, and either
    # route's first step fails the test
    def unreachable(*args, **kwargs):
        pytest.fail("the screen did work on a root below one")

    monkeypatch.setattr(screener, "_pri_ann_stages", unreachable)
    monkeypatch.setattr(screener, "primitive_space", unreachable)
    for space in (QS1, qs0_space()):
        with pytest.raises(ValueError, match="positive even root dimensions"):
            even_square_screen_at(space, degree)


def test_even_squares_suite_small():
    # roots 2, 4 and 6 over qs1 and over the two-cell model
    result = suite_even_squares(max_degree=12)
    assert result.passed
    assert result.details.startswith("roots of even dimension <= 6 over qs1, <= 6 over the two-cell")


# --- quantitative bounds ------------------------------------------------------


def test_max_generator_dim_fixtures():
    assert max_generator_dim(1, 1) == 1
    assert max_generator_dim(2, 1) == 3
    assert max_generator_dim(3, 1) == 9
    assert max_generator_dim(4, 1) == 25
    with pytest.raises(ValueError):
        max_generator_dim(0, 1)


@pytest.mark.parametrize("length_bound", range(1, 9))
@pytest.mark.parametrize("base_dim", (1, 2, 3))
def test_max_generator_dim_exhaustive(length_bound, base_dim):
    assert max_generator_dim(length_bound, base_dim) == max_generator_dim_exhaustive(
        length_bound, base_dim
    )


def test_sum_identity():
    for k in range(1, 25):
        assert sum_identity_check(k)


def _s_minus1_bound(l):
    """The S^-1 member's closed form written on its own; an oracle for
    bound_main1 at k = -1."""
    return 2 ** (l - 1) * l + 2


def _s_minus1_oracle(l):
    """Twice the top generator dimension over base 1; an oracle for
    oracle_main1 at k = -1."""
    return 2 * max_generator_dim(l, 1)


def test_the_s_minus1_member_is_k_minus_1_of_the_main_family():
    for l in range(1, 65):
        assert bound_main1(l, -1) == _s_minus1_bound(l)
        assert oracle_main1(l, -1) == _s_minus1_oracle(l)
        expected = (l, -1, _s_minus1_bound(l), _s_minus1_oracle(l))
        assert bounds_report(l, -1) == expected


def test_bound_fixtures():
    assert bound_main1(3, -1) == 14 and oracle_main1(3, -1) == 18
    assert bound_main1(4, 1) == 66 and oracle_main1(4, 1) == 82
    r = bounds_report(3, -1)
    assert (r.printed, r.oracle, r.discrepancy) == (14, 18, True)
    r2 = bounds_report(4, 1)
    assert (r2.printed, r2.oracle, r2.discrepancy) == (66, 82, True)
    for k in (-2, -3):
        with pytest.raises(ValueError, match=r"^k must be >= -1$"):
            bounds_report(3, k)


def test_bounds_never_substituted():
    # printed values stay the closed forms even where the oracle disagrees
    for l in range(2, 8):
        assert bounds_report(l, -1).printed == _s_minus1_bound(l)
        for k in range(0, 4):
            assert bounds_report(l, k).printed == bound_main1(l, k)


def test_immersion_thresholds():
    assert immersion_threshold_report(1, 1).n_min == 3
    assert immersion_threshold_report(3, 2).n_min == 21
    t = immersion_threshold_report(1, 1)
    assert t.bound == 3 and t.n_min == 3
    assert t.oracle_n_min == 2 and t.discrepancy
    t2 = immersion_threshold_report(3, 2)
    assert t2.n_min == 21 and t2.oracle_n_min == 25


def _threshold_oracle(d, k):
    """The (d, k) dispatch written out: k = 1 the S^-1 member's own closed
    form, k >= 2 the main bound with offset k - 2, threshold bound - k + 1."""
    if k == 1:
        bound, oracle = _s_minus1_bound(d), _s_minus1_oracle(d)
    else:
        bound, oracle = bound_main1(d, k - 2), oracle_main1(d, k - 2)
    return bound, bound - k + 1, oracle, oracle - k + 1


def test_immersion_thresholds_match_the_dispatch_oracle():
    for d in range(1, 17):
        for k in range(1, 7):
            t = immersion_threshold_report(d, k)
            got = (t.bound, t.n_min, t.oracle_bound, t.oracle_n_min)
            assert (t.d, t.k) == (d, k) and got == _threshold_oracle(d, k)
    for d, k in [(0, 1), (1, 0), (-1, 2)]:
        with pytest.raises(ValueError, match="need d >= 1 and k >= 1"):
            immersion_threshold_report(d, k)


def test_stable_range_boundary():
    for n in range(1, 8):
        for l in range(1, 8):
            assert stable_range_check(2 * n + l - 3, n, l)
            assert not stable_range_check(2 * n + l - 2, n, l)
