"""Certification suites: every structural claim the package leans on, checked
exhaustively at desk scale.

Each suite recomputes one statement from the definitions and compares against
an independent construction; none of them trusts the module it is checking to
grade itself.  A suite returns a SuiteResult rather than raising, except that
an explicit counterexample to a certified statement surfaces the witness.

The degree budget guards the exhaustive sweeps.  It defaults to
DEFAULT_DEGREE_BUDGET and can be raised or lowered through the
LOOPHOMOLOGY_MAX_DEGREE environment variable; a request beyond the budget
raises DegreeBudgetExceeded instead of thrashing.
"""

from __future__ import annotations

import os
from functools import cache
from typing import NamedTuple

from .dlops import apply_Q_iterated
from .errors import CounterexampleFound, DegreeBudgetExceeded, LoopHomologyError
from .f2algebra import (
    PAIRS,
    Element,
    Packing,
    _degree,
    _mul_sets,
    _code_bases,
    _generator_index,
    _packing,
    _slots,
    _times,
    masks_for_term_sets,
)
from .hopf import (
    _psi,
    generator_family,
    is_primitive,
    kernel_of_r,
    make_primitive_pI,
    primitive_space,
    qualifies_for_primitive,
)
from .linalg_f2 import rank
from .seqcore import UpperSeq, enumerate_admissible
from .spaces import SpaceDesc, qs0_space, qsn_space, two_cell_space
from .screener import (
    bound_main1,
    bounds_report,
    even_square_screen_at,
    max_generator_dim,
    max_generator_dim_exhaustive,
    stable_range_check,
    sum_identity_check,
    wellington_check,
)
from .steenrod import _sq_monomial
from .suspension import _suspension_kernel

DEFAULT_DEGREE_BUDGET = 24
BUDGET_ENV = "LOOPHOMOLOGY_MAX_DEGREE"


def degree_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_DEGREE_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from exc


def ensure_degree_allowed(degree: int) -> None:
    budget = degree_budget()
    if degree > budget:
        raise DegreeBudgetExceeded(
            f"degree {degree} exceeds the budget of {budget}; "
            f"raise {BUDGET_ENV} to allow it"
        )


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    details: str


#: Each suite's scope, from its declaration: (default cap, floor, budgeted).
SCOPES: dict[str, tuple[int, int, bool]] = {}
#: Each suite by name, in declaration order.
SUITES: dict = {}


def _suite(name: str, cap: int, floor: int = 1, budgeted: bool = True):
    """Declare a suite: its default cap, its floor (the least cap that checks
    anything) and whether the degree budget holds its cap.

    The body takes the resolved cap and returns (check, cases, summary).  The
    suite checks the cases one at a time in this process, check(case) giving
    (ok, count, detail), and fails with the failing details joined or passes
    with summary(sum of the counts).
    """

    def declare(body):
        def suite(max_degree: int | None = None) -> SuiteResult:
            check, cases, summary = body(_cap(name, max_degree))
            ok, total, detail = _joined(map(check, cases))
            return SuiteResult(name, ok, summary(total) if ok else detail)

        suite.__name__ = suite.__qualname__ = body.__name__
        SCOPES[name] = (cap, floor, budgeted)
        SUITES[name] = suite
        return suite

    return declare


def _cap(name: str, max_degree: int | None) -> int:
    """The suite's sweep cap, refused if below its floor or, for a budgeted
    suite, past the degree budget."""
    default, floor, budgeted = SCOPES[name]
    cap = default if max_degree is None else max_degree
    if budgeted:
        ensure_degree_allowed(cap)
    if cap < floor:
        raise ValueError(f"{name} scope is empty: max degree {cap} is below {floor}")
    return cap


def _joined(rows) -> tuple[bool, int, str]:
    """(ok, count, detail) rows as one, read in one pass: all ok, counts
    summed, failing details joined."""
    total, bad = 0, []
    for ok, n, detail in rows:
        total += n
        if not ok:
            bad.append(detail)
    return not bad, total, "; ".join(bad)


# ---------------------------------------------------------------------------
# kernel-of-r: ker(r) on the length-bounded generator family is exactly the
# span of the monomials with an odd entry.


def _kernel_of_r_case(degree: int) -> tuple[bool, int, str]:
    family = generator_family(degree, 3)
    expected = {frozenset({m}) for m in family if any(i % 2 for i in m.factors[0][0].seq.entries)}
    got = {vec.terms for vec in kernel_of_r(degree, 3)}
    if got == expected:
        return True, len(expected), ""
    extra = [str(Element(qs0_space(), t)) for t in sorted(got - expected, key=sorted)]
    missing = [str(Element(qs0_space(), t)) for t in sorted(expected - got, key=sorted)]
    return False, 0, f"degree {degree}: extra {extra}, missing {missing}"


@_suite("kernel-of-r", 16)
def suite_kernel_of_r(cap: int):
    return _kernel_of_r_case, range(1, cap + 1), (
        lambda n: f"degrees 1..{cap}, lengths <= 3, {n} kernel vectors matched")


# ---------------------------------------------------------------------------
# primitive-basis: the corrected classes p_I exist uniquely, their iterated
# images are independent, and together they span the primitives.


def _odd_cut(entries: tuple[int, ...]) -> int | None:
    """Where I = I' I'' is cut for Q^I' p_I'': at its last odd entry, which
    starts the tail I''; None when every entry is even."""
    return max((i for i, v in enumerate(entries) if v % 2), default=None)


def _primitive_basis_case(degree: int) -> tuple[bool, int, str]:
    space = qs0_space()
    seqs = enumerate_admissible(degree, 0, 0)
    for seq in (s for s in seqs if qualifies_for_primitive(s)):
        p = make_primitive_pI(seq.entries)  # raises NoSolution / NonUnique
        if not is_primitive(p.value):
            return False, 0, f"p_{seq.entries} is not primitive"

    family: list[Element] = []
    for seq in seqs:  # nonempty, as the degree is positive
        cut = _odd_cut(seq.entries)  # and odd, so some entry is odd
        tail = make_primitive_pI(seq.entries[cut:])
        family.append(apply_Q_iterated(UpperSeq(seq.entries[:cut]), tail.value))

    prim = primitive_space(space, degree)
    masks, _ = masks_for_term_sets([e.terms for e in family] + [p.terms for p in prim])
    fam_rank = rank(masks[: len(family)])
    if fam_rank != len(family):
        return False, 0, f"degree {degree}: dependent family of {len(family)}"
    if rank(masks) != fam_rank or fam_rank != len(prim):
        return False, 0, (
            f"degree {degree}: span mismatch, family rank {fam_rank}, "
            f"primitive dimension {len(prim)}"
        )
    return True, len(family), ""


@_suite("primitive-basis", 13)
def suite_primitive_basis(cap: int):
    return _primitive_basis_case, range(1, cap + 1, 2), (
        lambda _: f"odd degrees <= {cap}: unique corrections, independent, spanning")


# ---------------------------------------------------------------------------
# even-squares: both refutation routes on every even root dimension.


def _even_square_case(args: tuple[SpaceDesc, int]) -> tuple[bool, int, str]:
    space, degree = args
    entry = even_square_screen_at(space, degree)
    return entry.ok, 0, f"{space.label} d={degree}: " + "; ".join(entry.failures)


@_suite("even-squares", 20, floor=4)  # cap 4 reaches the first even root, 2
def suite_even_squares(cap: int):
    half = cap // 2
    cases = [(qsn_space(1), d) for d in range(2, half + 1, 2)]
    cases += [(two_cell_space(), d) for d in range(2, min(8, half) + 1, 2)]
    return _even_square_case, cases, lambda _: (
        f"roots of even dimension <= {half} over qs1, <= {min(8, half)} over the "
        "two-cell model: no annihilated primitive square survives either route")


# ---------------------------------------------------------------------------
# wellington: odd-degree annihilated vectors of the extended module lie in the
# all-odd-entry span.


def _wellington_case(args: tuple[SpaceDesc, int]) -> tuple[bool, int, str]:
    space, degree = args
    report = wellington_check(space, degree)
    offenders = ["+".join(str(s) for s in v) for v in report.violations]
    detail = f"{space.label} degree {degree}: " + "; ".join(offenders)
    return report.ok, len(report.annihilated), detail


@_suite("wellington", 15)
def suite_wellington(cap: int):
    cases = [(qsn_space(1), d) for d in range(1, cap + 1, 2)]
    cases += [(two_cell_space(), d) for d in range(1, min(11, cap) + 1, 2)]
    return _wellington_case, cases, lambda n: (
        f"odd degrees <= {cap} (sphere) and <= {min(11, cap)} (two-cell): "
        f"{n} annihilated vectors, all inside the all-odd-entry span")


# ---------------------------------------------------------------------------
# suspension-kernel: the kernel of the suspension is exactly the decomposables.


def _suspension_walk(args: tuple[SpaceDesc, range]) -> tuple[bool, int, str]:
    """The kernel in each degree, on the bases of one walk; each failing degree adds a detail."""
    space, degrees = args
    bases = _code_bases(space, degrees)
    return _joined(_suspension_degree(space, d, codes) for d, codes in zip(degrees, bases))


def _suspension_degree(space: SpaceDesc, degree: int, codes: list[int]) -> tuple[bool, int, str]:
    # both sides as masks over the basis indices
    kernel = _suspension_kernel(space, codes)
    decomposables = [1 << i for i, c in enumerate(codes) if _generator_index(c) is None]
    # the decomposables are distinct unit vectors, so the kernel is their span
    # exactly when it is independent, as large and inside their mask
    mask = sum(decomposables)
    if rank(kernel) == len(kernel) == len(decomposables) and all(k & mask == k for k in kernel):
        return True, len(kernel), ""
    k_rank, d_rank, joint = rank(kernel), rank(decomposables), rank(kernel + decomposables)
    return False, k_rank, (
        f"{space.label} degree {degree}: kernel dim {len(kernel)} (rank {k_rank}) vs "
        f"{len(decomposables)} decomposables (rank {d_rank}, joint {joint})"
    )


@_suite("suspension-kernel", 12)
def suite_suspension_kernel(cap: int):
    cases = [(space, range(1, cap + 1)) for space in (qs0_space(), qsn_space(1))]
    return _suspension_walk, cases, lambda _: (
        f"degrees <= {cap} out of qs0 and qs1: kernel of the suspension = decomposable span")


# ---------------------------------------------------------------------------
# sum-identity: the closed-form summation used by the dimension bounds.


def _sum_identity_case(k: int) -> tuple[bool, int, str]:
    return sum_identity_check(k), 1, f"fails at k={k}"


@_suite("sum-identity", 30, budgeted=False)  # a closed form: no homology swept
def suite_sum_identity(cap: int):
    return _sum_identity_case, range(1, cap + 1), (
        lambda _: f"k <= {cap}: sum(2^(i-1) i) == 2^k (k-1) + 1")


# ---------------------------------------------------------------------------
# hopf-consistency: coassociativity, cocommutativity, multiplicativity, the
# counit law, and Sq^1 Sq^1 = 0, on every basis monomial in range.  The checks
# run on the packed codes and the cached psi and Sq^1_* that the kernels use,
# so what is certified is what they rely on.


def _hopf_walk(args: tuple[SpaceDesc, range]) -> tuple[bool, int, str]:
    """The identities in each of the degrees, from one list of bases and one
    unpacked-psi cache, both freed on return; each failing degree adds its
    own detail."""
    space, degrees = args
    p = _packing(space)
    # every basis up to the last degree, from one walk; codes decode only to name a failure
    bases = _code_bases(space, range(degrees[-1] + 1))
    # psi of each distinct code, unpacked into its (x, y) slots once per walk
    psi_slots = cache(lambda code: [_slots(t) for t in _psi(p, code)])
    return _joined(_hopf_degree(p, bases, psi_slots, degree) for degree in degrees)


def _hopf_degree(
    p: Packing, bases: list[list[int]], psi_slots, degree: int
) -> tuple[bool, int, str]:
    """The identities on every basis monomial of one degree, and
    multiplicativity on every product that lands there."""
    checked = 0
    for code in bases[degree]:
        pairs = psi_slots(code)
        # (psi (x) 1) psi against (1 (x) psi) psi, as sets of triples of codes
        split_left: set = set()
        split_right: set = set()
        for u, v in pairs:
            split_left ^= {(a, b, v) for a, b in psi_slots(u)}
            split_right ^= {(u, a, b) for a, b in psi_slots(v)}
        if split_left != split_right:
            return False, 0, f"coassociativity fails on {p.decode(code)}"
        # the primitive-annihilated kernels keep half the coproduct on this
        if {(v, u) for u, v in pairs} != set(pairs):
            return False, 0, f"cocommutativity fails on {p.decode(code)}"
        left: set = set()
        right: set = set()
        for u, v in pairs:
            if _degree(u) == 0:
                left ^= {v}
            if _degree(v) == 0:
                right ^= {u}
        if left != {code} or right != {code}:
            return False, 0, f"counit law fails on {p.decode(code)}"
        twice: set = set()
        for w in _sq_monomial(p, 1, code):
            twice ^= _sq_monomial(p, 1, w)
        if twice:
            return False, 0, f"Sq^1 Sq^1 != 0 on {p.decode(code)}"
        checked += 1
    # products and _mul_sets are symmetric, so each unordered pair u | v is
    # checked once, with |u| <= |v|, and counts for both orders; the first
    # failure is the one the ordered sweep meets first
    for d_left in range(1, degree // 2 + 1):
        right_basis = bases[degree - d_left]
        for i, u in enumerate(bases[d_left]):
            psi_u = _psi(p, u)
            for j in range(i if 2 * d_left == degree else 0, len(right_basis)):
                v = right_basis[j]
                if _psi(p, _times(u, v)) != _mul_sets(psi_u, _psi(p, v), PAIRS):
                    return False, 0, f"multiplicativity fails on {p.decode(u)} | {p.decode(v)}"
                checked += 1 if u == v else 2
    return True, checked, ""


@_suite("hopf-consistency", 10)
def suite_hopf_consistency(cap: int):
    cases = [(space, range(1, cap + 1)) for space in (qsn_space(1), qs0_space())]
    return _hopf_walk, cases, lambda n: (
        f"degrees <= {cap} on qs1 and charge-0 qs0: {n} identities "
        "(coassociativity, cocommutativity, counit, multiplicativity, Sq^1 Sq^1 = 0)")


# ---------------------------------------------------------------------------
# dimension-bounds: closed forms against the exhaustive oracle, with the
# printed/oracle discrepancies recorded rather than hidden.


def _dimension_bounds_case(l: int) -> tuple[bool, int, str]:
    """Level l against the exhaustive oracle over every bottom cell k + 2 the
    printed oracles use, k = -1..3, and each bound growing from l - 1 and k."""
    for k in range(-1, 4):
        closed = max_generator_dim(l, k + 2)
        brute = max_generator_dim_exhaustive(l, k + 2)
        if closed != brute or closed != 2 ** (l - 1) * (l + k) + 1:
            return False, 0, f"l={l}, k={k}: closed form {closed} vs exhaustive {brute}"
        rep = bounds_report(l, k)
        if rep.oracle != 2 * brute:
            return False, 0, f"l={l}, k={k}: oracle {rep.oracle} vs twice exhaustive {brute}"
        if not bound_main1(l - 1, k) < rep.printed < bound_main1(l, k + 1):
            return False, 0, f"l={l}, k={k}: printed bound not increasing"
    return True, 1, ""


@_suite("dimension-bounds", 10, floor=2)  # cap 2 reaches the first level, l = 2
def suite_dimension_bounds(cap: int):
    reports = [bounds_report(l, -1) for l in range(2, cap + 1)]
    notes = [f"l={r.l} printed {r.printed} oracle {r.oracle}" for r in reports if r.discrepancy]
    return _dimension_bounds_case, range(2, cap + 1), lambda _: (
        f"2 <= l <= {cap}: exhaustive max equals closed form; discrepancies "
        "against the printed doubled bound: " + "; ".join(notes))


# ---------------------------------------------------------------------------
# stable-range: every printed bound lands past the stable range.


def _stable_range_case(args: tuple[int, int]) -> tuple[bool, int, str]:
    n, l = args
    if not stable_range_check(2 * n + l - 3, n, l):
        return False, 0, f"boundary-1 fails at n={n}, l={l}"
    if stable_range_check(2 * n + l - 2, n, l):
        return False, 0, f"boundary fails at n={n}, l={l}"
    if stable_range_check(bound_main1(l, n) + 1, n, l):
        return False, 0, f"bound+1 inside stable range at n={n}, l={l}"
    return True, 1, ""


@_suite("stable-range", 10, budgeted=False)  # a closed form: no homology swept
def suite_stable_range(cap: int):
    cases = ((n, l) for n in range(1, cap + 1) for l in range(1, cap + 1))
    return _stable_range_case, cases, lambda _: (
        f"1 <= l, n <= {cap}: bound_main1 + 1 always falls beyond the stable range")


# ---------------------------------------------------------------------------
# Orchestration.


def check_scope(names: list[str] | None = None, max_degree: int | None = None) -> list[str]:
    """The suites to run (all by default, each once), once the whole request
    is checked.

    The names, the max degree and the cap of every chosen suite are checked
    before any suite runs: a bad value or an empty scope raises ValueError,
    a cap past the degree budget DegreeBudgetExceeded.
    """
    chosen = list(SCOPES if names is None else dict.fromkeys(names))
    for name in chosen:
        if name not in SCOPES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SCOPES)}")
    if max_degree is not None and max_degree < 1:
        raise ValueError(f"max degree must be >= 1, got {max_degree}")
    for name in chosen:
        _cap(name, max_degree)
    return chosen


def run_suites(names: list[str] | None = None, max_degree: int | None = None) -> list[SuiteResult]:
    """Run the named suites (all by default) and return their results.

    Every front end goes through here, or through check_scope first, so the
    whole request is checked before any suite runs.  A counterexample raised
    inside a suite is converted into a failed result carrying the witness, so
    one broken suite does not mask the others.
    """
    results = []
    for name in check_scope(names, max_degree):
        try:
            results.append(SUITES[name](max_degree=max_degree))
        except CounterexampleFound as exc:
            results.append(SuiteResult(name, False, f"counterexample: {exc}"))
        except DegreeBudgetExceeded:
            raise
        except LoopHomologyError as exc:
            results.append(SuiteResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
