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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .dlops import apply_Q_iterated
from .errors import CounterexampleFound, DegreeBudgetExceeded, LoopHomologyError
from .f2algebra import (
    Element,
    Monomial,
    basis_enumerate,
    expand_slot,
    masks_for_term_sets,
)
from .hopf import (
    coproduct,
    counit,
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
    bound_s_minus1,
    bounds_report,
    even_square_screen_at,
    max_generator_dim,
    max_generator_dim_exhaustive,
    stable_range_check,
    sum_identity_check,
    wellington_check,
)
from .steenrod import sq_lower
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


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    details: str


def _space_by_tag(tag: str) -> SpaceDesc:
    if tag == "qs0":
        return qs0_space()
    if tag.startswith("qs"):
        return qsn_space(int(tag[2:]))
    if tag == "two-cell":
        return two_cell_space()
    raise ValueError(f"unknown space tag {tag}")


def _pmap(fn, items, jobs: int):
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# kernel-of-r: ker(r) on the length-bounded generator family is exactly the
# span of the monomials with an odd entry.


def _kernel_of_r_degree(degree: int) -> tuple[bool, int, str]:
    family = generator_family(degree, 3)
    expected = {frozenset({m}) for m in family if any(i % 2 for i in m.factors[0][0].seq.entries)}
    got = {vec.terms for vec in kernel_of_r(degree, 3)}
    if got == expected:
        return True, len(expected), ""
    extra = [str(Element(qs0_space(), t)) for t in sorted(got - expected, key=sorted)]
    missing = [str(Element(qs0_space(), t)) for t in sorted(expected - got, key=sorted)]
    return False, 0, f"degree {degree}: extra {extra}, missing {missing}"


def suite_kernel_of_r(max_degree: int | None = None, jobs: int = 1) -> SuiteResult:
    cap = 16 if max_degree is None else max_degree
    ensure_degree_allowed(cap)
    rows = _pmap(_kernel_of_r_degree, range(1, cap + 1), jobs)
    bad = [detail for ok, _, detail in rows if not ok]
    total = sum(n for ok, n, _ in rows if ok)
    details = f"degrees 1..{cap}, lengths <= 3, {total} kernel vectors matched"
    return SuiteResult("kernel-of-r", not bad, details if not bad else "; ".join(bad))


# ---------------------------------------------------------------------------
# primitive-basis: the corrected classes p_I exist uniquely, their iterated
# images are independent, and together they span the primitives.


def _primitive_basis_degree(degree: int) -> tuple[int, bool, str]:
    space = qs0_space()
    seqs = enumerate_admissible(degree, 0, 0)
    for seq in (s for s in seqs if qualifies_for_primitive(s)):
        p = make_primitive_pI(seq.entries)  # raises NoSolution / NonUnique
        if not is_primitive(p.value):
            return degree, False, f"p_{seq.entries} is not primitive"

    family: list[Element] = []
    for seq in seqs:
        if not seq:
            continue
        odd_positions = [i for i, entry in enumerate(seq.entries) if entry % 2]
        cut = odd_positions[-1]
        tail = make_primitive_pI(seq.entries[cut:])
        family.append(apply_Q_iterated(UpperSeq(seq.entries[:cut]), tail.value))

    prim = primitive_space(space, degree, 0)
    masks, _ = masks_for_term_sets([e.terms for e in family] + [p.terms for p in prim])
    fam_rank = rank(masks[: len(family)])
    if fam_rank != len(family):
        return degree, False, f"degree {degree}: dependent family of {len(family)}"
    if rank(masks) != fam_rank or fam_rank != len(prim):
        return degree, False, (
            f"degree {degree}: span mismatch, family rank {fam_rank}, "
            f"primitive dimension {len(prim)}"
        )
    return degree, True, f"degree {degree}: {len(family)} classes"


def suite_primitive_basis(max_degree: int | None = None, jobs: int = 1) -> SuiteResult:
    cap = 13 if max_degree is None else max_degree
    ensure_degree_allowed(cap)
    degrees = [d for d in range(1, cap + 1) if d % 2]
    rows = _pmap(_primitive_basis_degree, degrees, jobs)
    bad = [detail for _, ok, detail in rows if not ok]
    details = f"odd degrees <= {cap}: unique corrections, independent, spanning"
    return SuiteResult(
        "primitive-basis", not bad, details if not bad else "; ".join(bad)
    )


# ---------------------------------------------------------------------------
# even-squares: both refutation routes on every even root dimension.


def _even_square_case(args: tuple[str, int]) -> tuple[str, int, bool, str]:
    tag, degree = args
    entry = even_square_screen_at(_space_by_tag(tag), degree)
    if entry.ok:
        checked = sum(1 for m in entry.mechanism if m.has_linear_part)
        return tag, degree, True, f"{tag} d={degree}: {checked} mechanism roots"
    reasons = list(entry.kernel_witnesses) + [
        m.root
        for m in entry.mechanism
        if m.has_linear_part and not (m.product_nonzero and m.identity_holds)
    ]
    return tag, degree, False, f"{tag} d={degree}: " + "; ".join(reasons)


def suite_even_squares(max_degree: int | None = None, jobs: int = 1) -> SuiteResult:
    cap = 20 if max_degree is None else max_degree
    ensure_degree_allowed(cap)
    half = cap // 2
    if half < 2:
        raise ValueError(f"even-squares scope is empty: max degree {cap} leaves no even root")
    cases = [("qs1", d) for d in range(2, half + 1, 2)]
    cases += [("two-cell", d) for d in range(2, min(8, half) + 1, 2)]
    rows = _pmap(_even_square_case, cases, jobs)
    bad = [detail for _, _, ok, detail in rows if not ok]
    details = (
        f"roots of even dimension <= {half} over qs1, <= {min(8, half)} over the "
        "two-cell model: no annihilated primitive square survives either route"
    )
    return SuiteResult("even-squares", not bad, details if not bad else "; ".join(bad))


# ---------------------------------------------------------------------------
# wellington: odd-degree annihilated vectors of the extended module lie in the
# all-odd-entry span.


def _wellington_case(args: tuple[str, int]) -> tuple[bool, int, str]:
    tag, degree = args
    report = wellington_check(_space_by_tag(tag), degree)
    if report.ok:
        return True, len(report.annihilated), ""
    offenders = ["+".join(str(s) for s in v) for v in report.violations]
    return False, 0, f"{tag} degree {degree}: " + "; ".join(offenders)


def suite_wellington(max_degree: int | None = None, jobs: int = 1) -> SuiteResult:
    cap = 15 if max_degree is None else max_degree
    ensure_degree_allowed(cap)
    cases = [("qs1", d) for d in range(1, cap + 1) if d % 2]
    cases += [("two-cell", d) for d in range(1, min(11, cap) + 1) if d % 2]
    rows = _pmap(_wellington_case, cases, jobs)
    bad = [detail for ok, _, detail in rows if not ok]
    count = sum(n for ok, n, _ in rows if ok)
    details = (
        f"odd degrees <= {cap} (sphere) and <= {min(11, cap)} (two-cell): "
        f"{count} annihilated vectors, all inside the all-odd-entry span"
    )
    return SuiteResult("wellington", not bad, details if not bad else "; ".join(bad))


# ---------------------------------------------------------------------------
# suspension-kernel: the kernel of the suspension is exactly the decomposables.


def _suspension_kernel_case(args: tuple[str, int]) -> tuple[str, int, bool, str]:
    tag, degree = args
    space = _space_by_tag(tag)
    charge = 0 if space.has_charge() else None
    basis = basis_enumerate(space, degree, charge)
    # both sides as masks over the basis indices
    kernel = _suspension_kernel(space, basis)
    decomposables = [1 << i for i, m in enumerate(basis) if sum(e for _, e in m.factors) >= 2]
    masks = kernel + decomposables
    k_rank = rank(kernel)
    d_rank = rank(decomposables)
    if k_rank == d_rank == rank(masks) and k_rank == len(kernel) == len(decomposables):
        return tag, degree, True, f"{tag} degree {degree}: kernel dim {k_rank}"
    return tag, degree, False, (
        f"{tag} degree {degree}: kernel dim {len(kernel)} (rank {k_rank}) vs "
        f"{len(decomposables)} decomposables (rank {d_rank}, joint {rank(masks)})"
    )


def suite_suspension_kernel(max_degree: int | None = None, jobs: int = 1) -> SuiteResult:
    cap = 12 if max_degree is None else max_degree
    ensure_degree_allowed(cap)
    cases = [(tag, d) for tag in ("qs0", "qs1") for d in range(1, cap + 1)]
    rows = _pmap(_suspension_kernel_case, cases, jobs)
    bad = [detail for _, _, ok, detail in rows if not ok]
    details = (
        f"degrees <= {cap} out of qs0 and qs1: "
        "kernel of the suspension = decomposable span"
    )
    return SuiteResult(
        "suspension-kernel", not bad, details if not bad else "; ".join(bad)
    )


# ---------------------------------------------------------------------------
# sum-identity: the closed-form summation used by the dimension bounds.


def suite_sum_identity(max_degree: int | None = None, jobs: int = 1) -> SuiteResult:
    cap = 30 if max_degree is None else max_degree
    bad = [k for k in range(1, cap + 1) if not sum_identity_check(k)]
    details = f"k <= {cap}: sum(2^(i-1) i) == 2^k (k-1) + 1"
    return SuiteResult(
        "sum-identity", not bad, details if not bad else f"fails at k in {bad}"
    )


# ---------------------------------------------------------------------------
# hopf-consistency: coassociativity, multiplicativity, the counit law, and
# Sq^1 Sq^1 = 0, on every basis monomial in range.


def _monomial_element(space: SpaceDesc, m: Monomial) -> Element:
    return Element(space, frozenset({m}))


def _hopf_degree(args: tuple[str, int]) -> tuple[bool, int, str]:
    tag, degree = args
    space = _space_by_tag(tag)
    charge = 0 if space.has_charge() else None

    def psi(mono: Monomial):
        return coproduct(_monomial_element(space, mono))

    basis = basis_enumerate(space, degree, charge)
    checked = 0
    for m in basis:
        e = _monomial_element(space, m)
        pairs = coproduct(e)
        if expand_slot(pairs, 0, psi) != expand_slot(pairs, 1, psi):
            return False, 0, f"coassociativity fails on {m}"
        left = Element(space, frozenset())
        right = Element(space, frozenset())
        for u, v in pairs.terms:
            if counit(u):
                left = left + _monomial_element(space, v)
            if counit(v):
                right = right + _monomial_element(space, u)
        if left != e or right != e:
            return False, 0, f"counit law fails on {m}"
        if sq_lower(1, sq_lower(1, e)):
            return False, 0, f"Sq^1 Sq^1 != 0 on {m}"
        checked += 1
    for d_left in range(1, degree):
        for u in basis_enumerate(space, d_left, charge):
            for v in basis_enumerate(space, degree - d_left, charge):
                prod = _monomial_element(space, u) * _monomial_element(space, v)
                if coproduct(prod) != psi(u) * psi(v):
                    return False, 0, f"multiplicativity fails on {u} | {v}"
                checked += 1
    return True, checked, ""


def suite_hopf_consistency(max_degree: int | None = None, jobs: int = 1) -> SuiteResult:
    cap = 10 if max_degree is None else max_degree
    ensure_degree_allowed(cap)
    cases = [(tag, d) for tag in ("qs1", "qs0") for d in range(1, cap + 1)]
    rows = _pmap(_hopf_degree, cases, jobs)
    bad = [detail for ok, _, detail in rows if not ok]
    count = sum(n for ok, n, _ in rows if ok)
    details = (
        f"degrees <= {cap} on qs1 and charge-0 qs0: {count} identities "
        "(coassociativity, counit, multiplicativity, Sq^1 Sq^1 = 0)"
    )
    return SuiteResult(
        "hopf-consistency", not bad, details if not bad else "; ".join(bad)
    )


# ---------------------------------------------------------------------------
# dimension-bounds: closed forms against the exhaustive oracle, with the
# printed/oracle discrepancies recorded rather than hidden.


def suite_dimension_bounds(max_degree: int | None = None, jobs: int = 1) -> SuiteResult:
    cap = 10 if max_degree is None else max_degree
    ensure_degree_allowed(cap)
    if cap < 2:
        raise ValueError(f"dimension-bounds scope is empty: max degree {cap} leaves no level")
    notes = []
    for l in range(2, cap + 1):
        closed = max_generator_dim(l, 1)
        brute = max_generator_dim_exhaustive(l, 1)
        if closed != brute or closed != 2 ** (l - 1) * (l - 1) + 1:
            return SuiteResult(
                "dimension-bounds", False,
                f"l={l}: closed form {closed} vs exhaustive {brute}",
            )
        rep = bounds_report(l, -1)
        if rep.discrepancy != (rep.printed != rep.oracle):
            return SuiteResult("dimension-bounds", False, f"flag wrong at l={l}")
        if rep.discrepancy:
            notes.append(f"l={l} printed {rep.printed} oracle {rep.oracle}")
    for l in range(1, cap):
        if not (bound_s_minus1(l) < bound_s_minus1(l + 1)):
            return SuiteResult("dimension-bounds", False, f"s-minus-1 not increasing at {l}")
        for k in range(0, 4):
            if not (bound_main1(l, k) < bound_main1(l + 1, k) < bound_main1(l + 1, k + 1)):
                return SuiteResult("dimension-bounds", False, f"main-1 not increasing at {l},{k}")
    details = (
        f"2 <= l <= {cap}: exhaustive max equals closed form; discrepancies "
        "against the printed doubled bound: " + "; ".join(notes)
    )
    return SuiteResult("dimension-bounds", True, details)


# ---------------------------------------------------------------------------
# stable-range: every printed bound lands past the stable range.


def suite_stable_range(max_degree: int | None = None, jobs: int = 1) -> SuiteResult:
    cap = 10 if max_degree is None else max_degree
    for n in range(1, cap + 1):
        for l in range(1, cap + 1):
            if not stable_range_check(2 * n + l - 3, n, l):
                return SuiteResult("stable-range", False, f"boundary-1 fails at n={n}, l={l}")
            if stable_range_check(2 * n + l - 2, n, l):
                return SuiteResult("stable-range", False, f"boundary fails at n={n}, l={l}")
            if stable_range_check(bound_main1(l, n) + 1, n, l):
                return SuiteResult(
                    "stable-range", False, f"bound+1 inside stable range at n={n}, l={l}"
                )
    details = f"1 <= l, n <= {cap}: bound_main1 + 1 always falls beyond the stable range"
    return SuiteResult("stable-range", True, details)


# ---------------------------------------------------------------------------
# Orchestration.

SUITES = {
    "kernel-of-r": suite_kernel_of_r,
    "primitive-basis": suite_primitive_basis,
    "even-squares": suite_even_squares,
    "wellington": suite_wellington,
    "suspension-kernel": suite_suspension_kernel,
    "sum-identity": suite_sum_identity,
    "hopf-consistency": suite_hopf_consistency,
    "dimension-bounds": suite_dimension_bounds,
    "stable-range": suite_stable_range,
}


def run_suites(
    names: list[str] | None = None,
    max_degree: int | None = None,
    jobs: int = 1,
) -> list[SuiteResult]:
    """Run the named suites (all by default) and return their results.

    A counterexample raised inside a suite is converted into a failed result
    carrying the witness, so one broken suite does not mask the others.
    """
    chosen = list(SUITES) if names is None else names
    results = []
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        try:
            results.append(SUITES[name](max_degree=max_degree, jobs=jobs))
        except CounterexampleFound as exc:
            results.append(SuiteResult(name, False, f"counterexample: {exc}"))
        except DegreeBudgetExceeded:
            raise
        except LoopHomologyError as exc:
            results.append(SuiteResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
