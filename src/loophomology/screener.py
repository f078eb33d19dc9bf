"""Screening machinery for spherical classes, plus the quantitative bounds.

Three layers live here:

  * the extended module M(X): symbols Q^I(b) with excess(I) >= dim b, carrying
    the pulled-back Steenrod action, and the check that its odd-degree
    annihilated part sits inside the all-odd-entry span,
  * subspace screens over the honest homology: primitive and A-annihilated
    candidates in a degree, square detection, and the two independent
    refutations of annihilated primitive squares in even degrees,
  * closed-form dimension bounds, each printed bound next to its oracle:
    twice the closed-form top generator dimension max_generator_dim, which
    max_generator_dim_exhaustive checks by brute force.  Printed bound and
    oracle value are both reported and never substituted for one another.
"""

from __future__ import annotations

from typing import NamedTuple

from .dlops import apply_Q
from .errors import CounterexampleFound, UnsupportedOperand
from .f2algebra import (
    Element,
    Generator,
    Monomial,
    _basis_codes,
    _element_from_codes,
    _factors,
    _packing,
    _picked,
    _square_set,
    generator_monomial,
    masks_for_term_sets,
    single_generators,
    split_decomposable,
)
from .hopf import _reduced_psi, is_primitive, primitive_space
from .linalg_f2 import echelon, kernel_of_images, span_intersection
from .seqcore import Applied, UpperSeq, all_entries_odd, enumerate_admissible, excess
from .spaces import SpaceDesc
from .steenrod import _sq_monomial, _sq_total, is_A_annihilated, sq_lower
from .suspension import _suspend_codes, within_loop_filtration

# ---------------------------------------------------------------------------
# The extended module M(X).


class MSymbol(Applied):
    """Basis symbol Q^I(b) of the extended module: excess(I) >= dim b.

    Equality of excess and base dimension is allowed here; those symbols embed
    as power monomials of the honest homology rather than as generators.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if excess(self.seq) < self.base.dimension:
            raise ValueError("excess below base dimension; the symbol vanishes")

    @property
    def all_entries_odd(self) -> bool:
        return all_entries_odd(self.seq)

    def __str__(self) -> str:
        body = ",".join(str(i) for i in self.seq.entries)
        return f"Q^({body}) {self.base.head}" if self.seq else self.base.head


class MInfinityModule:
    """M(X) for the sphere and suspension models, with its Steenrod action.

    The action is the engine's Sq_* on the packed code a symbol embeds as,
    pulled back.  The image of an embedded symbol is again a sum of embedded
    symbols (the mixed Cartan terms cancel mod 2); that closure is asserted
    on every pull-back rather than assumed.
    """

    def __init__(self, space: SpaceDesc) -> None:
        if space.has_charge():
            raise UnsupportedOperand("the extended module needs a positive-dimension base")
        self.space = space
        self.packing = _packing(space)

    def basis(self, degree: int) -> list[MSymbol]:
        return sorted(
            MSymbol(b, seq) for b in self.space.base_classes() if degree >= b.dimension
            for seq in enumerate_admissible(degree, b.dimension, b.dimension - 1)
        )

    def _code(self, sym: MSymbol) -> int:
        """The packed code of the symbol's embedding, one factor g^(2^t)."""
        code = self.packing.admissible_code(sym.seq.entries, sym.base)
        if code is None:
            raise CounterexampleFound(f"symbol {sym} embedded to zero")
        return code

    def _symbol(self, code: int) -> MSymbol:
        """The symbol embedding as the code: g^(2^t) is Q^(2^(t-1)|g|, ..., 2|g|, |g|) g."""
        factors = _factors(code)
        if len(factors) != 1 or factors[0][1] & (factors[0][1] - 1):
            raise CounterexampleFound(
                f"image monomial {self.packing.decode(code)} is not a generator to a power of two")
        ((i, e),) = factors
        g = self.packing.gens[i]
        doubled = tuple(g.dimension << s for s in reversed(range(e.bit_length() - 1)))
        return MSymbol(g.base, UpperSeq(doubled + g.seq.entries))

    def embed(self, sym: MSymbol) -> Element:
        return Element(self.space, frozenset({self.packing.decode(self._code(sym))}))

    def sq(self, r: int, sym: MSymbol) -> frozenset[MSymbol]:
        return frozenset(map(self._symbol, _sq_monomial(self.packing, r, self._code(sym))))

    def annihilated_vectors(self, degree: int) -> list[frozenset[MSymbol]]:
        """Kernel basis of the total Steenrod action in one degree: a symbol's
        row is Sq_* of its code less the code, every Sq^r_* with r >= 1 at
        once; a term's dimension fixes its r, so its symbol alone is its column."""
        syms = self.basis(degree)
        codes = map(self._code, syms)
        masks, _ = masks_for_term_sets(
            [{self._symbol(w) for w in _sq_total(self.packing, c) if w != c} for c in codes])
        return [_picked(combo, syms) for combo in kernel_of_images(masks)]


class WellingtonReport(NamedTuple):
    space: SpaceDesc
    degree: int
    annihilated: tuple[tuple[MSymbol, ...], ...]
    violations: tuple[tuple[MSymbol, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def wellington_check(space: SpaceDesc, degree: int) -> WellingtonReport:
    """Is every annihilated vector of M(X) in the all-odd-entry span?

    The containment is only claimed in odd degrees; the report computes it
    for whatever positive degree it is given.
    """
    if degree <= 0:
        raise ValueError("the Wellington check runs in positive degrees")
    module = MInfinityModule(space)
    vectors = module.annihilated_vectors(degree)
    annihilated = tuple(tuple(sorted(v)) for v in vectors)
    violations = tuple(
        tuple(sorted(v)) for v in vectors if not all(s.all_entries_odd for s in v)
    )
    return WellingtonReport(space, degree, annihilated, violations)


# ---------------------------------------------------------------------------
# Candidate screens over the honest homology.


def _pri_ann_stages(space: SpaceDesc, degree: int, codes: list[int]):
    """The stages of the sieve for the kernel of the stacked (reduced
    coproduct, Steenrod) map on the span of packed codes: each stage's codes
    and its kernel, as combination masks over those codes.

    A code's Steenrod row is its total Sq_* less itself, every Sq^r_* with
    r >= 1 at once.  The coproduct rows are the terms x (x) y with
    |x| <= top = degree // 2, which fix the rest because psi is
    cocommutative.

    With the Steenrod rows, the coproduct rows cut at |x| <= k are taken for
    k = 1, 2, 4, ... up to top; each stage keeps only the codes in the
    support of its kernel.  The terms with |x| <= k are a subset of those
    with |x| <= top, so ker(rows_top) lies in ker(rows_k), which lies in the
    span of its support: every stage's kernel contains the final one.  The
    last stage yielded is the top cut, whose kernel is exactly ker(rows_top),
    or the first empty kernel.  kernel_of_images returns the reduced basis of
    a kernel for a given column order, so dropping columns outside the
    support gives the same vectors in the same order.

    Each stage owns its memo of psi cut below a factor's degree, and drops
    it once the stage's masks are built: the next stage asks for another
    cut.  The whole coproduct of a factor stays in the process-wide
    hopf._psi_monomial.
    """
    p = _packing(space)
    # the term out of Sq^r_* m, r >= 1, is tagged -out, as |out| fixes r:
    # packed tensors are positive, so a tag never equals a coproduct term
    rows = [(m, {-out for out in _sq_total(p, m) if out != m}) for m in codes]
    top = degree // 2
    k = min(1, top)
    while True:
        memo: dict = {}
        masks, _ = masks_for_term_sets([_reduced_psi(p, m, k, memo) | tags for m, tags in rows])
        del memo
        kernel = kernel_of_images(masks)
        yield [m for m, _ in rows], kernel
        if not kernel or k == top:
            return
        support = 0
        for combo in kernel:
            support |= combo
        rows = [row for j, row in enumerate(rows) if support >> j & 1]
        k = min(2 * k, top)


def _verified(space: SpaceDesc, codes: list[int], kernel: list[int]) -> list[Element]:
    """The kernel vectors as elements, each re-verified against the full
    reduced coproduct and every Sq^r_*, so a bug in the kernel bookkeeping,
    or a row set that is too small, cannot silently pass."""
    out = []
    for combo in kernel:
        vec = _element_from_codes(space, combo, codes)
        if not is_primitive(vec) or not is_A_annihilated(vec):
            raise CounterexampleFound(f"kernel vector failed re-verification: {vec}")
        out.append(vec)
    return out


def _pri_ann_kernel(space: SpaceDesc, degree: int, codes: list[int]) -> list[Element]:
    """Kernel of the stacked (reduced coproduct, Steenrod) map on the span of
    packed codes: the last stage of _pri_ann_stages, re-verified."""
    for codes, kernel in _pri_ann_stages(space, degree, codes):
        pass  # the top cut, or the first empty kernel
    return _verified(space, codes, kernel)


def generator_span(
    space: SpaceDesc, degree: int, loop: int | None = None
) -> list[Monomial]:
    """The single operations Q^I(base) of one degree, within the loop level if given.

    On the unit-loop model each generator is translated back to charge zero.
    Products and powers are excluded: on QS^n (n >= 1) and Q Sigma^2 X a candidate
    above the bottom cell desuspends, and what desuspends is a sum of single
    operations.  Q_0 S^0 is no such loop space: h(nu) there has product terms.
    """
    return [m for m in single_generators(space, degree) if within_loop_filtration(m, loop)]


class ScreenReport(NamedTuple):
    """One degree's screening verdict: surviving candidates and squares."""

    space: SpaceDesc
    degree: int
    loop: int | None
    candidates: tuple[Element, ...]
    squares: tuple[Element, ...]
    bounds: dict

    @property
    def verdict(self) -> str:
        if not self.candidates and not self.squares:
            return "no-spherical-candidates"
        if self.squares:
            return "candidates-include-squares"
        return "candidates-remain"

    def to_dict(self) -> dict:
        return {
            "space": self.space.label,
            "degree": self.degree,
            "loop": self.loop,
            "candidates": [str(c) for c in self.candidates],
            "squares": [str(s) for s in self.squares],
            "bounds": self.bounds,
        }


def screen_degree(
    space: SpaceDesc, degree: int, loop: int | None = None
) -> ScreenReport:
    """Candidates for spherical classes in one degree of one space.

    Candidates are the primitive A-annihilated vectors of the single-operation
    span, within the requested loop filtration.  Squares are handled as a
    second list: a surviving square is a 2^t-th Frobenius power of a candidate
    from the odd part of the degree.  Squaring is injective on a polynomial
    algebra and commutes with psi and Sq_*, so a power is primitive and
    A-annihilated exactly when its root is, which _pri_ann_kernel has just
    re-verified; the powers are squared as elements and never packed.
    Squares rooted in even-dimension non-square classes are not listed; the
    even-square verifier is the refutation that removes them.
    """
    if degree <= 0:
        raise ValueError("screening runs in positive degrees")
    if loop is not None and loop < 1:
        raise ValueError(f"loop filtration level must be >= 1, got {loop}")
    p = _packing(space)
    span = [p.encode(m) for m in generator_span(space, degree, loop)]
    candidates = _pri_ann_kernel(space, degree, span)

    squares: list[Element] = []
    t = (degree & -degree).bit_length() - 1  # 2-adic valuation
    core = degree >> t
    if t:
        span = [p.encode(m) for m in generator_span(space, core, loop)]
        for power in _pri_ann_kernel(space, core, span):
            for _ in range(t):
                power = power.square()
            squares.append(power)

    base_dims = [b.dimension for b in space.base_classes()]
    base = max(base_dims, default=1) or 1
    maxima = {str(l): max_generator_dim(l, base) for l in range(2, 7)}
    bounds = {
        "base_dim": base,
        "max_generator_dim": maxima,
        "degree_exceeds_max_at": [l for l in range(2, 7) if degree > maxima[str(l)]],
    }
    return ScreenReport(space, degree, loop, tuple(candidates), tuple(squares), bounds)


# ---------------------------------------------------------------------------
# Even-degree squares: two independent refutations.


class MechanismEntry(NamedTuple):
    root: str
    has_linear_part: bool
    product_nonzero: bool | None
    identity_holds: bool | None


class EvenSquareDegree(NamedTuple):
    degree: int
    kernel_ok: bool
    kernel_witnesses: tuple[str, ...]
    mechanism: tuple[MechanismEntry, ...]

    @property
    def failures(self) -> tuple[str, ...]:
        """The kernel witnesses, then the checked mechanism roots that fail."""
        return self.kernel_witnesses + tuple(
            m.root
            for m in self.mechanism
            if m.has_linear_part and not (m.product_nonzero and m.identity_holds)
        )

    @property
    def ok(self) -> bool:
        return self.kernel_ok and not self.failures


def even_square_screen_at(space: SpaceDesc, degree: int) -> EvenSquareDegree:
    """Refute annihilated primitive squares with a root of one even dimension.

    Kernel route: squares in H_{2 degree} are never hit by suspending a
    primitive annihilated class of H_{2 degree - 1} of the predecessor space,
    and candidates above the bottom cell must arrive by suspension.  The
    route walks the stages of _pri_ann_stages over that degree's basis and
    meets the suspension of each stage's kernel with the span of the squares.
    Every stage's kernel contains the primitive annihilated subspace PA, so
    an empty meet at any stage gives sigma_*(PA) meet span(squares) = 0, and
    the route stops there; that verdict rests on the inclusion alone.  A meet
    that stays nonempty up to the top cut is the meet of sigma_*(PA) itself:
    its kernel is re-verified, as _pri_ann_kernel re-verifies, and the meet
    is printed as witnesses.

    Mechanism route: for each primitive root, desuspend its single-operation
    part to P0, each Q^I b to the generator Q^I b' at charge zero
    (excess(I) > |b| > |b'|); the class Q^degree(P0) is not annihilated,
    because Sq^1_* Q^degree = Q^(degree - 1) lands on the bottom operation
    and squares P0.  A root with no single-operation part is a sum of
    squares and is handled at half its dimension, so it is recorded but not
    checked here.
    """
    if degree <= 0 or degree % 2:
        raise ValueError("the square screen runs in positive even root dimensions")
    if space.has_charge():
        raise UnsupportedOperand("run the square screen on a delooping, not qs0")
    pred = space.predecessor()

    p = _packing(space)
    source = _packing(pred)
    squares = [_square_set((c,)) for c in _basis_codes(space, degree)]
    upstairs = 2 * degree - 1
    for codes, kernel in _pri_ann_stages(pred, upstairs, _basis_codes(pred, upstairs)):
        images = [_suspend_codes(source, p, _picked(combo, codes)) for combo in kernel]
        masks, ordered = masks_for_term_sets(images + squares)
        meet = span_intersection(masks[: len(images)], masks[len(images) :])
        if not meet:
            break
    else:
        _verified(pred, codes, kernel)
    witnesses: tuple[str, ...] = ()
    if meet:
        # The echelon basis of the meet depends on the bit order of the codes;
        # re-reduce it over monomials in their structural order (the sorted
        # union, read first, numbers the columns) to print it.
        vectors = [p.decode_set(_picked(v, ordered)) for v in meet]
        canon = sorted(set().union(*vectors))
        _, *canon_masks = masks_for_term_sets([canon, *vectors])[0]
        witnesses = tuple(str(Element(space, _picked(v, canon))) for v in echelon(canon_masks))

    entries: list[MechanismEntry] = []
    for root in primitive_space(space, degree):
        linear, _ = split_decomposable(root)
        if not linear:
            entries.append(MechanismEntry(str(root), False, None, None))
            continue
        gens = [m.factors[0][0] for m in linear.terms]
        downs = [Generator(space.desuspended_base(g.base), g.seq) for g in gens]
        p0 = Element(pred, frozenset(generator_monomial(h, 1, -h.charge) for h in downs))
        w0 = apply_Q(degree, p0)
        product = p0 * p0
        entries.append(
            MechanismEntry(
                str(root),
                True,
                bool(product),
                sq_lower(1, w0) == product,
            )
        )
    return EvenSquareDegree(degree, not meet, witnesses, tuple(entries))


# ---------------------------------------------------------------------------
# Quantitative bounds, their oracles, and derived thresholds.


def max_generator_dim(length_bound: int, base_dim: int) -> int:
    """Top dimension over lower-index sequences strictly increasing in
    {1, ..., length_bound - 1}, by the closed form.

    The maximum is attained by the full sequence (1, ..., length_bound - 1);
    at length_bound = 1 only the empty sequence qualifies and the value is the
    base dimension itself.
    """
    if length_bound < 1:
        raise ValueError("the family needs length_bound >= 1")
    if base_dim < 1:
        raise ValueError("base dimension must be positive")
    half = 2 ** (length_bound - 1)
    return half * base_dim + half * (length_bound - 2) + 1


def max_generator_dim_exhaustive(length_bound: int, base_dim: int) -> int:
    """The same maximum by brute force over all strictly increasing choices."""
    if length_bound < 1 or base_dim < 1:
        raise ValueError("need length_bound >= 1 and base_dim >= 1")
    pool = range(1, length_bound)
    best = 0
    for mask in range(1 << len(pool)):
        js = [j for i, j in enumerate(pool) if mask >> i & 1]
        dim = 2 ** len(js) * base_dim + sum(2**m * j for m, j in enumerate(js))
        best = max(best, dim)
    return best


def sum_identity_check(k: int) -> bool:
    """sum_{i=1..k} 2^(i-1) i == 2^k (k-1) + 1, both sides evaluated honestly."""
    lhs = sum(2 ** (i - 1) * i for i in range(1, k + 1))
    return lhs == 2**k * (k - 1) + 1


def bound_main1(length_bound: int, k: int) -> int:
    """Printed degree bound for Sigma^2 X with bottom cell k + 2, k >= -1;
    k = -1 is X = S^-1 (Sigma^2 X = S^1), where it reads 2^(l-1) l + 2."""
    return 2**length_bound * (k + 2) + 2 ** (length_bound - 1) * (length_bound - 2) + 2


def oracle_main1(length_bound: int, k: int) -> int:
    """Oracle counterpart: twice the top generator dimension over base k + 2."""
    return 2 * max_generator_dim(length_bound, k + 2)


class BoundsReport(NamedTuple):
    """Printed closed-form bound next to its oracle, twice max_generator_dim,
    never merged."""

    l: int
    k: int
    printed: int
    oracle: int

    @property
    def discrepancy(self) -> bool:
        return self.printed != self.oracle


def bounds_report(l: int, k: int) -> BoundsReport:
    """Bound comparison for length l over the bottom cell k + 2, k >= -1;
    k = -1 is the S^-1 member of the family."""
    if l < 1:
        raise ValueError("need l >= 1")
    if k < -1:
        raise ValueError("k must be >= -1")
    return BoundsReport(l, k, bound_main1(l, k), oracle_main1(l, k))


class ThresholdReport(NamedTuple):
    d: int
    k: int
    bound: int
    n_min: int
    oracle_bound: int
    oracle_n_min: int

    @property
    def discrepancy(self) -> bool:
        return self.bound != self.oracle_bound


def immersion_threshold_report(d: int, k: int) -> ThresholdReport:
    """Smallest n past the degree bound for the (d, k) screening family.

    The bound is bound_main1 with offset k - 2, so k = 1 is the S^-1 member
    of the family.  The threshold is bound - k + 1.  The oracle columns repeat
    the computation with the bounds report's oracle, twice max_generator_dim,
    in place of the printed closed form.
    """
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    rep = bounds_report(d, k - 2)
    return ThresholdReport(
        d, k, rep.printed, rep.printed - k + 1, rep.oracle, rep.oracle - k + 1
    )


def stable_range_check(d: int, n: int, l: int) -> bool:
    """Whether degree d sits inside the stable range of the l-fold structure
    over dimension n: d + l < 2(n + l - 1)."""
    return d + l < 2 * (n + l - 1)
