"""Hopf structure: coproduct, primitives, the halving map, and the primitive
basis in odd degrees of the unit-loop model.

The coproduct is the algebra map determined by

    psi([k])   = [k] (x) [k],
    psi(x)     = x (x) 1 + 1 (x) x          for sphere and cell classes,
    psi(Q^a w) = sum over a' + a'' = a of (Q^a' (x) Q^a'') psi(w),

and the counit sends every dimension-zero monomial to 1.  On the unit-loop
model the diagonal keeps a class inside its own component, so both tensor
slots of psi carry the charge of the input; primitivity is therefore only
meaningful on the charge-zero component.

In odd degree d of that component the primitives have a preferred basis: for
every admissible sequence I with odd head, even tail and positive excess
there is a unique primitive

    p_I = Q^I[1] * [-2^len(I)] + (decomposable correction),

and applying Q-operations to the p_I spans all primitives in odd degrees.
primitive_decomposition expresses an element in that shape, up to a residual
that is zero in odd degrees and a square in even ones.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple

from .dlops import _q_monomial, apply_Q_iterated
from .errors import (
    ChargeNonzero,
    CounterexampleFound,
    NonUnique,
    NoSolution,
    NotPrimitive,
    UnsupportedOperand,
)
from .f2algebra import (
    MAX_DEGREE,
    ONE_CODE,
    PAIRS,
    Element,
    Generator,
    Monomial,
    Packing,
    Pair,
    TensorElement,
    _basis_codes,
    _degree,
    _element_from_codes,
    _generator_index,
    _mul_sets,
    _packing,
    _pair,
    _picked,
    _slots,
    _square_set,
    generator_monomial,
    masks_for_term_sets,
    single_generators,
    split_decomposable,
)
from .linalg_f2 import Pivots, _eliminate, _solve, kernel_of_images
from .seqcore import UpperSeq, excess, is_admissible, upper
from .spaces import SpaceDesc, qs0_space

@lru_cache(maxsize=None)
def _psi_monomial(p: Packing, m: int, k: int) -> frozenset[Pair]:
    """The terms x (x) y of psi(m) with |x| <= k; k >= |m| gives all of psi(m).

    Cached for the process.  Through _psi a whole coproduct is one entry;
    the sieve of screener._pri_ann_stages keeps its cuts below a factor's
    degree in a memo of one stage instead.
    """
    return _psi_terms(p, m, k, None)


def _psi_terms(p: Packing, m: int, k: int, memo: dict | None) -> frozenset[Pair]:
    """psi(m) cut to |x| <= k, computed from the cut psi of m's factors.

    Degrees add under products and Q^j raises them by j, so the cut is made
    inside the recursion.  psi is a ring map and squaring is additive mod 2,
    so m = w^2 r (Packing.root) has psi(m) = psi(w)^2 psi(r): the square of
    psi(w), cut at k // 2, is each term doubled, and only the product with
    psi(r) runs a product loop.  Otherwise one factor is peeled off.
    """
    w, r = p.root(m)
    if w != ONE_CODE:
        half = _square_set(_psi(p, w, k // 2, memo), PAIRS)
        return half if r == ONE_CODE else _mul_sets(half, _psi(p, r, k, memo), PAIRS, k)
    i, u, v = p.split(m)
    if v != ONE_CODE:
        return _mul_sets(_psi(p, u, k, memo), _psi(p, v, k, memo), PAIRS, k)
    if i is None:
        return frozenset({_pair(m, m)})
    if not p.gens[i].seq:
        right = _pair(ONE_CODE, m)
        return frozenset({_pair(m, ONE_CODE), right} if k >= _degree(m) else {right})
    # psi(Q^a z) = Q^a psi(z), and by the Cartan formula Q^a (x (x) y) is the
    # sum over j of Q^j x (x) Q^(a-j) y; the left slot Q^j x has degree
    # |x| + j, so the sum stops at j = k - |x|
    a, z = p.peel(i)
    acc: set[Pair] = set()
    for t in _psi(p, z, k, memo):
        x, y = _slots(t)
        for j in range(min(a, k - _degree(x)) + 1):
            left = _q_monomial(p, j, x)
            if left:
                right = _q_monomial(p, a - j, y)
                acc ^= {_pair(qx, qy) for qx in left for qy in right}
    return frozenset(acc)


def _psi(p: Packing, m: int, k: int = MAX_DEGREE, memo: dict | None = None) -> frozenset[Pair]:
    """psi(m) cut to the terms x (x) y with |x| <= k, by default every term.

    k is clipped to |m|, so equal cuts share one _psi_monomial entry.  Given
    a memo, a cut below |m| is kept there, keyed by (m, k), and never reaches
    _psi_monomial; the whole coproduct still does.
    """
    d = _degree(m)
    if memo is None or k >= d:
        return _psi_monomial(p, m, min(k, d))
    got = memo.get((m, k))
    if got is None:
        got = memo[m, k] = _psi_terms(p, m, k, memo)
    return got


def _reduced_psi(
    p: Packing, m: int, k: int | None = None, memo: dict | None = None
) -> frozenset[Pair]:
    """psi(m) + m (x) 1 + 1 (x) m on one packed monomial, cut to the terms
    x (x) y with |x| <= k when k is given.

    A cut below |m| is built from the cuts of m's factors, kept in memo when
    one is given, and m's own cut is not kept: a sieve stage asks for it once.
    """
    if k is None or k >= _degree(m):
        return _psi(p, m) ^ {_pair(m, ONE_CODE), _pair(ONE_CODE, m)}
    return _psi_terms(p, m, k, memo) ^ {_pair(ONE_CODE, m)}


def coproduct(e: Element) -> TensorElement:
    p = _packing(e.space)
    return p.tensor(p.linear(partial(_psi, p), e.terms))


def reduced_coproduct(e: Element) -> TensorElement:
    """psi(e) + e (x) 1 + 1 (x) e, for homogeneous e of positive dimension."""
    if e.space.has_charge() and e.charge not in (0, None):
        raise ChargeNonzero(f"primitives live on the charge-zero component, got charge {e.charge}")
    d = e.dimension
    if d is not None and d <= 0:
        raise UnsupportedOperand("reduced coproduct needs positive dimension")
    p = _packing(e.space)
    return p.tensor(p.linear(partial(_reduced_psi, p), e.terms))


def is_primitive(e: Element) -> bool:
    return not reduced_coproduct(e)


@lru_cache(maxsize=None)
def _reduced_psi_rows(space: SpaceDesc, degree: int) -> tuple[list[int], list[int]]:
    """The basis codes of one degree, charge zero on the unit-loop model, and
    the masks of their reduced psi.

    One matrix per degree: primitive_space takes its kernel, and every p_I of
    the degree reads its target and its correction columns from it.  Full
    rows, not the cut-by-cut sieve of screener._pri_ann_stages: the targets
    need whole rows, and staging the cuts made `verify --suite
    primitive-basis --max-degree 10` 1.5-2x slower.  The rows stream through
    masks_for_term_sets, each masked as soon as its reduced psi is made, so
    one row's terms are alive at a time.  The column order it picks changes
    no kernel combo and no unique _solve: both are fixed by the row order.
    """
    p = _packing(space)
    codes = _basis_codes(space, degree)
    return codes, masks_for_term_sets(_reduced_psi(p, c) for c in codes)[0]


def primitive_space(space: SpaceDesc, degree: int) -> list[Element]:
    """Basis (as elements) of the primitives in one degree, charge zero on
    the unit-loop model."""
    codes, masks = _reduced_psi_rows(space, degree)
    return [_element_from_codes(space, combo, codes) for combo in kernel_of_images(masks)]


# ---------------------------------------------------------------------------
# The halving map r (transpose of the entrywise doubling of sequences).


def square_root_r(e: Element) -> Element:
    """Linear map on the unit-loop model: halve every sequence entry.

    A monomial maps to zero when any entry of any of its sequences is odd;
    otherwise each Q^I becomes Q^(I/2), with exponents and the translation
    left alone.  Group-likes [k] are fixed.
    """
    if not e.space.has_charge():
        raise UnsupportedOperand("the halving map is defined on the unit-loop model")
    out: set[Monomial] = set()
    for m in e.terms:
        halved = _halve_monomial(m)
        if halved is not None:
            out ^= {halved}
    return Element(e.space, frozenset(out))


def _halve_monomial(m: Monomial) -> Monomial | None:
    factors = []
    for g, exp in m.factors:
        if any(i % 2 for i in g.seq.entries):
            return None
        factors.append((Generator(g.base, upper(*(i // 2 for i in g.seq.entries))), exp))
    return Monomial(tuple(sorted(factors)), m.translation)


def generator_family(degree: int, max_length: int | None = None) -> list[Monomial]:
    """The classes Q^I[1]*[-2^len(I)] of one degree, optionally capped in length."""
    return [
        m
        for m in single_generators(qs0_space(), degree)
        if max_length is None or len(m.factors[0][0].seq) <= max_length
    ]


def kernel_of_r(degree: int, max_length: int | None = None) -> list[Element]:
    """Kernel basis of the halving map on the span of the Q^I[1]*[-2^len(I)].

    Computed by honest linear algebra over the monomial basis.  Each returned
    vector is checked against the predicate "every participating sequence has
    an odd entry"; a violation would disprove the kernel description and is
    raised as a counterexample.
    """
    space = qs0_space()
    family = generator_family(degree, max_length)
    images = [square_root_r(Element(space, frozenset({m}))) for m in family]
    masks, _ = masks_for_term_sets([e.terms for e in images])
    kernel = []
    for combo in kernel_of_images(masks):
        picked = _picked(combo, family)
        for m in picked:
            if not any(i % 2 for i in m.factors[0][0].seq.entries):
                raise CounterexampleFound(
                    f"halving-map kernel touches the all-even class {m}"
                )
        kernel.append(Element(space, picked))
    return kernel


# ---------------------------------------------------------------------------
# The primitive basis p_I of odd degrees, unit-loop model, charge zero.


def qualifies_for_primitive(seq: UpperSeq) -> bool:
    """Admissible, nonempty, odd head, even tail, positive excess."""
    if not seq or not is_admissible(seq):
        return False
    if excess(seq) <= 0:
        return False
    head, *tail = seq.entries
    return head % 2 == 1 and all(i % 2 == 0 for i in tail)


class PrimitiveBasisElement(NamedTuple):
    seq: UpperSeq
    value: Element
    correction: Element

    @property
    def dimension(self) -> int:
        return sum(self.seq.entries)

    def __str__(self) -> str:
        return f"p_{self.seq.entries}"


@lru_cache(maxsize=None)
def _decomposable_columns(degree: int) -> tuple[list[int], Pivots, list[int]]:
    """The decomposable codes of charge-zero degree d, with the pivots of one
    elimination of their reduced-psi rows and the dependencies among them,
    shared by every p_I of the degree."""
    codes, masks = _reduced_psi_rows(qs0_space(), degree)
    columns = [(c, m) for c, m in zip(codes, masks) if _generator_index(c) is None]
    pivots, kernel = _eliminate([m for _, m in columns], True)
    return [c for c, _ in columns], pivots, kernel


@lru_cache(maxsize=None)
def make_primitive_pI(entries: tuple[int, ...]) -> PrimitiveBasisElement:
    seq = UpperSeq(entries)
    if not qualifies_for_primitive(seq):
        raise ValueError(
            f"{entries} does not qualify: need admissible, odd head, even tail, excess > 0"
        )
    space = qs0_space()
    degree = sum(entries)
    lead_gen = Generator(space.base_classes()[0], seq)
    top = generator_monomial(lead_gen, 1, -lead_gen.charge)
    lead = Element(space, frozenset({top}))
    # the lead is itself a charge-zero basis code of its degree, so its row
    # is the target
    codes, masks = _reduced_psi_rows(space, degree)
    target = masks[codes.index(_packing(space).encode(top))]
    if not target:
        return PrimitiveBasisElement(seq, lead, Element(space, frozenset()))
    decomposables, pivots, kernel = _decomposable_columns(degree)
    if kernel:
        raise NonUnique(f"decomposable correction for p_{entries} is not unique")
    try:
        combo = _solve(pivots, target)
    except NoSolution:
        raise NoSolution(f"no primitive of the shape Q^{entries}[1] + decomposables") from None
    correction = _element_from_codes(space, combo, decomposables)
    value = lead + correction
    if reduced_coproduct(value):
        raise NoSolution(f"correction for p_{entries} failed the primitivity check")
    return PrimitiveBasisElement(seq, value, correction)


# ---------------------------------------------------------------------------
# Decomposition of charge-zero classes over the p_I family.


def is_diff_of_powers_of_two(k: int) -> bool:
    """k == 2^b - 2^a for some a, b >= 0 (0 counts: a == b)."""
    if k == 0:
        return True
    v = abs(k)
    # v = 2^hi - 2^lo with hi > lo iff stripping low zeros leaves all ones
    low = (v & -v).bit_length() - 1
    shifted = v >> low
    return shifted & (shifted + 1) == 0


def _odd_cut(entries: tuple[int, ...]) -> int | None:
    """Where I = I' I'' is cut for Q^I' p_I'': at its last odd entry, which
    starts the tail I''; None when every entry is even."""
    return max((i for i, v in enumerate(entries) if v % 2), default=None)


class DecompositionTerm(NamedTuple):
    prefix: UpperSeq
    primitive: PrimitiveBasisElement
    translation_offset: int

    def honest_value(self) -> Element:
        return apply_Q_iterated(self.prefix, self.primitive.value)


class PrimitiveDecomposition(NamedTuple):
    element: Element
    terms: tuple[DecompositionTerm, ...]
    residual: Element

    def residual_root(self) -> Element:
        return self.residual.sqrt()

    def check(self) -> bool:
        """Recompute the defining identity element = sum(terms) + residual."""
        acc = self.residual
        for t in self.terms:
            acc = acc + t.honest_value()
        return acc == self.element


def primitive_decomposition(e: Element) -> PrimitiveDecomposition:
    """Split a primitive into Q^I' p_I'' contributions plus a residual.

    Every single-generator monomial Q^I[1]*[-2^len(I)] whose sequence has an
    odd entry is matched by applying the prefix before the last odd entry to
    the primitive of the remaining tail.  The recorded translation_offset is
    the translation mismatch against treating [k] factors as inert; it is
    always a difference of two powers of two.  For a primitive input the
    residual is zero in odd degrees and a square of a primitive in even ones;
    the caller can take residual_root() and recurse.
    """
    if not e.space.has_charge():
        raise UnsupportedOperand("decomposition is defined on the unit-loop model")
    if not is_primitive(e):
        raise NotPrimitive("decomposition over the p_I family needs a primitive input")
    linear, _ = split_decomposable(e)
    terms: list[DecompositionTerm] = []
    acc = e
    for m in sorted(linear.terms):
        seq = m.factors[0][0].seq
        b = _odd_cut(seq.entries)
        if b is None:
            continue
        prefix, tail = UpperSeq(seq.entries[:b]), UpperSeq(seq.entries[b:])
        p = make_primitive_pI(tail.entries)
        k_off = -(2 ** len(seq)) + 2 ** len(tail)
        if not is_diff_of_powers_of_two(k_off):
            raise NonUnique(f"translation bookkeeping broke: {k_off}")
        term = DecompositionTerm(prefix, p, k_off)
        terms.append(term)
        acc = acc + term.honest_value()
    return PrimitiveDecomposition(e, tuple(terms), acc)
