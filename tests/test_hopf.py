"""Coproduct, primitives, the halving map, and the p_I machinery."""

from __future__ import annotations

import itertools
from typing import NamedTuple

import pytest
from test_linalg_f2 import in_span

from loophomology import hopf
from loophomology.dlops import apply_Q, apply_Q_iterated
from loophomology.certify import _odd_cut
from loophomology.errors import (
    ChargeNonzero,
    LoopHomologyError,
    NonUnique,
    UnsupportedOperand,
)
from loophomology.f2algebra import (
    Element,
    Monomial,
    basis_enumerate,
    base_element,
    element_of,
    masks_for_term_sets,
    TensorElement,
    _picked,
    one,
    split_decomposable,
    translation_class,
)
from loophomology.hopf import (
    PrimitiveBasisElement,
    coproduct,
    generator_family,
    is_primitive,
    kernel_of_r,
    make_primitive_pI,
    primitive_space,
    qualifies_for_primitive,
    reduced_coproduct,
    square_root_r,
)
from loophomology.linalg_f2 import span_intersection
from loophomology.seqcore import UpperSeq, upper
from loophomology.spaces import qs0_space, qsn_space

QS0 = qs0_space()
QS1 = qsn_space(1)
X1 = base_element(QS1, QS1.base_classes()[0])


def tensor_of(*elements: Element) -> TensorElement:
    """The tensor product of elements, term by term: the coproduct tests' oracle."""
    acc: set[tuple[Monomial, ...]] = set()
    for combo in itertools.product(*(e.sorted_terms() for e in elements)):
        acc ^= {tuple(combo)}
    return TensorElement(elements[0].space, len(elements), frozenset(acc))


def test_group_likes():
    for k in (-2, 1, 3):
        t = translation_class(QS0, k)
        assert coproduct(t) == tensor_of(t, t)
    assert coproduct(one(QS1)) == tensor_of(one(QS1), one(QS1))


def test_translation_factor_is_group_like_through_cartan():
    # psi(m [t]) = psi(m) ([t] (x) [t]) on every qs0 monomial with a translation
    for charge in range(-2, 3):
        for degree in range(1, 11):
            for m in basis_enumerate(QS0, degree, charge):
                if not m.translation:
                    continue
                shift = translation_class(QS0, m.translation)
                bare = coproduct(element_of(QS0, Monomial(m.factors)))
                assert coproduct(element_of(QS0, m)) == bare * tensor_of(shift, shift)


def test_sphere_class_is_primitive():
    assert coproduct(X1) == tensor_of(X1, one(QS1)) + tensor_of(one(QS1), X1)
    assert is_primitive(X1)
    assert is_primitive(apply_Q(2, X1))


def test_reduced_coproduct_of_cube():
    x2, x1 = X1 * X1, X1
    expected = tensor_of(x2, x1) + tensor_of(x1, x2)
    assert reduced_coproduct(X1 * X1 * X1) == expected
    assert not is_primitive(X1 * X1 * X1)


def test_a_tensor_prints_its_terms_in_order():
    assert str(coproduct(X1)) == "1 (x) x_1 + x_1 (x) 1"
    assert str(reduced_coproduct(X1 * X1 * X1)) == "x_1 (x) x_1^2 + x_1^2 (x) x_1"
    assert str(reduced_coproduct(X1 * X1)) == "0"


def test_primitive_space_fixtures():
    (p1,) = primitive_space(QS1, 1)
    assert p1 == X1
    (p3,) = primitive_space(QS1, 3)
    assert p3 == apply_Q(2, X1)
    assert len(primitive_space(QS0, 3)) == 2


def test_one_reduced_psi_matrix_per_degree():
    hopf._reduced_psi_rows.cache_clear()
    primitive_space(QS0, 9)
    primitive_space(QS0, 9)
    assert hopf._reduced_psi_rows.cache_info().misses == 1


def test_halving_map_fixtures():
    lead = element_of(QS0, basis_enumerate(QS0, 6, 0)[0])
    assert str(lead) == "Q^(4,2)[1] * [-4]"
    assert str(square_root_r(lead)) == "Q^(2,1)[1] * [-4]"
    odd = element_of(QS0, basis_enumerate(QS0, 3, 0)[0])
    assert str(odd) == "Q^(2,1)[1] * [-4]"
    assert square_root_r(odd).is_zero
    assert square_root_r(translation_class(QS0, 3)) == translation_class(QS0, 3)
    with pytest.raises(UnsupportedOperand):
        square_root_r(X1)


def test_generator_family():
    fam3 = [str(m) for m in generator_family(3)]
    assert fam3 == ["Q^(2,1)[1] * [-4]", "Q^3[1] * [-2]"]
    assert [str(m) for m in generator_family(3, max_length=1)] == ["Q^3[1] * [-2]"]


@pytest.mark.parametrize("degree", range(1, 17))
def test_generator_family_is_the_single_generators_of_the_basis(degree):
    # oracle: the charge-0 basis cut down to its single generators
    singles = [m for m in basis_enumerate(QS0, degree, 0) if m.gen_length == 1]
    for max_length in (None, 1, 2, 3):
        expected = [
            m for m in singles if max_length is None or len(m.factors[0][0].seq) <= max_length
        ]
        assert generator_family(degree, max_length) == expected


@pytest.mark.parametrize("degree", range(-1, 11))
def test_halving_kernel_is_the_odd_entry_span(degree):
    kernel = kernel_of_r(degree, max_length=3)
    odd = [
        m
        for m in generator_family(degree, max_length=3)
        if any(i % 2 for i in m.factors[0][0].seq.entries)
    ]
    assert {e.terms for e in kernel} == {frozenset({m}) for m in odd}


def test_qualification_predicate():
    assert qualifies_for_primitive(upper(3))
    assert qualifies_for_primitive(upper(3, 2))
    assert not qualifies_for_primitive(upper(2))
    assert not qualifies_for_primitive(upper(3, 1))  # odd tail
    assert not qualifies_for_primitive(upper())
    assert not qualifies_for_primitive(upper(2, 3))  # inadmissible


def test_p1_and_p3():
    p1 = make_primitive_pI((1,))
    assert str(p1.value) == "Q^1[1] * [-2]"
    assert p1.correction.is_zero
    p3 = make_primitive_pI((3,))
    assert str(p3.value) == (
        "Q^3[1] * [-2] + Q^2[1] Q^1[1] * [-4] + (Q^1[1])^3 * [-6]"
    )
    assert is_primitive(p3.value)
    assert p3.dimension == 3
    with pytest.raises(ValueError):
        make_primitive_pI((2,))
    assert make_primitive_pI(upper(3).entries) is p3  # cached


def test_operations_preserve_primitivity():
    p1 = make_primitive_pI((1,))
    q2p1 = apply_Q(2, p1.value)
    assert str(q2p1) == "Q^(2,1)[1] * [-4]"
    assert is_primitive(q2p1)
    p3 = make_primitive_pI((3,))
    for a in (4, 5, 6):
        img = apply_Q(a, p3.value)
        assert img.is_zero or is_primitive(img)


# ---------------------------------------------------------------------------
# The decomposition of a primitive over the p_I family.  The package does not
# split a given primitive: the primitive-basis suite certifies that the family
# spans.  The split stays here as an oracle on the p_I.


class NotPrimitive(LoopHomologyError):
    """Primitive decomposition requested of a non-primitive element."""


def is_diff_of_powers_of_two(k: int) -> bool:
    """k == 2^b - 2^a for some a, b >= 0 (0 counts: a == b)."""
    if k == 0:
        return True
    v = abs(k)
    # v = 2^hi - 2^lo with hi > lo iff stripping low zeros leaves all ones
    low = (v & -v).bit_length() - 1
    shifted = v >> low
    return shifted & (shifted + 1) == 0


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


@pytest.mark.parametrize("entries, cut", [
    ((), None),
    ((2,), None),
    ((4, 2), None),
    ((3,), 0),
    ((4, 3), 1),
    ((5, 2), 0),
    ((3, 2, 1), 2),
    ((7, 3, 2), 1),
    ((6, 3, 2), 1),
])
def test_odd_cut_is_the_last_odd_entry(entries, cut):
    # primitive-basis cuts each sequence of its family there: Q^I' p_I''
    # needs I'' to have an odd head and an even tail
    assert _odd_cut(entries) == cut


def test_decomposition_identity_case():
    p3 = make_primitive_pI((3,))
    dec = primitive_decomposition(p3.value)
    assert dec.check()
    assert len(dec.terms) == 1
    (t,) = dec.terms
    assert t.prefix == upper() and t.primitive is p3 and t.translation_offset == 0
    assert dec.residual.is_zero


def test_decomposition_split_case():
    # the degree-7 primitive headed by Q^(4,3)[1]*[-4] splits off Q^(4) p_(3)
    head = next(m for m in basis_enumerate(QS0, 7, 0) if str(m) == "Q^(4,3)[1] * [-4]")
    e = next(p for p in primitive_space(QS0, 7) if head in p.terms)
    dec = primitive_decomposition(e)
    assert dec.check() and dec.residual.is_zero
    (t,) = dec.terms
    assert t.prefix == upper(4)
    assert t.primitive.seq == upper(3)
    assert t.translation_offset == -2
    assert is_diff_of_powers_of_two(t.translation_offset)


def test_decomposition_square_case():
    p1 = make_primitive_pI((1,))
    sq = p1.value * p1.value
    dec = primitive_decomposition(sq)
    assert dec.check()
    assert not dec.terms
    assert dec.residual.is_square() and dec.residual_root() == p1.value


def test_decomposition_guards():
    with pytest.raises(NotPrimitive):
        primitive_decomposition(element_of(QS0, basis_enumerate(QS0, 3, 0)[1]))
    with pytest.raises(ChargeNonzero):
        primitive_decomposition(translation_class(QS0, 1))
    with pytest.raises(UnsupportedOperand):
        primitive_decomposition(X1)


@pytest.mark.parametrize("degree", range(1, 12))
def test_decomposition_residuals(degree):
    for p in primitive_space(QS0, degree):
        dec = primitive_decomposition(p)
        assert dec.check()
        for t in dec.terms:
            assert is_diff_of_powers_of_two(t.translation_offset)
        if degree % 2:
            assert dec.residual.is_zero
        else:
            assert dec.residual.is_zero or dec.residual.is_square()


@pytest.mark.parametrize("degree", (2, 4, 6, 8, 10, 12))
def test_decomposable_primitives_are_squares(degree):
    # desk-scale Milnor-Moore over the first sphere: a primitive lying in the
    # decomposable span must be the square of a primitive of half the degree
    basis = basis_enumerate(QS1, degree)
    prims = primitive_space(QS1, degree)
    decs = [frozenset({m}) for m in basis if m.gen_length >= 2]
    masks, ordered = masks_for_term_sets([p.terms for p in prims] + decs)
    pm, dm = masks[: len(prims)], masks[len(prims):]
    found = 0
    for v in span_intersection(pm, dm):
        e = Element(QS1, _picked(v, ordered))
        assert e.is_square()
        root = e.sqrt()
        assert is_primitive(root)
        assert in_span_of_prims(root, primitive_space(QS1, degree // 2))
        found += 1
    # the square of every half-degree primitive sits in that intersection
    assert found >= len(primitive_space(QS1, degree // 2)) > 0


def in_span_of_prims(e: Element, prims: list[Element]) -> bool:
    masks, _ = masks_for_term_sets([p.terms for p in prims] + [e.terms])
    return in_span(masks[-1], masks[:-1])


def test_translation_recentring_keeps_primitivity():
    p3 = make_primitive_pI((3,))
    shifted = p3.value * translation_class(QS0, 4)
    assert shifted.charge == 4
    recentred = shifted * translation_class(QS0, -4)
    assert recentred == p3.value and is_primitive(recentred)
    assert coproduct(shifted) == coproduct(p3.value) * coproduct(translation_class(QS0, 4))


def test_diff_of_powers_of_two():
    yes = [0, 1, 2, 4, 6, 12, -2, -6, 96]
    no = [5, 10, 9, -5, 11]
    for k in yes:
        assert is_diff_of_powers_of_two(k), k
    for k in no:
        assert not is_diff_of_powers_of_two(k), k
