"""Homology suspension across the tower and loop filtration levels."""

from __future__ import annotations

import pytest
from test_linalg_f2 import in_span

from loophomology.certify import DEFAULT_DEGREE_BUDGET
from loophomology.dlops import apply_Q, apply_Q_iterated
from loophomology.errors import NoSuccessor
from loophomology.f2algebra import (
    Element,
    _basis_codes,
    _packing,
    base_element,
    basis_enumerate,
    element_of,
    masks_for_term_sets,
    zero,
)
from loophomology.seqcore import upper
from loophomology.spaces import SqEntry, qs0_space, qsn_space, suspension_space, two_cell_space
from loophomology.steenrod import sq_lower
from loophomology.suspension import (
    _suspend_codes,
    loop_level,
    suspend,
    suspension_kernel_basis,
    within_loop_filtration,
)

QS0, QS1, QS2 = qs0_space(), qsn_space(1), qsn_space(2)
X1 = base_element(QS1, QS1.base_classes()[0])
X2 = base_element(QS2, QS2.base_classes()[0])


def in_suspension_image(e: Element) -> bool:
    """Whether e is hit by the suspension from the predecessor space: the
    oracle these tests use, by elimination against the image of every basis
    monomial one degree down."""
    if not e.terms:
        return True
    pred = e.space.predecessor()  # raises NoSuccessor at the bottom of the tower
    source, target = _packing(pred), _packing(e.space)
    images = [_suspend_codes(source, target, (c,)) for c in _basis_codes(pred, e.dimension - 1)]
    masks, _ = masks_for_term_sets(images + [target.encode_set(e.terms)])
    return in_span(masks[-1], masks[:-1])


def test_suspend_generators():
    assert suspend(X1) == X2
    assert suspend(apply_Q_iterated(upper(5, 3), X1)) == apply_Q_iterated(upper(5, 3), X2)
    # the image normalizes through the excess-equals-base rewrite
    assert str(suspend(apply_Q_iterated(upper(5, 3), X1))) == "(Q^3 x_2)^2"


COMMUTING_CASES = [
    (QS0, 12),
    (QS1, 12),
    (two_cell_space(), 10),
    (suspension_space({"a": 1, "b": 2}, (SqEntry(1, "b", ("a",)),)), 10),
    (suspension_space({"a": 1, "b": 5}, (SqEntry(4, "b", ("a",)),)), 12),
]


@pytest.mark.parametrize(
    "space, top", COMMUTING_CASES, ids=["qs0", "qs1", "two-cell", "a1b2-sq1", "a1b5-sq4"]
)
def test_suspension_commutes_with_the_operations(space, top):
    # sigma Sq^r_* = Sq^r_* sigma and sigma Q^a = Q^a sigma (Cohen-Lada-May),
    # on every basis monomial m with |m| <= top, for 1 <= r <= |m| and every
    # a >= |m| with |Q^a m| inside the degree budget
    for degree in range(1, top + 1):
        for m in basis_enumerate(space, degree):
            x = element_of(space, m)
            sx = suspend(x)
            for r in range(1, degree + 1):
                assert suspend(sq_lower(r, x)) == sq_lower(r, sx), (str(m), "Sq", r)
            for a in range(degree, DEFAULT_DEGREE_BUDGET - degree + 1):
                assert suspend(apply_Q(a, x)) == apply_Q(a, sx), (str(m), "Q", a)


def test_suspend_kills_decomposables():
    q2 = apply_Q(2, X1)
    assert suspend(q2 * q2).is_zero
    assert suspend(X1 * X1).is_zero
    assert suspend(q2 * X1).is_zero
    assert suspend(zero(QS1)).is_zero


def test_suspend_off_the_unit_component():
    got = {str(m): str(suspend(element_of(QS0, m))) for m in basis_enumerate(QS0, 3, 0)}
    assert got == {
        "Q^(2,1)[1] * [-4]": "x_1^4",
        "Q^3[1] * [-2]": "Q^3 x_1",
        "Q^2[1] Q^1[1] * [-4]": "0",
        "(Q^1[1])^3 * [-6]": "0",
    }


def test_tower_bottom_has_no_predecessor():
    # membership in a suspension image needs a space one level down
    with pytest.raises(NoSuccessor):
        in_suspension_image(element_of(QS0, basis_enumerate(QS0, 3, 0)[0]))
    # every space suspends upward, including the two-cell model
    eb = base_element(two_cell_space(), two_cell_space().base_classes()[0])
    assert suspend(eb).dimension == 4


def test_degree_shift():
    for degree in range(1, 7):
        for m in basis_enumerate(QS1, degree):
            img = suspend(element_of(QS1, m))
            assert img.is_zero or img.dimension == degree + 1


def test_kernel_fixtures():
    assert [str(e) for e in suspension_kernel_basis(QS1, 2)] == ["x_1^2"]
    assert suspension_kernel_basis(QS1, 1) == []
    got = {str(e) for e in suspension_kernel_basis(QS0, 3)}
    assert got == {"Q^2[1] Q^1[1] * [-4]", "(Q^1[1])^3 * [-6]"}


@pytest.mark.parametrize("degree", range(-1, 9))
def test_kernel_equals_decomposable_span(degree):
    kernel = suspension_kernel_basis(QS1, degree)
    decomposables = [m for m in basis_enumerate(QS1, degree) if m.gen_length >= 2]
    assert len(kernel) == len(decomposables)
    assert all(all(m.gen_length >= 2 for m in e.terms) for e in kernel)


def test_image_membership():
    assert in_suspension_image(X1 * X1 * X1 * X1)  # sigma of Q^(2,1)[1]*[-4]
    assert in_suspension_image(apply_Q(2, X1))
    assert not in_suspension_image(X1)  # nothing below in degree 0
    assert in_suspension_image(zero(QS1))


def test_loop_level():
    (m1,) = basis_enumerate(QS1, 1)
    assert loop_level(m1) == 1  # operation-free
    (m953,) = [m for m in basis_enumerate(QS1, 9) if "(5,3)" in str(m)]
    assert loop_level(m953) == 3  # lower indices (1, 2)
    (m8,) = [m for m in basis_enumerate(QS1, 9) if str(m) == "Q^8 x_1"]
    assert loop_level(m8) == 8
    # products take the max over factors
    q2 = apply_Q(2, X1)
    (prod,) = (q2 * X1).terms
    assert loop_level(prod) == 2


def test_filtration_membership():
    (m953,) = [m for m in basis_enumerate(QS1, 9) if "(5,3)" in str(m)]
    assert within_loop_filtration(m953, 3)
    assert not within_loop_filtration(m953, 2)
    assert within_loop_filtration(m953, None)
