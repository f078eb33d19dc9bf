"""Dual Steenrod action and its interplay with the operations."""

from __future__ import annotations

import pytest

from loophomology.dlops import apply_Q, apply_Q_iterated
from loophomology.f2algebra import (
    Monomial,
    base_element,
    basis_enumerate,
    element_of,
    one,
    translation_class,
)
from loophomology.seqcore import upper
from loophomology.spaces import SqEntry, qs0_space, qsn_space, suspension_space, two_cell_space
from loophomology.steenrod import is_A_annihilated, sq_lower

QS0 = qs0_space()
QS1 = qsn_space(1)
QS3 = qsn_space(3)
X1 = base_element(QS1, QS1.base_classes()[0])
X3 = base_element(QS3, QS3.base_classes()[0])


def test_degree_drop_and_zero_cases():
    u = apply_Q(2, X1)
    out = sq_lower(1, u)
    assert out.dimension == 2
    assert sq_lower(0, u) == u
    assert sq_lower(5, u).is_zero  # drops below degree zero
    with pytest.raises(ValueError):
        sq_lower(-1, u)


def test_sphere_fixtures():
    # Sq^1 Q^4 x_3 = Q^3 x_3 = x_3^2
    assert sq_lower(1, apply_Q(4, X3)) == apply_Q(3, X3) == X3 * X3
    # odd upper index kills the r=1 action
    assert sq_lower(1, apply_Q(5, X1)).is_zero
    # base classes of a sphere carry no action
    assert sq_lower(1, X1).is_zero


def test_operator_identities_on_all_elements():
    # Sq^1 Q^{2d} = Q^{2d-1} and Sq^1 Q^{2d+1} = 0 as operators
    seeds = [X1, apply_Q(2, X1), apply_Q(2, X1) * X1 + apply_Q(3, X1)]
    for z in seeds:
        d_z = z.dimension
        for a in range(d_z, d_z + 8):
            u = apply_Q(a, z)
            if a % 2 == 0:
                assert sq_lower(1, u) == apply_Q(a - 1, z)
            else:
                assert sq_lower(1, u).is_zero


def test_square_rule():
    # Sq^{2t}(z^2) = (Sq^t z)^2 and odd Sq on squares vanishes
    zs = [apply_Q(2, X1), apply_Q(4, apply_Q(2, X1)), X1 * apply_Q(2, X1)]
    for z in zs:
        for t in range(0, 5):
            assert sq_lower(2 * t, z * z) == sq_lower(t, z).square()
            assert sq_lower(2 * t + 1, z * z).is_zero


def test_dual_cartan():
    pairs = [(X1, X1), (apply_Q(2, X1), X1), (apply_Q(3, X1), apply_Q(2, X1))]
    for u, v in pairs:
        for r in range(0, 7):
            rhs = element_of(QS1)
            for i in range(0, r + 1):
                rhs = rhs + sq_lower(i, u) * sq_lower(r - i, v)
            assert sq_lower(r, u * v) == rhs


def test_translations_are_inert():
    for k in (-2, 1, 3):
        t = translation_class(QS0, k)
        assert sq_lower(0, t) == t
        assert sq_lower(1, t).is_zero
    # translations ride along under the action
    u = apply_Q(2, translation_class(QS0, 1)) * translation_class(QS0, -2)
    v = sq_lower(1, u)
    assert v == apply_Q(1, translation_class(QS0, 1)) * translation_class(QS0, -2)
    assert v.charge == 0


def test_translation_factor_splits_off_through_cartan():
    # Sq^r_*(m [t]) = Sq^r_*(m) [t] on every qs0 monomial with a translation
    for charge in range(-2, 3):
        for degree in range(1, 11):
            for m in basis_enumerate(QS0, degree, charge):
                if not m.translation:
                    continue
                bare = element_of(QS0, Monomial(m.factors))
                shift = translation_class(QS0, m.translation)
                for r in range(1, degree + 1):
                    assert sq_lower(r, element_of(QS0, m)) == sq_lower(r, bare) * shift


def test_nishida_closure_low_degrees():
    # the action keeps every basis monomial inside the enumerated basis
    for degree in range(1, 8):
        for m in basis_enumerate(QS1, degree):
            for r in range(1, degree + 1):
                img = sq_lower(r, element_of(QS1, m))
                if img.is_zero:
                    continue
                assert img.terms <= set(basis_enumerate(QS1, degree - r))


def test_two_cell_base_action():
    space = suspension_space({"a": 1, "b": 2}, (SqEntry(1, "b", ("a",)),), level=2)
    a3, b4 = space.base_classes()
    eb = base_element(space, b4)
    assert sq_lower(1, eb) == base_element(space, a3)
    assert sq_lower(2, eb).is_zero
    # the attached action threads through operations: closure only
    out = sq_lower(1, apply_Q(5, eb))
    assert out.is_zero or out.dimension == 8
    # the stock fixture has no action at all
    plain_b = two_cell_space().base_classes()[1]
    assert sq_lower(1, base_element(two_cell_space(), plain_b)).is_zero


def test_annihilated_predicate():
    assert is_A_annihilated(X1)
    assert not is_A_annihilated(apply_Q(4, X1))  # Sq^1 hits Q^3 x_1
    assert not is_A_annihilated(apply_Q(5, X1))  # Sq^2 hits Q^3 x_1
    assert is_A_annihilated(apply_Q_iterated(upper(5, 3), X1))
    assert is_A_annihilated(element_of(QS1))  # zero vacuously
    assert is_A_annihilated(one(QS0))
