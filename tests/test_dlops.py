"""Operation calculus: instability, squaring, Cartan, straightening."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import pytest

from loophomology.dlops import adem_pairs, apply_Q, apply_Q_iterated, lucas_binom
from loophomology.f2algebra import (
    Generator,
    basis_enumerate,
    base_element,
    element_of,
    generator_monomial,
    one,
    translation_class,
    zero,
)
from loophomology.seqcore import upper
from loophomology.spaces import qs0_space, qsn_space

QS0 = qs0_space()
QS1 = qsn_space(1)
X1 = base_element(QS1, QS1.base_classes()[0])


def test_lucas_matches_comb():
    for n in range(0, 40):
        for k in range(0, 40):
            assert lucas_binom(n, k) == math.comb(n, k) % 2 if k <= n else lucas_binom(n, k) == 0
    # negative upper argument is declared zero
    assert lucas_binom(-1, 0) == 0
    assert lucas_binom(-3, 2) == 0


def test_straightening_fixtures():
    assert adem_pairs(5, 1) == frozenset({(3, 3)})
    assert adem_pairs(4, 1) == frozenset({(3, 2)})
    assert adem_pairs(5, 0) == frozenset({(1, 4)})
    assert adem_pairs(2, 0) == frozenset({(1, 1)})
    assert adem_pairs(3, 1) == frozenset()


def test_straightening_requires_inadmissible_pair():
    with pytest.raises(ValueError):
        adem_pairs(2, 1)


def test_instability_and_squaring():
    assert apply_Q(0, X1).is_zero
    assert apply_Q(1, X1) == X1 * X1
    q2 = apply_Q(2, X1)
    assert str(q2) == "Q^2 x_1"
    # top operation is the Frobenius square, on every element
    assert apply_Q(3, q2) == q2 * q2
    assert apply_Q(2, X1 * X1) == (X1 * X1) * (X1 * X1)
    assert apply_Q(1, X1 * X1).is_zero


def test_additivity():
    u = apply_Q(2, X1)
    v = X1 * X1 * X1
    assert apply_Q(5, u + v) == apply_Q(5, u) + apply_Q(5, v)
    assert apply_Q(5, zero(QS1)).is_zero


def test_square_intertwines():
    # Q^{2a}(z^2) == (Q^a z)^2
    for a in range(1, 7):
        for z in (X1, apply_Q(2, X1), X1 * X1 + apply_Q(2, X1) * X1):
            assert apply_Q(2 * a, z * z) == apply_Q(a, z) * apply_Q(a, z)


def test_cartan_on_products():
    elems = [X1, apply_Q(2, X1), X1 * X1]
    for a in range(0, 9):
        for u, v in product(elems, repeat=2):
            rhs = zero(QS1)
            for i in range(0, a + 1):
                rhs = rhs + apply_Q(i, u) * apply_Q(a - i, v)
            assert apply_Q(a, u * v) == rhs


def test_unit_component_relations():
    unit = one(QS0)
    assert apply_Q(0, unit) == unit
    for a in range(1, 6):
        assert apply_Q(a, unit).is_zero
    bracket1 = translation_class(QS0, 1)
    # zero-dimensional classes square under the bottom operation
    assert apply_Q(0, bracket1) == bracket1 * bracket1
    q21 = apply_Q(2, bracket1)
    assert str(q21) == "Q^2[1]"
    assert q21.charge == 2


def test_charge_doubles_along_operations():
    e = translation_class(QS0, 1)
    for a in (1, 2, 3):
        e = apply_Q(2 * a, e)  # keep uppers admissible enough to survive
    assert e.charge == 8


def test_negative_translation_action():
    # Q^a[-1] expands through the unit relation; closure check only
    em = translation_class(QS0, -1)
    out = apply_Q(2, em)
    assert out.charge == -2 or out.is_zero
    for m in out.terms:
        assert m.dimension == 2


def test_iterated_fixtures():
    assert str(apply_Q_iterated(upper(5, 3), X1)) == "Q^(5,3) x_1"
    # an inadmissible iterate straightens: Q^3 Q^2 = 0 on x_1 by the fixture table
    assert apply_Q_iterated(upper(3, 2), X1) == apply_Q(3, apply_Q(2, X1))
    assert apply_Q_iterated(upper(), X1) == X1
    # leading entry equal to the inner dimension squares
    inner = apply_Q(2, X1)
    assert apply_Q_iterated(upper(3, 2), X1) == inner * inner


def test_straightened_equals_composed():
    # composition of single operations agrees with the normalized sequence
    for r, s in [(5, 1), (4, 1), (5, 2), (7, 3), (6, 2)]:
        lhs = apply_Q(r, apply_Q(s, X1))
        rhs = apply_Q_iterated(upper(r, s), X1)
        assert lhs == rhs


def test_operations_preserve_basis_membership():
    # every Q^a of a basis monomial re-expands inside the enumerated basis
    for degree in range(1, 7):
        for m in basis_enumerate(QS1, degree):
            e = element_of(QS1, m)
            for a in range(0, 8):
                img = apply_Q(a, e)
                if img.is_zero:
                    continue
                allowed = set(basis_enumerate(QS1, a + degree))
                assert img.terms <= allowed


def test_large_translation_recursion_stays_shallow():
    # the translation recursion halves k, so |k| in the thousands is fine;
    # Q^2[3000] = (Q^1[1500])^2 and Q^1 kills the even class [1500]
    assert apply_Q(2, translation_class(QS0, 3000)).is_zero
    bracket = translation_class(QS0, 1)
    assert apply_Q(2, translation_class(QS0, 3001)) == apply_Q(2, bracket) * translation_class(
        QS0, 6000
    )
    out = apply_Q(2, translation_class(QS0, -3001))
    assert out.charge == -6002
    assert all(m.dimension == 2 for m in out.terms)


@lru_cache(maxsize=None)
def _linear_q_translation(a: int, k: int):
    """Q^a[k] by the unit-step Cartan recursion Q^a[k] = sum Q^i[s] Q^(a-i)[k-s]."""
    if k in (-1, 0, 1):
        return apply_Q(a, translation_class(QS0, k))
    step = 1 if k > 0 else -1
    acc = zero(QS0)
    for i in range(a + 1):
        acc = acc + _linear_q_translation(i, step) * _linear_q_translation(a - i, k - step)
    return acc


def test_translation_action_matches_the_linear_recursion():
    for k in range(-64, 65):
        for a in range(0, 7):
            assert apply_Q(a, translation_class(QS0, k)) == _linear_q_translation(a, k), (a, k)
