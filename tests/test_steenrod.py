"""Dual Steenrod action and its interplay with the operations."""

from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

import pytest
from test_kernel_rows import primitive_annihilated_basis

from loophomology import certify
from loophomology.dlops import _q_monomial, apply_Q, apply_Q_iterated, lucas_binom
from loophomology.f2algebra import (
    _EMPTY,
    ONE_CODE,
    Generator,
    Monomial,
    _basis_codes,
    _degree,
    _mul_sets,
    _packing,
    base_element,
    basis_enumerate,
    element_of,
    one,
    translation_class,
)
from loophomology.seqcore import UpperSeq, upper
from loophomology.spaces import (
    SqEntry,
    qs0_space,
    qsn_space,
    space_from_dict,
    suspension_space,
    two_cell_space,
)
from loophomology.steenrod import _sq_monomial, _sq_total, is_A_annihilated, sq_lower

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


# ---------------------------------------------------------------------------
# The total Sq_* against the former per-r recursion.


def _oracle(p):
    """Sq^r_* m by its own Cartan sum for each r, as the engine once computed it."""

    @functools.cache
    def sq(r: int, m: int) -> frozenset[int]:
        if r == 0:
            return frozenset({m})
        if r > _degree(m):
            return _EMPTY
        i, u, v = p.split(m)
        if v != ONE_CODE:
            acc: set[int] = set()
            for j in range(r + 1):
                acc ^= _mul_sets(sq(j, u), sq(r - j, v))
            return frozenset(acc)
        g = p.gens[i]
        out: set[int] = set()
        if not g.seq:
            for t in p.space.base_sq_action(r, g.base):
                out ^= {p.generator_code(Generator(t, UpperSeq(())))}
            return frozenset(out)
        a, z = p.peel(i)
        for t in range(r // 2 + 1):
            if lucas_binom(a - r, r - 2 * t):
                for w in sq(t, z):
                    out ^= _q_monomial(p, a - r + t, w)
        return frozenset(out)

    return sq


def _workload_descriptions() -> dict:
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DESCRIPTIONS


QS2 = qsn_space(2)
ORACLE_CASES = {
    "qs0": (QS0, 12, (-2, -1, 0, 1, 2)),
    "qs1": (QS1, 12, (None,)),
    "qs2": (QS2, 12, (None,)),
    "two-cell": (two_cell_space(), 12, (None,)),
    "a1b5-sq4": (suspension_space({"a": 1, "b": 5}, (SqEntry(4, "b", ("a",)),)), 12, (None,)),
    **{name: (space_from_dict(d), 12, (None,)) for name, d in _workload_descriptions().items()},
}


def _oracle_codes(space, top, charges):
    for degree in range(1, top + 1):
        for charge in charges:
            yield from _basis_codes(space, degree, charge)


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_every_slice_of_the_total_matches_the_per_r_recursion(name):
    space, top, charges = ORACLE_CASES[name]
    p = _packing(space)
    oracle = _oracle(p)
    checked = 0
    for m in _oracle_codes(space, top, charges):
        total = _sq_total(p, m)
        assert m in total and all(_degree(w) <= _degree(m) for w in total)
        for r in range(_degree(m) + 2):
            assert _sq_monomial(p, r, m) == oracle(r, m), (str(p.decode(m)), r)
            checked += 1
    assert checked


def _annihilated_by_every_square(e) -> bool:
    return all(not sq_lower(r, e) for r in range(1, e.dimension + 1))


def test_annihilated_predicate_contract():
    assert is_A_annihilated(element_of(QS0))  # the zero element
    assert is_A_annihilated(translation_class(QS0, 3))  # dimension 0
    assert is_A_annihilated(translation_class(QS0, -2) + translation_class(QS0, 1))
    with pytest.raises(ValueError, match="not homogeneous"):
        is_A_annihilated(X1 + X1 * X1)


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_annihilated_predicate_agrees_with_every_square(name):
    space, top, charges = ORACLE_CASES[name]
    p = _packing(space)
    for degree in range(1, top + 1):
        for charge in charges:
            elements = [element_of(space, p.decode(m)) for m in _basis_codes(space, degree, charge)]
            # single monomials, and sums of neighbours so that cancellation is tried
            elements += [a + b for a, b in zip(elements, elements[1:])]
            for e in elements:
                assert is_A_annihilated(e) == _annihilated_by_every_square(e), str(e)


def test_annihilated_predicate_agrees_on_a_kernel():
    kernel = primitive_annihilated_basis(QS0, 15)
    assert kernel
    for e in kernel:
        assert is_A_annihilated(e) and _annihilated_by_every_square(e), str(e)


def test_even_squares_leaves_few_total_entries():
    # one cached Sq_* per monomial; the former per-r recursion left 12,481
    # entries of _sq_monomial here
    _sq_total.cache_clear()
    _sq_monomial.cache_clear()
    result = certify.suite_even_squares(16)
    assert result.passed
    assert _sq_total.cache_info().currsize <= 2500
