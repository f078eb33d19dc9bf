"""hopf-consistency's packed case against the element-level case it replaced.

`certify._hopf_case` checks the Hopf identities on packed codes, with the
cached psi and Sq^1_* the kernels use.  The oracle below is the former case,
written on Monomial, Element and TensorElement through the public
`coproduct`, `expand_slot`, `counit` and `sq_lower`.  Both must return the
same (ok, count, detail).
"""

from __future__ import annotations

import pytest

from loophomology import certify
from loophomology.f2algebra import Element, Monomial, basis_enumerate, expand_slot
from loophomology.hopf import coproduct, counit
from loophomology.spaces import SpaceDesc, qs0_space, qsn_space, two_cell_space
from loophomology.steenrod import sq_lower


def _monomial_element(space: SpaceDesc, m: Monomial) -> Element:
    return Element(space, frozenset({m}))


def element_hopf_case(args: tuple[SpaceDesc, int]) -> tuple[bool, int, str]:
    space, degree = args

    def psi(mono: Monomial):
        return coproduct(_monomial_element(space, mono))

    basis = basis_enumerate(space, degree)
    checked = 0
    for m in basis:
        e = _monomial_element(space, m)
        pairs = coproduct(e)
        if expand_slot(pairs, 0, psi) != expand_slot(pairs, 1, psi):
            return False, 0, f"coassociativity fails on {m}"
        if {(v, u) for u, v in pairs.terms} != pairs.terms:
            return False, 0, f"cocommutativity fails on {m}"
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
        for u in basis_enumerate(space, d_left):
            for v in basis_enumerate(space, degree - d_left):
                prod = _monomial_element(space, u) * _monomial_element(space, v)
                if coproduct(prod) != psi(u) * psi(v):
                    return False, 0, f"multiplicativity fails on {u} | {v}"
                checked += 1
    return True, checked, ""


CASES = [(space, d) for space in (qsn_space(1), qs0_space()) for d in range(1, 8)]
CASES += [(two_cell_space(), d) for d in range(1, 7)]


@pytest.mark.parametrize("case", CASES, ids=[f"{s.label}-{d}" for s, d in CASES])
def test_packed_case_equals_the_element_case(case):
    got = certify._hopf_case(case)
    assert got == element_hopf_case(case)
    assert got[0]
