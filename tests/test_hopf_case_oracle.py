"""hopf-consistency's packed case against the element-level case it replaced.

`certify._hopf_walk` checks the Hopf identities on packed codes, with the
cached psi and Sq^1_* the kernels use.  The oracle below is the former case,
written on Monomial, Element and TensorElement through the public
`coproduct`, `expand_slot` and `sq_lower`, with the counit below.  Both must
return the same (ok, count, detail).
"""

from __future__ import annotations

import pytest
from test_certify import hopf_case

from loophomology import certify
from loophomology.f2algebra import (
    Element,
    Monomial,
    _packing,
    _pair,
    _times,
    basis_enumerate,
    expand_slot,
)
from loophomology.hopf import coproduct
from loophomology.spaces import SpaceDesc, qs0_space, qsn_space, two_cell_space
from loophomology.steenrod import sq_lower


def counit(m: Monomial) -> int:
    return 1 if m.dimension == 0 else 0


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
    got = hopf_case(case)
    assert got == element_hopf_case(case)
    assert got[0]


def test_the_first_failing_pair_of_two_degrees_is_named_as_the_ordered_sweep_names_it(
    monkeypatch,
):
    # psi(x_1^3) = x_1^3 (x) 1 + 1 (x) x_1^3 is coassociative, cocommutative
    # and counital, but psi(x_1) psi(x_1^2) has x_1^2 (x) x_1 + x_1 (x) x_1^2
    # too: multiplicativity fails first on x_1 | x_1^2, of degrees 1 and 2
    space = qsn_space(1)
    p = _packing(space)
    (x1,), (x1_2,) = (map(p.encode, basis_enumerate(space, d)) for d in (1, 2))
    x1_3 = _times(x1, x1_2)
    extra = {_pair(x1_2, x1), _pair(x1, x1_2)}
    real_psi, real_coproduct = certify._psi, coproduct

    def packed(q, code):
        return real_psi(q, code) ^ extra if q is p and code == x1_3 else real_psi(q, code)

    def element(e: Element):
        out = real_coproduct(e)
        if p.decode(x1_3) in e.terms:
            out = out + p.tensor(extra)
        return out

    monkeypatch.setattr(certify, "_psi", packed)
    monkeypatch.setitem(globals(), "coproduct", element)
    expected = (False, 0, "multiplicativity fails on x_1 | x_1^2")
    assert hopf_case((space, 3)) == element_hopf_case((space, 3)) == expected
