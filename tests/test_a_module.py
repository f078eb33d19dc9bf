"""The engine's Sq_* on H_*QX satisfies the dual Adem relations and is a
coalgebra map, on every basis monomial.

The even-squares mechanism reads Sq^1_* Q^degree off the Sq_* that
`steenrod._sq_total` builds by Nishida's rule, and a Steenrod structure on
H_*QX is only an A-module if that rule keeps the dual Adem relations, which
`spaces._check_adem` checks for the cells alone.  The primitive-annihilated
kernel reads Sq_* and psi together, and the two come from separate rules
(Nishida's for Sq_*, Cartan's for Q in psi), so Sq_* must commute with psi
as well.  Both identities are checked here through the cached
`_sq_monomial`, `_sq_total` and `hopf._psi` the kernels read; the relation
coefficients come from `math.comb`, not from the engine.
"""

from __future__ import annotations

from math import comb

import pytest

from loophomology import steenrod
from loophomology.f2algebra import _code_bases, _degree, _packing, _pair, _slots
from loophomology.hopf import _psi
from loophomology.seqcore import lucas_binom
from loophomology.spaces import SqEntry, qs0_space, qsn_space, suspension_space, two_cell_space
from loophomology.steenrod import _sq_monomial, _sq_total

TOP = 10

#: Each space with the relations and coalgebra checks it makes to degree
#: TOP, 7,704 and 363 in all.
SPACES = {
    "qs1": (qsn_space(1), 1587, 79),
    "qs0": (qs0_space(), 5646, 260),  # charge 0
    "two-cell": (two_cell_space(), 274, 14),
    # not unstable: Sq^4_* b_7 = a_3 in Sigma^2 X
    "a1b5-sq4": (suspension_space({"a": 1, "b": 5}, (SqEntry(4, "b", ("a",)),)), 197, 10),
}


def sq(p, r: int, codes) -> frozenset[int]:
    """Sq^r_* of a sum of codes, one cached slice per code."""
    out: set[int] = set()
    for m in codes:
        out ^= _sq_monomial(p, r, m)
    return frozenset(out)


def a_module_failures(space) -> tuple[int, int, list[str]]:
    """(relations checked, coalgebra checks, failures), over every basis code
    of degree <= TOP, degrees ascending, then b and a ascending."""
    p = _packing(space)
    relations = coalgebra = 0
    failures = []
    for codes in _code_bases(space, range(1, TOP + 1)):
        for m in codes:
            d = _degree(m)
            for b in range(1, d):
                for a in range(1, min(2 * b, d - b + 1)):
                    relations += 1
                    right: set[int] = set()
                    for c in range(a // 2 + 1):
                        if comb(b - c - 1, a - 2 * c) % 2:
                            right ^= sq(p, c, sq(p, a + b - c, {m}))
                    if sq(p, b, sq(p, a, {m})) != right:
                        failures.append(f"Sq^{b}_* Sq^{a}_* on {p.decode(m)}")
            coalgebra += 1
            left: set = set()
            for w in _sq_total(p, m):
                left ^= _psi(p, w)
            right_pairs: set = set()
            for t in _psi(p, m):
                x, y = _slots(t)
                right_pairs ^= {_pair(u, v) for u in _sq_total(p, x) for v in _sq_total(p, y)}
            if left != right_pairs:
                failures.append(f"psi Sq_* != (Sq_* (x) Sq_*) psi on {p.decode(m)}")
    return relations, coalgebra, failures


@pytest.mark.parametrize("name", SPACES)
def test_sq_is_an_a_module_and_a_coalgebra_map(name):
    space, relations, coalgebra = SPACES[name]
    assert a_module_failures(space) == (relations, coalgebra, [])


def test_a_wrong_nishida_binomial_fails_the_relations(monkeypatch):
    # C(a - r, r - 2t) read as C(a - r + 1, r - 2t) in Sq^r_* Q^a
    with monkeypatch.context() as mp:
        mp.setattr(steenrod, "lucas_binom", lambda n, k: lucas_binom(n + 1, k))
        _sq_total.cache_clear()
        _sq_monomial.cache_clear()
        try:
            _, _, failures = a_module_failures(SPACES["qs1"][0])
        finally:
            _sq_total.cache_clear()
            _sq_monomial.cache_clear()
    assert failures and failures[0] == "Sq^3_* Sq^2_* on Q^(5,3) x_1"
