"""The Frobenius identities, on packed codes, to hopf-consistency's cap.

Squaring is additive mod 2, so on every basis monomial m

    psi(m^2)        = psi(m)^2, the square of each term x (x) y,
    Sq^(2r)_* m^2   = (Sq^r_* m)^2,
    Sq^(2r+1)_* m^2 = 0.

A packed tensor squares as 2 t - ONE_PAIR, as a packed code squares as
2 m - ONE_CODE.  These are certified here, term by term, on the packed psi
and Sq^r_* the kernels use; no engine path takes them as a shortcut.
"""

from __future__ import annotations

import pytest

from loophomology.certify import CAPS
from loophomology.f2algebra import ONE_PAIR, _basis_codes, _packing, _square
from loophomology.hopf import _psi
from loophomology.spaces import qs0_space, qsn_space
from loophomology.steenrod import _sq_monomial

CAP = CAPS["hopf-consistency"]

# hopf-consistency's spaces: qs1 and the charge-zero component of qs0
SPACES = [qsn_space(1), qs0_space()]


def squares(space, degree):
    return [(m, _square(m)) for m in _basis_codes(space, degree)]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label)
@pytest.mark.parametrize("degree", range(1, CAP + 1))
def test_psi_of_a_square_is_the_square_of_psi(space, degree):
    p = _packing(space)
    for m, m2 in squares(space, degree):
        assert _psi(p, m2) == {2 * t - ONE_PAIR for t in _psi(p, m)}, p.decode(m)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label)
@pytest.mark.parametrize("degree", range(1, CAP + 1))
def test_the_dual_steenrod_action_on_a_square(space, degree):
    p = _packing(space)
    for m, m2 in squares(space, degree):
        for r in range(degree + 1):
            assert _sq_monomial(p, 2 * r, m2) == {_square(w) for w in _sq_monomial(p, r, m)}
            assert not _sq_monomial(p, 2 * r + 1, m2), (p.decode(m), r)
