"""The one linear extension at the Element boundary, and ψ's one entry point.

`Packing.linear(f, monomials)` is the loop that `apply_Q`, `sq_lower`,
`is_A_annihilated`, `coproduct` and `reduced_coproduct` share: it must be the
xor of the per-term images, so a term two images share cancels.  `hopf._psi`
clips its cut to the degree of its code, so every cut at or above that degree
reads the one full-ψ cache entry.
"""

from __future__ import annotations

import itertools
from functools import partial

import pytest

from loophomology.f2algebra import MAX_DEGREE, _basis_codes, _degree, _packing, basis_enumerate
from loophomology.hopf import _psi, _psi_monomial
from loophomology.spaces import qs0_space, qsn_space
from loophomology.steenrod import _sq_total

QS0 = qs0_space()
QS1 = qsn_space(1)
SPACES = pytest.mark.parametrize("space, charge", [(QS0, 0), (QS1, None)], ids=["qs0", "qs1"])


def test_linear_on_the_empty_sum_is_empty():
    p = _packing(QS1)
    assert p.linear(partial(_psi, p), ()) == set()
    assert p.linear(partial(_sq_total, p), frozenset()) == set()


@SPACES
@pytest.mark.parametrize("image", [_psi, _sq_total], ids=["psi", "sq_total"])
def test_linear_on_two_terms_is_the_xor_of_their_images(space, charge, image):
    p = _packing(space)
    f = partial(image, p)
    shared = 0
    for degree in range(1, 7):
        for a, b in itertools.combinations(basis_enumerate(space, degree, charge), 2):
            fa, fb = f(p.encode(a)), f(p.encode(b))
            total = p.linear(f, (a, b))
            assert total == fa ^ fb, (a, b)
            assert not total & fa & fb, (a, b)
            shared += bool(fa & fb)
    # on qs1 no two images of degree <= 6 meet; on charge-0 qs0 some do, so
    # the cancellation is exercised there
    assert shared or space == QS1


@SPACES
def test_every_cut_at_or_above_the_degree_reads_the_full_psi_entry(space, charge):
    p = _packing(space)
    codes = [c for d in range(1, 11) for c in _basis_codes(space, d, charge)]
    full = {c: _psi(p, c) for c in codes}
    entries = _psi_monomial.cache_info().currsize
    for c in codes:
        for k in (_degree(c), _degree(c) + 3, MAX_DEGREE):
            assert _psi(p, c, k) is full[c], (p.decode(c), k)
    assert _psi_monomial.cache_info().currsize == entries
