"""The Frobenius identities, on packed codes, to hopf-consistency's cap.

Squaring is additive mod 2, so on every basis monomial m

    psi(m^2)        = psi(m)^2, the square of each term x (x) y,
    Sq^(2r)_* m^2   = (Sq^r_* m)^2,
    Sq^(2r+1)_* m^2 = 0.

A packed tensor squares as 2 t - PAIRS.one, as a packed code squares as
2 m - ONE_CODE.  These are certified here, term by term, on the packed psi
and Sq^r_* the kernels use.

The engine takes them as a shortcut: `hopf._psi_terms` and
`steenrod._sq_total` split a monomial as w^2 r (`Packing.root`) and square
psi(w) and Sq_*(w) term by term.  The oracles below are the recursions from
before that shortcut, which peel one factor at a time, and the shortcut
must agree with them at every cut, with and without a sieve stage's memo.
"""

from __future__ import annotations

import pytest

from loophomology.certify import SCOPES
from loophomology.dlops import _q_monomial
from loophomology.errors import PackedFieldOverflow
from loophomology.f2algebra import (
    CODES,
    ONE_CODE,
    PAIRS,
    _basis_codes,
    _degree,
    _mul_sets,
    _packing,
    _pair,
    _slots,
    _square_set,
    _times,
)
from loophomology.hopf import _psi
from loophomology.spaces import SqEntry, qs0_space, qsn_space, suspension_space, two_cell_space
from loophomology.steenrod import _sq_monomial, _sq_total

CAP, _, _ = SCOPES["hopf-consistency"]  # its default cap

# hopf-consistency's spaces: qs1 and the charge-zero component of qs0
SPACES = [qsn_space(1), qs0_space()]


def squares(space, degree):
    return [(m, _times(m, m)) for m in _basis_codes(space, degree)]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label)
@pytest.mark.parametrize("degree", range(1, CAP + 1))
def test_psi_of_a_square_is_the_square_of_psi(space, degree):
    p = _packing(space)
    for m, m2 in squares(space, degree):
        assert _psi(p, m2) == {2 * t - PAIRS.one for t in _psi(p, m)}, p.decode(m)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label)
@pytest.mark.parametrize("degree", range(1, CAP + 1))
def test_the_dual_steenrod_action_on_a_square(space, degree):
    p = _packing(space)
    for m, m2 in squares(space, degree):
        for r in range(degree + 1):
            assert _sq_monomial(p, 2 * r, m2) == _square_set(_sq_monomial(p, r, m))
            assert not _sq_monomial(p, 2 * r + 1, m2), (p.decode(m), r)


# ---------------------------------------------------------------------------
# The shortcut against the one-factor peel.

ORACLE_DEGREE = 12
ORACLE_SPACES = pytest.mark.parametrize(
    "space, charge",
    [
        (qs0_space(), 0),
        (qsn_space(1), None),
        (two_cell_space(), None),
        (suspension_space({"a": 1, "b": 5}, (SqEntry(4, "b", ("a",)),)), None),
    ],
    ids=["qs0-charge0", "qs1", "two-cell", "a1-b5-sq4"],
)


def peel_psi(p, m, k, memo):
    """psi(m) cut to |x| <= k by the Cartan formula, one factor at a time."""
    k = min(k, _degree(m))
    got = memo.get((m, k))
    if got is not None:
        return got
    i, u, v = p.split(m)
    if v != ONE_CODE:
        out = _mul_sets(peel_psi(p, u, k, memo), peel_psi(p, v, k, memo), PAIRS, k)
    elif i is None:
        out = frozenset({_pair(m, m)})
    elif not p.gens[i].seq:
        left = {_pair(m, ONE_CODE)} if k >= _degree(m) else set()
        out = frozenset(left | {_pair(ONE_CODE, m)})
    else:
        a, z = p.peel(i)
        acc = set()
        for t in peel_psi(p, z, k, memo):
            x, y = _slots(t)
            for j in range(min(a, k - _degree(x)) + 1):
                right = _q_monomial(p, a - j, y)
                acc ^= {_pair(qx, qy) for qx in _q_monomial(p, j, x) for qy in right}
        out = frozenset(acc)
    memo[m, k] = out
    return out


def peel_sq(p, m, memo):
    """Sq_* m with every product of factors one _mul_sets, one factor at a
    time; the rule for one generator is the engine's."""
    got = memo.get(m)
    if got is None:
        i, u, v = p.split(m)
        if v == ONE_CODE:
            got = _sq_total(p, m)
        else:
            got = _mul_sets(peel_sq(p, u, memo), peel_sq(p, v, memo))
        memo[m] = got
    return got


@ORACLE_SPACES
def test_psi_through_the_frobenius_equals_the_one_factor_peel(space, charge):
    p = _packing(space)
    oracle: dict = {}
    for degree in range(1, ORACLE_DEGREE + 1):
        stage: dict = {}  # one memo per degree, as a sieve stage shares it
        for m in _basis_codes(space, degree, charge):
            for k in range(degree + 2):
                want = peel_psi(p, m, k, oracle)
                assert _psi(p, m, k) == want, (p.decode(m), k)
                assert _psi(p, m, k, stage) == want, (p.decode(m), k)


@ORACLE_SPACES
def test_sq_total_through_the_frobenius_equals_the_one_factor_peel(space, charge):
    p = _packing(space)
    oracle: dict = {}
    for degree in range(1, ORACLE_DEGREE + 1):
        for m in _basis_codes(space, degree, charge):
            assert _sq_total(p, m) == peel_sq(p, m, oracle), p.decode(m)


@pytest.mark.parametrize(
    "space, charge, shapes",
    [
        # qs1 has pure squares; every charge-zero monomial of qs0 keeps a translation
        (qsn_space(1), None, {"no square", "w^2", "w^2 r"}),
        (qs0_space(), 0, {"no square", "w^2 [k]", "w^2 r"}),
    ],
    ids=["qs1", "qs0-charge0"],
)
def test_root_splits_off_the_square_part(space, charge, shapes):
    p = _packing(space)
    seen = set()
    for degree in range(1, ORACLE_DEGREE + 1):
        for m in _basis_codes(space, degree, charge):
            w, r = p.root(m)
            assert _times(w, w) - ONE_CODE + r == m
            assert p.root(r) == (ONE_CODE, r)
            if w == ONE_CODE:
                seen.add("no square")
            else:
                seen.add("w^2" if r == ONE_CODE else "w^2 [k]" if not _degree(r) else "w^2 r")
    assert seen == shapes


def test_doubling_an_exponent_of_64_overflows():
    space = qsn_space(1)
    p = _packing(space)
    x = _basis_codes(space, 1)[0]
    assert _square_set({p.root(_times(x, x))[0]}) == {_times(x, x)}
    for e, fits in ((63, True), (64, False)):
        code = ONE_CODE + e * (x - ONE_CODE)
        for kind, terms in (
            (CODES, {code}),
            (PAIRS, {_pair(code, ONE_CODE)}),
            (PAIRS, {_pair(x, code)}),
        ):
            if fits:
                assert len(_square_set(frozenset(terms), kind)) == 1
            else:
                with pytest.raises(PackedFieldOverflow):
                    _square_set(frozenset(terms), kind)
