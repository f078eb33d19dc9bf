"""Evaluation of the homology operations Q^a on the polynomial models.

Ground rules, with z a homogeneous class:

    Q^a z = 0           for a < dim z,
    Q^a z = z*z         for a = dim z,
    Q^a (u v)           by the Cartan formula,

and on the component classes of the unit-loop model

    Q^0 [k] = [2k],
    Q^a [1] = the polynomial generator of that name   (a >= 1),
    Q^a [2m]            = (Q^(a/2) [m])^2, and 0 for odd a: the Cartan formula
                        on [m] * [m], whose cross terms cancel in pairs,
    Q^a [k]             for odd k by the Cartan formula on [1] * [k-1], so the
                        recursion halves |k| at every other step; for k = -1
                        it ends because Q^a [-2] only needs Q^(a/2) [-1].

Composites are straightened with the mod-2 Adem relations: for r > 2s,

    Q^r Q^s = sum over i of C(i-s-1, 2i-r) Q^(r+s-i) Q^i,

rewriting the leftmost inadmissible pair until every sequence is admissible.
Packing.admissible_code reads each admissible sequence as a packed code: zero
on a negative lower index, and a power g^(2^t) on t leading zero ones.

The recursion runs on packed monomial codes of one space (f2algebra.Packing)
and memoizes on them; a product goes through the Cartan formula
(_q_cartan), and the rest of this module holds the rules for one generator
or translation.  apply_Q converts at the boundary.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .f2algebra import (
    _EMPTY,
    ONE_CODE,
    Element,
    Packing,
    _degree,
    _mul_sets,
    _packing,
    _square_set,
    _translation,
    _translation_code,
)
from .seqcore import UpperSeq, lucas_binom, unit_loop_class


def adem_pairs(r: int, s: int) -> frozenset[tuple[int, int]]:
    """Admissible pairs appearing in Q^r Q^s, for the inadmissible range r > 2s."""
    if s < 0 or r <= 2 * s:
        raise ValueError(f"Q^{r} Q^{s} is already admissible")
    out = set()
    for i in range((r + 1) // 2, r - s):
        if lucas_binom(i - s - 1, 2 * i - r):
            out ^= {(r + s - i, i)}
    return frozenset(out)


@lru_cache(maxsize=None)
def _normalize_entries(entries: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    for m in range(len(entries) - 1):
        r, s = entries[m], entries[m + 1]
        if r > 2 * s:
            acc: set[tuple[int, ...]] = set()
            for a, b in adem_pairs(r, s):
                acc ^= {entries[:m] + (a, b) + entries[m + 2 :]}
            out: set[tuple[int, ...]] = set()
            for e in acc:
                out ^= set(_normalize_entries(e))
            return frozenset(out)
    return frozenset({entries})


@lru_cache(maxsize=None)
def _q_monomial(p: Packing, a: int, m: int) -> frozenset[int]:
    d = _degree(m)
    if a <= d:
        # below the bottom operation Q^a vanishes; the bottom one is the Frobenius
        return _square_set((m,)) if a == d else _EMPTY
    i, u, v = p.split(m)
    if v != ONE_CODE:
        return _q_cartan(p, a, u, v)
    if i is None:
        return _q_translation(p, a, _translation(m))
    g = p.gens[i]
    # distinct admissible sequences read as distinct codes (or as zero, None)
    codes = {p.admissible_code(e, g.base) for e in _normalize_entries((a,) + g.seq.entries)}
    return frozenset(codes - {None})


def _q_cartan(p: Packing, a: int, u: int, v: int) -> frozenset[int]:
    """Q^a (u v) = sum over j of Q^j u * Q^(a-j) v.

    Q^j x = 0 for j < |x|, so only |u| <= j <= a - |v| can contribute.
    """
    acc: set[int] = set()
    for j in range(_degree(u), a - _degree(v) + 1):
        left = _q_monomial(p, j, u)
        if left:
            acc ^= _mul_sets(left, _q_monomial(p, a - j, v))
    return frozenset(acc)


def _q_translation(p: Packing, a: int, k: int) -> frozenset[int]:
    """Q^a [k] for a > 0."""
    if k == 0:
        return _EMPTY
    if k == 1:
        return frozenset({p.admissible_code((a,), unit_loop_class())})
    if k % 2 == 0:
        if a % 2:
            return _EMPTY
        return _square_set(_q_monomial(p, a // 2, _translation_code(k // 2)))
    return _q_cartan(p, a, _translation_code(1), _translation_code(k - 1))


def apply_Q(a: int, e: Element) -> Element:
    p = _packing(e.space)
    return Element(e.space, p.decode_set(p.linear(partial(_q_monomial, p, a), e.terms)))


def apply_Q_iterated(seq: UpperSeq, e: Element) -> Element:
    """Q^I e, applying the innermost (last) entry first."""
    for a in reversed(seq.entries):
        e = apply_Q(a, e)
    return e
