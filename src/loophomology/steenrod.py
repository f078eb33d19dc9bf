"""The lower (degree-decreasing) Steenrod action on the polynomial models.

Sq^r_* is dual to the cohomology operation Sq^r, so it lowers dimension by r.
It is computed from four facts:

  * base classes: spheres and components carry the trivial action; cells of a
    user-described complex carry whatever table the description provides,
  * products obey the dual Cartan formula
        Sq^r_*(u v) = sum over r' + r'' = r of Sq^(r')_* u * Sq^(r'')_* v,
  * generators obey the commutation rule with Q-operations
        Sq^r_* Q^a = sum over 2t <= r of C(a-r, r-2t) Q^(a-r+t) Sq^t_*,
    with C taken mod 2 and zero on a negative top argument,
  * Sq^0_* is the identity and Sq^r_* kills anything of dimension < r.

Squares come out of the Cartan formula on their own: the mixed terms of
Sq^r_*(z*z) cancel in pairs mod 2, leaving (Sq^(r/2)_* z)^2 for even r and
nothing for odd r.  The tests pin that consequence separately.

Like the operations, the recursion runs on packed monomial codes, and
products go through the Cartan core of f2algebra; this module holds the rules
for one generator.
"""

from __future__ import annotations

from functools import lru_cache

from .dlops import _q_monomial, lucas_binom
from .f2algebra import (
    _EMPTY,
    ONE_CODE,
    Element,
    Generator,
    Packing,
    _cartan,
    _degree,
    _packing,
)
from .seqcore import UpperSeq

__all__ = ["lucas_binom", "sq_lower", "is_A_annihilated"]

def _base_action(p: Packing, r: int, base) -> frozenset[int]:
    out: set[int] = set()
    for t in p.space.base_sq_action(r, base):
        out ^= {p.generator_code(Generator(t, UpperSeq(())))}
    return frozenset(out)


@lru_cache(maxsize=None)
def _sq_monomial(p: Packing, r: int, m: int) -> frozenset[int]:
    if r == 0:
        return frozenset({m})
    if r > _degree(m):
        return _EMPTY  # this covers the translations, which sit in dimension 0
    i, u, v = p.split(m)
    if v != ONE_CODE:
        return _cartan(_sq_monomial, p, r, u, v)
    g = p.gens[i]
    if not g.seq:
        return _base_action(p, r, g.base)
    a, z = p.peel(i)
    out: set[int] = set()
    for t in range(r // 2 + 1):
        if lucas_binom(a - r, r - 2 * t):
            for w in _sq_monomial(p, t, z):
                out ^= _q_monomial(p, a - r + t, w)
    return frozenset(out)


def sq_lower(r: int, e: Element) -> Element:
    if r < 0:
        raise ValueError("lower Steenrod operations have r >= 0")
    p = _packing(e.space)
    acc: set[int] = set()
    for m in e.terms:
        acc ^= _sq_monomial(p, r, p.encode(m))
    return Element(e.space, p.decode_set(acc))


def is_A_annihilated(e: Element) -> bool:
    """True when every Sq^r_* with r >= 1 kills e.

    Single operations suffice: composites of the Sq^r_* vanish once all the
    single ones do.  The zero element counts as annihilated.
    """
    if not e.terms:
        return True
    d = e.dimension  # raises on inhomogeneous input
    return all(not sq_lower(r, e) for r in range(1, d + 1))
