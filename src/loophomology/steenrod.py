"""The lower (degree-decreasing) Steenrod action on the polynomial models.

Sq^r_* is dual to the cohomology operation Sq^r, so it lowers dimension by r.
The engine computes the total operation Sq_* = sum over r of Sq^r_*, every
Sq^r_* m of one monomial m at once, from four facts:

  * base classes: spheres and components carry the trivial action; cells of a
    user-described complex carry whatever table the description provides,
  * products obey the dual Cartan formula
        Sq^r_*(u v) = sum over r' + r'' = r of Sq^(r')_* u * Sq^(r'')_* v,
    so Sq_* is a ring map: Sq_*(u v) = Sq_*(u) Sq_*(v), one set product
    (Steenrod and Epstein, Cohomology Operations, 1962),
  * generators obey the commutation rule with Q-operations
        Sq^r_* Q^a = sum over 2t <= r of C(a-r, r-2t) Q^(a-r+t) Sq^t_*,
    with C taken mod 2 and zero on a negative top argument,
  * Sq^0_* is the identity and Sq^r_* kills anything of dimension < r.

Sq^r_* lowers dimension by exactly r, so Sq^r_* m is the slice of Sq_* m in
dimension |m| - r, and Sq_* m sums to m alone exactly when every Sq^r_* with
r >= 1 kills m: the parts lie in distinct dimensions.

Squares are not multiplied out: the mixed terms of Sq_*(w*w) cancel in
pairs mod 2, leaving Sq_*(w)^2, so a monomial m = w^2 r (Packing.root) has
Sq_*(m) = Sq_*(w)^2 Sq_*(r), and squaring a sum is squaring each term.  So
Sq^r_*(w*w) is (Sq^(r/2)_* w)^2 for even r and nothing for odd r, which the
tests pin separately.

Like the operations, the recursion runs on packed monomial codes; products go
through f2algebra's set product, and this module holds the rules for one
generator.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .dlops import _q_monomial
from .f2algebra import (
    _EMPTY,
    ONE_CODE,
    Element,
    Packing,
    _degree,
    _mul_sets,
    _packing,
    _square_set,
)
from .seqcore import lucas_binom

__all__ = ["lucas_binom", "sq_lower", "is_A_annihilated"]


@lru_cache(maxsize=None)
def _sq_total(p: Packing, m: int) -> frozenset[int]:
    """Sq_* m: every Sq^r_* m, r = 0..|m|, as one sum of codes.  m = w^2 r
    takes Sq_*(w)^2 Sq_*(r); a square-free product peels one factor."""
    d = _degree(m)
    if not d:
        return frozenset({m})  # this covers the translations, which sit in dimension 0
    w, r = p.root(m)
    if w != ONE_CODE:
        half = _square_set(_sq_total(p, w))
        return half if r == ONE_CODE else _mul_sets(half, _sq_total(p, r))
    i, u, v = p.split(m)
    if v != ONE_CODE:
        return _mul_sets(_sq_total(p, u), _sq_total(p, v))
    g = p.gens[i]
    out = {m}
    if not g.seq:
        for r in range(1, d + 1):
            for t in p.space.base_sq_action(r, g.base):
                out ^= {p.admissible_code((), t)}
        return frozenset(out)
    a, z = p.peel(i)
    dz = _degree(z)
    by_t: dict[int, list[int]] = {}
    for w in _sq_total(p, z):
        by_t.setdefault(dz - _degree(w), []).append(w)
    for r in range(1, a + 1):  # C(a-r, .) vanishes for r > a
        for t in range(min(r // 2, dz) + 1):
            if lucas_binom(a - r, r - 2 * t):
                for w in by_t.get(t, ()):
                    out ^= _q_monomial(p, a - r + t, w)
    return frozenset(out)


@lru_cache(maxsize=None)
def _sq_monomial(p: Packing, r: int, m: int) -> frozenset[int]:
    """Sq^r_* m, the slice of Sq_* m in dimension |m| - r."""
    d = _degree(m) - r
    if d < 0:
        return _EMPTY
    return frozenset(w for w in _sq_total(p, m) if _degree(w) == d) or _EMPTY


def sq_lower(r: int, e: Element) -> Element:
    if r < 0:
        raise ValueError("lower Steenrod operations have r >= 0")
    p = _packing(e.space)
    return Element(e.space, p.decode_set(p.linear(partial(_sq_monomial, p, r), e.terms)))


def is_A_annihilated(e: Element) -> bool:
    """True when every Sq^r_* with r >= 1 kills e.

    Single operations suffice: composites of the Sq^r_* vanish once all the
    single ones do.  On homogeneous e the parts Sq^r_* e lie in distinct
    dimensions, so they all vanish for r >= 1 exactly when Sq_* e is e.  The
    zero element counts as annihilated.
    """
    e.dimension  # raises on inhomogeneous input
    p = _packing(e.space)
    return p.linear(partial(_sq_total, p), e.terms) == p.encode_set(e.terms)
