"""Homology suspension along the tower QS^0 -> QS^1 -> QS^2 -> ... and the
corresponding tower over an iterated suspension complex.

The suspension raises dimension by one, kills decomposables, forgets
translations, and sends a single generator Q^I(b) to Q^I(b') over the
suspended base.  The image sequence keeps its excess while the base dimension
grows by one, so excess equality can appear downstairs: the image is then a
power monomial, which Packing.admissible_code reads as such.
"""

from __future__ import annotations

from .f2algebra import (
    Element,
    Monomial,
    Packing,
    _basis_codes,
    _element_from_codes,
    _generator_index,
    _packing,
    masks_for_term_sets,
)
from .linalg_f2 import kernel_of_images
from .seqcore import upper_to_lower
from .spaces import SpaceDesc


def loop_level(m: Monomial) -> int:
    """Smallest finite loop filtration level containing the monomial.

    A lower-indexed operation Q_j exists on an l-fold loop space when j < l,
    so a monomial lives at level max(j) + 1 over all its lower indices.
    Operation-free monomials sit at level 1.  The level of a product is the
    maximum of the levels of its factors, which makes filtration membership
    multiplicative.
    """
    level = 1
    for g, _ in m.factors:
        if g.seq:
            lows = upper_to_lower(g.seq, g.base.dimension)
            level = max(level, max(lows.entries) + 1)
    return level


def within_loop_filtration(m: Monomial, level: int | None) -> bool:
    """Membership of the monomial in the level-l loop filtration (None = all)."""
    return level is None or loop_level(m) <= level


def _suspend_codes(source: Packing, target: Packing, codes) -> frozenset[int]:
    """Image of a sum of monomials packed by source, packed by target, the
    packing of the successor space."""
    out: set[int] = set()
    for code in codes:
        i = _generator_index(code)
        if i is None:
            continue  # decomposables and pure translations die
        g = source.gens[i]
        code = target.admissible_code(g.seq.entries, source.space.suspended_base(g.base))
        if code is not None:
            out ^= {code}
    return frozenset(out)


def suspend(e: Element) -> Element:
    """Image of e under the homology suspension into the successor space."""
    source, target = _packing(e.space), _packing(e.space.successor())
    codes = _suspend_codes(source, target, source.encode_set(e.terms))
    return Element(target.space, target.decode_set(codes))


def suspension_kernel_basis(space: SpaceDesc, degree: int) -> list[Element]:
    """Basis of the kernel of the suspension out of one degree.

    On the unit-loop model this is the charge-zero component.
    """
    codes = _basis_codes(space, degree)
    return [_element_from_codes(space, combo, codes) for combo in _suspension_kernel(space, codes)]


def _suspension_kernel(space: SpaceDesc, codes: list[int]) -> list[int]:
    """Kernel basis of the suspension on the span of packed codes, as masks over their indices."""
    source, target = _packing(space), _packing(space.successor())
    masks, _ = masks_for_term_sets([_suspend_codes(source, target, (c,)) for c in codes])
    return kernel_of_images(masks)
