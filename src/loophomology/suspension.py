"""Homology suspension along the tower QS^0 -> QS^1 -> QS^2 -> ... and the
corresponding tower over an iterated suspension complex.

The suspension raises dimension by one, kills decomposables, forgets
translations, and sends a single generator Q^I(b) to Q^I(b') over the
suspended base.  The image sequence keeps its excess while the base dimension
grows by one, so excess equality can appear downstairs: the image is then a
power monomial, which _admissible_factor already handles.
"""

from __future__ import annotations

from .dlops import _admissible_factor, _factor_code
from .f2algebra import (
    Element,
    Monomial,
    Packing,
    _packing,
    basis_enumerate,
    element_from_mask,
    masks_for_term_sets,
)
from .linalg_f2 import in_span, kernel_of_images
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


def _suspend_codes(space: SpaceDesc, target: Packing, terms) -> frozenset[int]:
    """Image of a sum of monomials of space, packed for the successor space."""
    out: set[int] = set()
    for m in terms:
        if m.gen_length != 1:
            continue  # decomposables and pure translations die
        g = m.factors[0][0]
        factor = _admissible_factor(g.seq.entries, space.suspended_base(g.base))
        if factor is not None:
            out ^= {_factor_code(target, factor)}
    return frozenset(out)


def suspend(e: Element) -> Element:
    """Image of e under the homology suspension into the successor space."""
    target = _packing(e.space.successor())
    return Element(target.space, target.decode_set(_suspend_codes(e.space, target, e.terms)))


def suspension_kernel_basis(space: SpaceDesc, degree: int) -> list[Element]:
    """Basis of the kernel of the suspension out of one degree.

    On the unit-loop model this is the charge-zero component.
    """
    basis = basis_enumerate(space, degree)
    return [element_from_mask(space, combo, basis) for combo in _suspension_kernel(space, basis)]


def _suspension_kernel(space: SpaceDesc, basis: list[Monomial]) -> list[int]:
    """Kernel basis of the suspension on the span of basis, as masks over its indices."""
    target = _packing(space.successor())
    masks, _ = masks_for_term_sets([_suspend_codes(space, target, (m,)) for m in basis])
    return kernel_of_images(masks)


def in_suspension_image(e: Element) -> bool:
    """Whether e is hit by the suspension from the predecessor space."""
    if not e.terms:
        return True
    pred = e.space.predecessor()  # raises NoSuccessor at the bottom of the tower
    target = _packing(e.space)
    images = [_suspend_codes(pred, target, (m,)) for m in basis_enumerate(pred, e.dimension - 1)]
    masks, _ = masks_for_term_sets(images + [target.encode_set(e.terms)])
    return in_span(masks[-1], masks[:-1])
