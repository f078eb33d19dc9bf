"""The extended module's Steenrod action against the Element-level route.

`MInfinityModule` reads the engine's Sq_* on packed codes: a symbol's row in
`annihilated_vectors` is Sq_* of its code less the code, every r >= 1 at
once, and `sq(r, .)` is the slice of one r.  The oracle below is the route
it replaced: embed the symbol as an Element built from its factor g^e, apply
`sq_lower` once for each r, and pull each monomial back to a symbol through
its factor list.  Both must give the same symbols, the same kernel vectors
and the same wellington reports.
"""

from __future__ import annotations

import pytest
from test_screener import _admissible_to_monomial

from loophomology.f2algebra import Element, Monomial, _picked, masks_for_term_sets
from loophomology.linalg_f2 import kernel_of_images
from loophomology.screener import MInfinityModule, MSymbol, wellington_check
from loophomology.seqcore import UpperSeq
from loophomology.spaces import qsn_space, space_from_dict, two_cell_space
from loophomology.steenrod import sq_lower

MAX_DEGREE = 16


def sigma2(cells: dict, r: int, source: str, target: str):
    return space_from_dict({
        "model": "sigma2",
        "cells": [{"name": c, "dim": d} for c, d in cells.items()],
        "sq_action": [{"r": r, "from": source, "to": [target]}],
    })


SPACES = {
    "qs1": qsn_space(1),
    "qs2": qsn_space(2),
    "two-cell": two_cell_space(),
    "a1b2-sq1": sigma2({"a": 1, "b": 2}, 1, "b", "a"),
    # not unstable: Sq^4_* b_7 = a_3 with 2 * 4 > 7
    "a1b5-sq4": sigma2({"a": 1, "b": 5}, 4, "b", "a"),
}

spaces = pytest.mark.parametrize("space", SPACES.values(), ids=SPACES.keys())


def pull_back(m: Monomial) -> MSymbol:
    """The symbol of a generator power g^(2^t): Q^(2^(t-1)|g|, ..., |g|) g."""
    assert m.translation == 0 and len(m.factors) == 1, m
    ((g, e),) = m.factors
    assert e & (e - 1) == 0, m
    entries, d = g.seq.entries, g.dimension
    for _ in range(e.bit_length() - 1):
        entries = (d,) + entries
        d *= 2
    return MSymbol(g.base, UpperSeq(entries))


def element_sq(space, r: int, sym: MSymbol) -> frozenset[MSymbol]:
    embedded = Element(space, frozenset({_admissible_to_monomial(sym.seq.entries, sym.base)}))
    return frozenset(map(pull_back, sq_lower(r, embedded).terms))


def element_annihilated_vectors(space, degree: int) -> list[frozenset[MSymbol]]:
    """The kernel from one row per symbol, tagged (r, symbol) for each r."""
    syms = MInfinityModule(space).basis(degree)
    rows = [
        {(r, out) for r in range(1, degree + 1) for out in element_sq(space, r, s)}
        for s in syms
    ]
    masks, _ = masks_for_term_sets(rows)
    return [_picked(combo, syms) for combo in kernel_of_images(masks)]


@spaces
def test_every_sq_matches_the_element_route(space):
    module = MInfinityModule(space)
    checked = 0
    for degree in range(1, MAX_DEGREE + 1):
        for sym in module.basis(degree):
            for r in range(1, degree + 1):
                assert module.sq(r, sym) == element_sq(space, r, sym), (sym, r)
                checked += 1
    assert checked


@spaces
def test_annihilated_vectors_and_wellington_match_the_element_route(space):
    module = MInfinityModule(space)
    for degree in range(1, MAX_DEGREE + 1):
        expected = element_annihilated_vectors(space, degree)
        assert module.annihilated_vectors(degree) == expected, degree
        report = wellington_check(space, degree)
        assert report.annihilated == tuple(tuple(sorted(v)) for v in expected)
        assert report.violations == tuple(
            tuple(sorted(v)) for v in expected if not all(s.all_entries_odd for s in v)
        )


def test_the_cell_actions_reach_the_module():
    # Sq^1_* b_4 = a_3 and Sq^4_* b_7 = a_3 on the bottom symbols: the two
    # tables above act on the module, not only on the cells
    a1b2, a1b5 = SPACES["a1b2-sq1"], SPACES["a1b5-sq4"]
    (b4,) = [s for s in MInfinityModule(a1b2).basis(4) if not s.seq]
    (b7,) = [s for s in MInfinityModule(a1b5).basis(7) if not s.seq]
    assert {str(s) for s in MInfinityModule(a1b2).sq(1, b4)} == {"a_3"}
    assert {str(s) for s in MInfinityModule(a1b5).sq(4, b7)} == {"a_3"}
