"""The rows of the primitive-annihilated kernel against the full-row oracle.

`screener._pri_ann_kernel` builds only the rows its kernel needs: every
Sq^r_* at once, read off the total Sq_* less the code, the coproduct terms
x (x) y with |x| <= d // 2, and masks set through bytes.  It sieves the kernel cut by cut: the coproduct
rows cut at |x| <= k for k = 1, 2, 4, ... up to d // 2, each stage over only
the codes in the support of the last stage's kernel.  The cut terms are a
subset of the terms at d // 2, so each stage's kernel contains the final
one, and since kernel_of_images returns the reduced basis for a given column
order, dropping columns outside the support changes no vector.  The oracle
below is the full construction: every r in 1..d, the whole reduced
coproduct, every code at once, and masks summed one bit at a time over
sorted columns.  Both must give exactly the same kernel vectors; the spy
tests pin how many codes each cut builds rows for.  The last two tests pin
why a kernel over the single generators cannot drop the square part of the
Sq^1_* row.
"""

from __future__ import annotations

import random

import pytest
from test_linalg_f2 import in_span

from loophomology import screener, steenrod
from loophomology.f2algebra import (
    DEGREE_BITS,
    ONE_CODE,
    Element,
    Generator,
    _basis_codes,
    _degree,
    _packing,
    _pair,
    _picked,
    _slots,
    _square_set,
    basis_enumerate,
    generator_monomial,
    masks_for_term_sets,
)
from loophomology.hopf import _psi_monomial, _reduced_psi, coproduct, is_primitive
from loophomology.linalg_f2 import kernel_of_images, span_intersection
from loophomology.screener import _pri_ann_kernel, generator_span
from loophomology.seqcore import upper
from loophomology.spaces import (
    qs0_space,
    qsn_space,
    space_from_dict,
    suspension_space,
    two_cell_space,
)
from loophomology.steenrod import _sq_monomial, sq_lower
from loophomology.suspension import _suspend_codes, suspend

MAX_DEGREE = 12


def sq_tag(r: int, out: int) -> int:
    """The column of the term out of Sq^r_*: a negative int, so it never
    equals a packed coproduct term, which is positive."""
    return -(out << DEGREE_BITS | r)

SPACES = {
    "qs0": qs0_space(),
    "qs1": qsn_space(1),
    "qs2": qsn_space(2),
    "two-cell": two_cell_space(),
    "sigma2-a1b2-sq1": space_from_dict({
        "model": "sigma2",
        "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 2}],
        "sq_action": [{"r": 1, "from": "b", "to": ["a"]}],
    }),
    "sigma2-a1b3-sq2": space_from_dict({
        "model": "sigma2",
        "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 3}],
        "sq_action": [{"r": 2, "from": "b", "to": ["a"]}],
    }),
}

spaces = pytest.mark.parametrize("space", SPACES.values(), ids=SPACES.keys())


def sum_masks(term_sets: list, columns: list) -> list[int]:
    """Masks as they were first built, one row-wide big-int add per term,
    with bit i standing for columns[i]."""
    index = {t: i for i, t in enumerate(columns)}
    return [sum(1 << index[t] for t in s) for s in term_sets]


def assert_masks_match_sum_masks(term_sets: list) -> None:
    """masks_for_term_sets sets exactly sum_masks' bits over the columns it
    returns, and those columns are the union of the sets, each once."""
    masks, columns = masks_for_term_sets(term_sets)
    assert len(set(columns)) == len(columns)
    assert set(columns) == set().union(*term_sets)
    assert masks == sum_masks(term_sets, columns)


def primitive_annihilated_basis(space, degree):
    """The kernel route's oracle: the primitive A-annihilated subspace of one
    degree, charge zero on the unit-loop model, from the sieve over the whole
    basis."""
    return _pri_ann_kernel(space, degree, _basis_codes(space, degree))


def full_row_kernel(space, degree, basis):
    """The kernel from every row: all Sq^r_*, the whole reduced coproduct."""
    if not basis:
        return []
    p = _packing(space)
    term_sets = []
    for m in map(p.encode, basis):
        sq_tags = {sq_tag(r, out) for r in range(1, degree + 1) for out in _sq_monomial(p, r, m)}
        term_sets.append(_reduced_psi(p, m) | sq_tags)
    columns = sorted(set().union(*term_sets))
    return [
        Element(space, _picked(c, basis))
        for c in kernel_of_images(sum_masks(term_sets, columns))
    ]


@spaces
def test_kernel_matches_the_full_rows_on_the_whole_basis(space):
    p = _packing(space)
    for degree in range(1, MAX_DEGREE + 1):
        basis = basis_enumerate(space, degree)
        codes = list(map(p.encode, basis))
        assert _pri_ann_kernel(space, degree, codes) == full_row_kernel(space, degree, basis)


@spaces
def test_kernel_matches_the_full_rows_on_the_generator_span(space):
    p = _packing(space)
    for degree in range(1, MAX_DEGREE + 1):
        basis = generator_span(space, degree)
        codes = list(map(p.encode, basis))
        assert _pri_ann_kernel(space, degree, codes) == full_row_kernel(space, degree, basis)


# the top upstairs degree of the even-squares suite at --max-degree 16: root 8
# over qs1 and over the two-cell model
@pytest.mark.parametrize(
    "space", [qs0_space(), two_cell_space().predecessor()], ids=["qs0", "two-cell-pred"]
)
@pytest.mark.parametrize("span", [basis_enumerate, generator_span], ids=["basis", "generators"])
def test_kernel_matches_the_full_rows_at_degree_15(space, span):
    basis = span(space, 15)
    codes = list(map(_packing(space).encode, basis))
    assert _pri_ann_kernel(space, 15, codes) == full_row_kernel(space, 15, basis)


def rows_per_cut(monkeypatch, degree: int) -> dict:
    """How many codes of qs0's degree basis get coproduct rows at each cut k."""
    built: dict = {}
    real = screener._reduced_psi

    def spy(p, m, k=None, memo=None):
        built[k] = built.get(k, 0) + 1
        return real(p, m, k, memo)

    monkeypatch.setattr(screener, "_reduced_psi", spy)
    space = qs0_space()
    _pri_ann_kernel(space, degree, _basis_codes(space, degree))
    monkeypatch.undo()
    return built


def test_the_sieve_builds_the_last_cut_on_few_codes(monkeypatch):
    # 613 codes in qs0 degree 15; the kernel of each cut shrinks the next
    assert len(_basis_codes(qs0_space(), 15)) == 613
    assert rows_per_cut(monkeypatch, 15) == {1: 613, 2: 376, 4: 358, 7: 103}


def test_the_sieve_stops_at_an_empty_kernel(monkeypatch):
    # qs0 degree 11 has no primitive annihilated class and the k = 4 kernel
    # is already empty, so the rows at the top cut k = 5 are never built
    assert primitive_annihilated_basis(qs0_space(), 11) == []
    assert rows_per_cut(monkeypatch, 11) == {1: 137, 2: 61, 4: 42}


def test_low_degrees_take_one_cut(monkeypatch):
    # top = d // 2 is 0 in degree 1 and 1 in degrees 2 and 3: a single stage
    # over every code, as without the sieve
    sizes = {d: len(_basis_codes(qs0_space(), d)) for d in (1, 2, 3)}
    assert rows_per_cut(monkeypatch, 1) == {0: sizes[1]}
    assert rows_per_cut(monkeypatch, 2) == {1: sizes[2]}
    assert rows_per_cut(monkeypatch, 3) == {1: sizes[3]}


@spaces
def test_psi_cut_is_the_full_psi_filtered(space):
    p = _packing(space)
    for degree in range(1, MAX_DEGREE + 1):
        for m in map(p.encode, basis_enumerate(space, degree)):
            full = _psi_monomial(p, m, degree)
            for k in range(degree + 2):
                assert _psi_monomial(p, m, k) == {
                    t for t in full if _degree(_slots(t)[0]) <= k
                }, (space.label, m, k)


@spaces
def test_reduced_psi_cut_drops_only_the_upper_half(space):
    p = _packing(space)
    for degree in range(1, MAX_DEGREE + 1):
        for m in map(p.encode, basis_enumerate(space, degree)):
            full = _reduced_psi(p, m)
            half = _reduced_psi(p, m, degree // 2)
            assert half == {t for t in full if _degree(_slots(t)[0]) <= degree // 2}
            assert _pair(ONE_CODE, m) not in full and _pair(m, ONE_CODE) not in full


@spaces
def test_coproduct_is_cocommutative(space):
    # tau psi = psi on every basis monomial: the halving of the coproduct rows
    # in _pri_ann_kernel rests on it, as the Steenrod rows rest on no relation
    for degree in range(1, MAX_DEGREE + 1):
        for m in basis_enumerate(space, degree):
            terms = coproduct(Element(space, frozenset({m}))).terms
            assert {(v, u) for u, v in terms} == terms, (space.label, m)


def test_byte_masks_equal_sum_masks_on_random_sets():
    rng = random.Random(23)
    for _ in range(200):
        pool = [rng.randrange(1 << 40) for _ in range(rng.randrange(1, 60))]
        sets = [frozenset(rng.sample(pool, rng.randrange(0, len(pool) + 1)))
                for _ in range(rng.randrange(0, 8))]
        assert_masks_match_sum_masks(sets)


@spaces
def test_byte_masks_equal_sum_masks_on_kernel_rows(space):
    p = _packing(space)
    for degree in range(1, MAX_DEGREE + 1):
        sets = [
            _reduced_psi(p, m)
            | {sq_tag(r, w) for r in range(1, degree + 1) for w in _sq_monomial(p, r, m)}
            for m in map(p.encode, basis_enumerate(space, degree))
        ]
        assert_masks_match_sum_masks(sets)


@spaces
def test_sq_vanishes_past_half_the_degree(space):
    # instability: Sq^r_* is zero on H_n once 2r > n.  It holds on these
    # spaces, but a description file need not be unstable, so the kernel
    # reads the rows past d // 2 as well
    p = _packing(space)
    for degree in range(1, MAX_DEGREE + 1):
        for m in map(p.encode, basis_enumerate(space, degree)):
            for r in range(degree // 2 + 1, degree + 1):
                assert not _sq_monomial(p, r, m), (space.label, m, r)


def test_the_top_row_stays_for_a_description_that_is_not_unstable():
    # a description file need not satisfy instability: here Sq^4_* b_7 = a_3
    # with 2 * 4 > 7.  b_7 is primitive and Sq^1_*, Sq^2_* kill it, so only
    # the row Sq^4_* keeps it out of the kernel; cutting the rows to
    # r <= d // 2 would raise CounterexampleFound on b_7
    space = space_from_dict({
        "model": "sigma2",
        "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 5}],
        "sq_action": [{"r": 4, "from": "b", "to": ["a"]}],
    })
    p = _packing(space)
    basis = basis_enumerate(space, 7)
    (b7,) = [m for m in basis if str(m) == "b_7"]
    code = p.encode(b7)
    assert {str(p.decode(w)) for w in _sq_monomial(p, 4, code)} == {"a_3"}
    assert not _sq_monomial(p, 1, code) and not _sq_monomial(p, 2, code)
    assert is_primitive(Element(space, frozenset({b7})))
    assert primitive_annihilated_basis(space, 7) == full_row_kernel(space, 7, basis) == []


def test_the_kernel_reads_every_row_without_the_adem_relations(monkeypatch):
    # Sq^3_* b_6 = a_3 is patched into Sq_*, with Sq^1_* and Sq^2_* still
    # killing b_6: no dual Adem relation explains that term, so rows read
    # through the Sq^(2^i)_* alone would keep b_6 in the kernel.  Reading
    # every Sq^r_* keeps it out, as the full rows do.
    space = suspension_space({"a": 1, "b": 4})
    p = _packing(space)
    basis = basis_enumerate(space, 6)
    codes = {str(m): p.encode(m) for m in basis}
    b6, a3 = codes["b_6"], p.root(codes["a_3^2"])[0]
    real = steenrod._sq_total

    def patched(q, m):
        out = real(q, m)
        return out | {a3} if q is p and m == b6 else out

    with monkeypatch.context() as mp:
        mp.setattr(steenrod, "_sq_total", patched)
        mp.setattr(screener, "_sq_total", patched)
        _sq_monomial.cache_clear()
        try:
            assert {str(p.decode(w)) for w in _sq_monomial(p, 3, b6)} == {"a_3"}
            assert not _sq_monomial(p, 1, b6) and not _sq_monomial(p, 2, b6)
            kernel = _pri_ann_kernel(space, 6, list(codes.values()))
            assert kernel == full_row_kernel(space, 6, basis)
            assert [str(v) for v in kernel] == ["a_3^2"]
        finally:
            real.cache_clear()
            _sq_monomial.cache_clear()


def steenrod_rows(p, codes: list[int], degree: int, relaxed: bool) -> list[set]:
    """The Sq^(2^i)_* rows of each code; relaxed drops the square terms of Sq^1_*."""
    powers = [1 << i for i in range(degree.bit_length())]
    return [
        {(-r, w) for r in powers for w in _sq_monomial(p, r, c)
         if not (relaxed and r == 1 and p.decode(w).is_square())}
        for c in codes
    ]


def test_the_square_part_of_the_sq1_row_is_load_bearing():
    # A relaxed kernel K' over the single generators of degree 2 root - 1,
    # with the square part of the Sq^1_* row dropped, is not small enough to
    # refute the even squares: at root 4 it holds g = Q^(4,3)[1] * [-4],
    # whose suspension is the square (Q^3 x_1)^2.  With the square part kept,
    # the Sq^1_* row alone keeps g out; the exact kernel does too, as g is not
    # primitive.
    space = qs0_space()
    p = _packing(space)
    unit = space.base_classes()[0]
    g = generator_monomial(Generator(unit, upper(4, 3)), 1, -4)
    element = Element(space, frozenset({g}))
    square = generator_monomial(Generator(unit, upper(3)), 2, -4)
    assert str(square) == "(Q^3[1])^2 * [-4]" and square.is_square()
    assert sq_lower(1, element) == Element(space, frozenset({square}))
    assert not sq_lower(2, element) and not sq_lower(4, element)
    sigma = suspend(element)
    assert str(sigma) == "(Q^3 x_1)^2" and sigma.is_square()
    assert not is_primitive(element)

    codes = [p.encode(m) for m in generator_span(space, 7)]
    bit = 1 << codes.index(p.encode(g))
    for relaxed in (True, False):
        rows = steenrod_rows(p, codes, 7, relaxed)
        assert in_span(bit, kernel_of_images(masks_for_term_sets(rows)[0])) == relaxed


def test_the_relaxed_kernel_meets_the_squares_at_most_default_roots():
    # sigma(K') against the squares of qs1 at the even roots of even-squares'
    # default scope: a route on K' would fall back to the exact kernel at
    # three of the five
    qs0, qs1 = qs0_space(), qsn_space(1)
    p, q = _packing(qs0), _packing(qs1)
    meets = []
    for root in range(2, 11, 2):
        degree = 2 * root - 1
        codes = [p.encode(m) for m in generator_span(qs0, degree)]
        rows = steenrod_rows(p, codes, degree, relaxed=True)
        images = [
            _suspend_codes(p, q, _picked(k, codes))
            for k in kernel_of_images(masks_for_term_sets(rows)[0])
        ]
        squares = [_square_set((c,)) for c in _basis_codes(qs1, root)]
        masks, _ = masks_for_term_sets(images + squares)
        if span_intersection(masks[: len(images)], masks[len(images) :]):
            meets.append(root)
    assert meets == [2, 4, 8]
