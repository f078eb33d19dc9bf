"""The suspension-kernel suite's predicate against the three-rank one it replaced.

Each degree of the suite now checks that the kernel of the suspension is
independent, as large as the set of decomposables and inside their index
mask.  The decomposables are distinct unit vectors, so that is exactly the
former test: the ranks of the kernel, of the decomposables and of both
together all equal, and equal to both sizes.  The former predicate is the
oracle below, with its detail text, which a failing degree must still print.

Four mutants of `suspension._suspend_codes` give the predicate something
to catch: one sends a decomposable to a generator's image, one sends two
generators to one image, one kills a generator, and one lets a decomposable
survive.  The first three put a generator into the kernel; only the last
leaves the kernel inside the decomposables but too small.

The suite tells a generator from a decomposable by the exponent field alone
(`f2algebra._generator_index`); that is checked against the gen_length of
every basis code.
"""

from __future__ import annotations

import re
from functools import cache

import pytest

from loophomology import certify, suspension
from loophomology.cli import main
from loophomology.f2algebra import (
    ONE_CODE,
    _basis_codes,
    _degree,
    _exponents,
    _factors,
    _generator_index,
    _translation_code,
)
from loophomology.linalg_f2 import rank
from loophomology.spaces import qs0_space, qsn_space, two_cell_space

QS0, QS1 = qs0_space(), qsn_space(1)
REAL_SUSPEND = suspension._suspend_codes


def gen_length(code: int) -> int:
    """Monomial.gen_length of a code: its factors counted with multiplicity."""
    return sum(_exponents(code))


def former_case(space, degree: int) -> tuple[bool, int, str]:
    """The former suspension-kernel case: three ranks and two sizes."""
    codes = _basis_codes(space, degree)
    kernel = suspension._suspension_kernel(space, codes)
    decomposables = [1 << i for i, c in enumerate(codes) if gen_length(c) >= 2]
    k_rank, d_rank = rank(kernel), rank(decomposables)
    joint = rank(kernel + decomposables)
    ok = k_rank == d_rank == joint and k_rank == len(kernel) == len(decomposables)
    return ok, k_rank, (
        f"{space.label} degree {degree}: kernel dim {len(kernel)} (rank {k_rank}) vs "
        f"{len(decomposables)} decomposables (rank {d_rank}, joint {joint})"
    )


@cache
def live_generators(source, target, degree: int) -> list[int]:
    """The generators of a degree with a nonzero image, in basis order."""
    return [c for c in _basis_codes(source.space, degree)
            if gen_length(c) == 1 and REAL_SUSPEND(source, target, (c,))]


@cache
def first_decomposable(space, degree: int) -> int | None:
    """The first decomposable of a degree's basis, if any."""
    return next((c for c in _basis_codes(space, degree) if gen_length(c) >= 2), None)


def decomposable_hits_a_generator_image(source, target, code):
    """The first decomposable of each degree goes where the first live generator goes."""
    live = live_generators(source, target, _degree(code))
    if code == first_decomposable(source.space, _degree(code)) and live:
        return REAL_SUSPEND(source, target, live[:1])
    return REAL_SUSPEND(source, target, (code,))


def two_generators_share_an_image(source, target, code):
    """The second live generator of each degree goes where the first goes."""
    live = live_generators(source, target, _degree(code))
    if live[1:2] == [code]:
        return REAL_SUSPEND(source, target, live[:1])
    return REAL_SUSPEND(source, target, (code,))


def a_generator_dies(source, target, code):
    """The first live generator of each degree goes to zero."""
    if live_generators(source, target, _degree(code))[:1] == [code]:
        return frozenset()
    return REAL_SUSPEND(source, target, (code,))


def a_decomposable_survives(source, target, code):
    """The first decomposable of each degree goes to a term no other image has."""
    if code == first_decomposable(source.space, _degree(code)):
        return frozenset({-code})
    return REAL_SUSPEND(source, target, (code,))


def per_code(image):
    """_suspend_codes with image(source, target, code) for each code."""

    def suspend_codes(source, target, codes):
        out: set[int] = set()
        for code in codes:
            out ^= image(source, target, code)
        return frozenset(out)

    return suspend_codes


MUTANTS = {
    "decomposable-hits-a-generator-image": decomposable_hits_a_generator_image,
    "two-generators-share-an-image": two_generators_share_an_image,
    "a-generator-dies": a_generator_dies,
    "a-decomposable-survives": a_decomposable_survives,
}


@pytest.mark.parametrize("mutant", [None, *MUTANTS], ids=lambda m: m or "real")
def test_the_predicate_gives_the_former_verdict_to_degree_12(mutant, monkeypatch):
    if mutant:
        monkeypatch.setattr(suspension, "_suspend_codes", per_code(MUTANTS[mutant]))
    failing = 0
    for space in (QS0, QS1):
        for degree in range(1, 13):
            ok, count, detail = certify._suspension_walk((space, range(degree, degree + 1)))
            former_ok, former_count, former_detail = former_case(space, degree)
            assert (ok, count) == (former_ok, former_count), (space.label, degree)
            if not ok:
                assert detail == former_detail
                failing += 1
    assert bool(failing) == bool(mutant)


DETAIL = re.compile(
    r"(qs0|qs1) degree \d+: kernel dim \d+ \(rank \d+\) vs \d+ decomposables "
    r"\(rank \d+, joint \d+\)"
)


@pytest.mark.parametrize("mutant", MUTANTS)
def test_the_suite_fails_a_mutant_in_the_former_words(mutant, monkeypatch, capsys):
    monkeypatch.setattr(suspension, "_suspend_codes", per_code(MUTANTS[mutant]))
    expected = [former_case(space, d) for space in (QS0, QS1) for d in range(1, 7)]
    details = [detail for ok, _, detail in expected if not ok]
    assert details
    assert main(["verify", "--suite", "suspension-kernel", "--max-degree", "6"]) == 3
    out = capsys.readouterr().out
    assert out == f"suspension-kernel fail: {'; '.join(details)}\n"
    assert all(DETAIL.fullmatch(d) for d in details)


CODE_SPACES = [(QS0, 0), (QS0, 1), (QS1, None), (qsn_space(2), None), (qsn_space(3), None),
               (two_cell_space(), None)]


def test_the_single_generator_test_reads_gen_length_one():
    codes = [ONE_CODE] + [_translation_code(s * k) for k in (1, 2, 7, 2**20) for s in (1, -1)]
    for space, charge in CODE_SPACES:
        for degree in range(1, 15):
            codes += _basis_codes(space, degree, charge)
    for code in codes:
        i = _generator_index(code)
        assert (i is not None) == (gen_length(code) == 1), hex(code)
        assert i is None or _factors(code) == [(i, 1)]
