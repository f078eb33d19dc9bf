"""Bitset GF(2) linear algebra against brute-force oracles."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from loophomology.errors import NonUnique, NoSolution
from loophomology.linalg_f2 import (
    echelon,
    kernel_of_images,
    rank,
    solve_linear,
    span_intersection,
)


def in_span(vector: int, rows: list[int]) -> bool:
    """Whether vector is a sum of some of the rows: adding it leaves the rank
    as it was.  The former `linalg_f2.in_span`, kept as the span oracle of
    the tests."""
    return rank(rows + [vector]) == rank(rows)


def solve_unique(columns: list[int], target: int) -> int:
    """The one selection of columns summing to target.

    Raises NonUnique when the columns are dependent, checked first, and
    NoSolution when the target is outside their span.  The former
    `linalg_f2.solve_unique`, kept as the solver of the per-p_I oracle in
    tests/test_primitive_rows.py.
    """
    if kernel_of_images(columns):
        raise NonUnique("the columns are dependent, so a solution is not unique")
    return solve_linear(columns, target)


def reduce_against(vector: int, reduced_rows: list[int]) -> int:
    """Remainder of vector modulo rows with distinct top bits, as an
    `echelon` result has: each row clears its top bit, highest first."""
    for row in sorted(reduced_rows, reverse=True):
        if vector >> (row.bit_length() - 1) & 1:
            vector ^= row
    return vector


def brute_span(rows: list[int]) -> set[int]:
    out = set()
    for bits in itertools.product((0, 1), repeat=len(rows)):
        v = 0
        for b, r in zip(bits, rows):
            if b:
                v ^= r
        out.add(v)
    return out


def random_rows(rng: random.Random, count: int, width: int) -> list[int]:
    return [rng.getrandbits(width) for _ in range(count)]


def test_echelon_fixture():
    rows = echelon([0b110, 0b011, 0b101])
    # 3-bit parity-check rows only span a plane
    assert len(rows) == 2
    assert rank([0b110, 0b011, 0b101]) == 2
    assert in_span(0b101, [0b110, 0b011])
    assert not in_span(0b100, [0b110, 0b011])


def test_echelon_matches_brute_span():
    rng = random.Random(7)
    for _ in range(40):
        rows = random_rows(rng, rng.randrange(0, 6), 7)
        reduced = echelon(rows)
        assert len(reduced) == rank(rows)
        assert brute_span(reduced) == brute_span(rows)
        # reduced echelon rows have distinct pivots
        pivots = [r.bit_length() for r in reduced]
        assert len(set(pivots)) == len(pivots)


def test_reduce_against_is_canonical():
    rng = random.Random(11)
    for _ in range(40):
        rows = echelon(random_rows(rng, 4, 6))
        v = rng.getrandbits(6)
        red = reduce_against(v, rows)
        assert (red == 0) == in_span(v, rows)
        assert (v ^ red) in brute_span(rows)


def test_kernel_of_images():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(1, 7)
        images = random_rows(rng, n, 5)
        kernel = kernel_of_images(images)
        assert len(kernel) == n - rank(images)
        for combo in brute_span(kernel):
            v = 0
            for i in range(n):
                if (combo >> i) & 1:
                    v ^= images[i]
            assert v == 0
        # every brute kernel vector is in the reported span
        reduced = echelon(kernel)
        for bits in itertools.product((0, 1), repeat=n):
            v = 0
            mask = 0
            for i, b in enumerate(bits):
                if b:
                    v ^= images[i]
                    mask |= 1 << i
            if v == 0:
                assert in_span(mask, reduced)


def test_span_intersection():
    rng = random.Random(17)
    for _ in range(40):
        a = random_rows(rng, rng.randrange(0, 5), 6)
        b = random_rows(rng, rng.randrange(0, 5), 6)
        inter = span_intersection(a, b)
        expected = brute_span(a) & brute_span(b)
        assert brute_span(inter) == expected
        assert len(inter) == rank(inter)


def test_solve_linear():
    rng = random.Random(19)
    for _ in range(60):
        cols = random_rows(rng, rng.randrange(1, 6), 6)
        coeffs = rng.getrandbits(len(cols))
        target = 0
        for i, c in enumerate(cols):
            if (coeffs >> i) & 1:
                target ^= c
        solved = solve_linear(cols, target)
        v = 0
        for i, c in enumerate(cols):
            if (solved >> i) & 1:
                v ^= c
        assert v == target
    with pytest.raises(NoSolution):
        solve_linear([0b01], 0b10)


def permute_bits(v: int, perm: list[int]) -> int:
    return sum(1 << perm[i] for i in range(len(perm)) if v >> i & 1)


@st.composite
def images_and_permutation(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    width = rng.randrange(1, 12)
    # more columns than bits, and sparse ones, so that kernels are nonempty
    images = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randrange(1, 16))]
    perm = list(range(width))
    rng.shuffle(perm)
    return images, perm


@settings(derandomize=True, max_examples=200, deadline=None)
@given(images_and_permutation())
def test_kernel_ignores_the_order_of_image_bits(case):
    # Packed monomial codes assign mask bits in int order, not in the printed
    # order, so the kernel vectors must not depend on the bit order.
    images, perm = case
    permuted = [permute_bits(v, perm) for v in images]
    assert kernel_of_images(permuted) == kernel_of_images(images)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(images_and_permutation(), images_and_permutation())
def test_span_intersection_span_ignores_the_order_of_bits(case_a, case_b):
    # Its echelon basis does depend on the bit order, but not its span.
    (a, perm), (b, _) = case_a, case_b
    width = len(perm)
    b = [v & ((1 << width) - 1) for v in b]
    meet = span_intersection([permute_bits(v, perm) for v in a], [permute_bits(v, perm) for v in b])
    assert echelon(meet) == echelon([permute_bits(v, perm) for v in span_intersection(a, b)])


# ---------------------------------------------------------------------------
# Reference oracle: the scan-all elimination the pivot-indexed core replaced.
# Each new row is tested against every pivot row, and the pivot list is
# re-sorted after each insertion.  The outputs must agree exactly.


def scan_all_echelon(rows: list[int]) -> list[int]:
    basis: list[int] = []  # kept in decreasing pivot order
    for row in rows:
        for b in basis:
            if row ^ b < row:  # b's pivot bit is set in row
                row ^= b
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    for i, b in enumerate(basis):
        for j in range(i):
            if basis[j] ^ b < basis[j]:
                basis[j] ^= b
    return basis


def scan_all_pairs(columns: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    pairs: list[tuple[int, int]] = []  # (image, combo), image-pivot echelon
    kernel: list[int] = []
    for j, col in enumerate(columns):
        combo = 1 << j
        for pcol, pcombo in pairs:
            if col ^ pcol < col:
                col ^= pcol
                combo ^= pcombo
        if col:
            pairs.append((col, combo))
            pairs.sort(key=lambda p: p[0], reverse=True)
        else:
            kernel.append(combo)
    return pairs, kernel


def scan_all_solve(columns: list[int], target: int) -> int:
    pairs, _ = scan_all_pairs(columns)
    residue, combo = target, 0
    for pcol, pcombo in pairs:
        if residue ^ pcol < residue:
            residue ^= pcol
            combo ^= pcombo
    if residue:
        raise NoSolution("target vector is not in the span of the columns")
    return combo


def scan_all_intersection(a: list[int], b: list[int]) -> list[int]:
    vectors = []
    for combo in scan_all_pairs(a + b)[1]:
        v = 0
        for i, col in enumerate(a):
            if combo >> i & 1:
                v ^= col
        if v:
            vectors.append(v)
    return scan_all_echelon(vectors)


def dependent_rows(rng: random.Random, count: int, width: int) -> list[int]:
    """Random rows, some sparse, with sums of earlier rows and zeros forced in."""
    rows: list[int] = []
    for _ in range(count):
        roll = rng.random()
        if rows and roll < 0.3:
            v = 0
            for r in rng.sample(rows, rng.randrange(1, min(4, len(rows)) + 1)):
                v ^= r
            rows.append(v)
        elif roll < 0.35:
            rows.append(0)
        elif roll < 0.6:
            rows.append(rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width))
        else:
            rows.append(rng.getrandbits(width))
    return rows


def solve_or_none(solver, columns: list[int], target: int) -> int | None:
    try:
        return solver(columns, target)
    except NoSolution:
        return None


def assert_matches_scan_all(rows: list[int], other: list[int], rng: random.Random) -> None:
    assert echelon(rows) == scan_all_echelon(rows)
    assert rank(rows) == len(scan_all_echelon(rows))
    assert kernel_of_images(rows) == scan_all_pairs(rows)[1]
    assert span_intersection(rows, other) == scan_all_intersection(rows, other)
    in_span_target = 0
    for r in rows:
        if rng.random() < 0.5:
            in_span_target ^= r
    width = max((r.bit_length() for r in rows + other), default=1)
    for target in (in_span_target, rng.getrandbits(width), 0):
        expected = solve_or_none(scan_all_solve, rows, target)
        assert solve_or_none(solve_linear, rows, target) == expected
        assert in_span(target, rows) == (expected is not None)
        assert reduce_against(target, scan_all_echelon(rows)) == reduce_against(
            target, echelon(rows)
        )


@st.composite
def dependent_matrices(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 96))
    rows = dependent_rows(rng, draw(st.integers(0, 64)), width)
    other = dependent_rows(rng, draw(st.integers(0, 64)), width)
    return rows, other, rng


@settings(derandomize=True, max_examples=300, deadline=None)
@given(dependent_matrices())
def test_elimination_matches_scan_all(case):
    rows, other, rng = case
    assert_matches_scan_all(rows, other, rng)


def test_elimination_matches_scan_all_on_a_large_matrix():
    rng = random.Random(400600)
    rows = dependent_rows(rng, 400, 600)
    other = dependent_rows(rng, 200, 600)
    assert_matches_scan_all(rows, other, rng)
    # fewer rows than bits, so this one also claims fresh pivots throughout
    tall = dependent_rows(rng, 400, 300)
    assert kernel_of_images(tall) == scan_all_pairs(tall)[1]


def test_solve_unique():
    rng = random.Random(23)
    for _ in range(60):
        cols = dependent_rows(rng, rng.randrange(1, 8), 10)
        target = rng.getrandbits(10)
        if scan_all_pairs(cols)[1]:
            with pytest.raises(NonUnique):
                solve_unique(cols, target)
            continue
        expected = solve_or_none(scan_all_solve, cols, target)
        if expected is None:
            with pytest.raises(NoSolution):
                solve_unique(cols, target)
        else:
            assert solve_unique(cols, target) == expected
    # dependence is reported before an unreachable target
    with pytest.raises(NonUnique):
        solve_unique([0b01, 0b01], 0b10)
