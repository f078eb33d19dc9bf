"""Sequence bookkeeping: conversions, admissibility, enumeration.

The enumeration oracle here rebuilds every admissible sequence from the
lower-index side with a brute-force search, independent of the recursion in
the package.
"""

from __future__ import annotations

import itertools
import math

import pytest

from loophomology.errors import NegativeLowerIndex
from loophomology.seqcore import (
    LowerSeq,
    UpperSeq,
    enumerate_admissible,
    excess,
    is_admissible,
    lower_to_upper,
    upper_dim,
    upper_to_lower,
)


def brute_admissible(degree: int, base_dim: int, min_excess: int):
    """All admissible upper sequences of one degree, from the lower side.

    A sequence is generated by choosing a nondecreasing tuple of lower
    indices; excess(I) > min_excess pins the least allowed head.
    """
    j_min = max(min_excess - base_dim + 1, 0)
    found = set()
    if degree == base_dim:
        found.add(())
    for s in range(1, degree.bit_length() + 2):
        if base_dim and 2**s * base_dim > degree:
            break
        for js in itertools.combinations_with_replacement(range(j_min, degree + 1), s):
            dim = 2**s * base_dim + sum(2**m * j for m, j in enumerate(js))
            if dim == degree:
                found.add(lower_to_upper(LowerSeq(js), base_dim).entries)
    return found


def test_lower_upper_round_trip_fixture():
    up = lower_to_upper(LowerSeq((1, 2)), 1)
    assert up.entries == (5, 3)
    assert upper_to_lower(up, 1).entries == (1, 2)
    assert upper_dim(up, 1) == 9


def test_negative_lower_index_raises():
    with pytest.raises(NegativeLowerIndex):
        upper_to_lower(UpperSeq((1, 3)), 1)  # head below twice the inner dim


def test_admissible_iff_lower_nondecreasing():
    for entries in itertools.product(range(0, 7), repeat=3):
        seq = UpperSeq(entries)
        try:
            lows = upper_to_lower(seq, 1).entries
        except NegativeLowerIndex:
            continue
        assert is_admissible(seq) == all(
            lows[i] <= lows[i + 1] for i in range(len(lows) - 1)
        )


def test_excess_is_head_lower_index_plus_base():
    for js in itertools.combinations_with_replacement(range(0, 5), 2):
        up = lower_to_upper(LowerSeq(js), 1)
        assert excess(up) == js[0] + 1
    assert excess(UpperSeq(())) == math.inf


@pytest.mark.parametrize("base_dim,min_excess", [(1, 1), (2, 2), (0, 0), (3, 3)])
def test_enumerate_matches_brute_force(base_dim, min_excess):
    # from two below the base dimension, where both sides are empty
    for degree in range(base_dim - 2, 13):
        got = {s.entries for s in enumerate_admissible(degree, base_dim, min_excess)}
        assert got == brute_admissible(degree, base_dim, min_excess), (degree, base_dim)


def test_enumerate_degree_nine_sphere():
    # dimension-9 sequences over a 1-dimensional base with excess > 1
    got = {s.entries for s in enumerate_admissible(9, 1, 1)}
    assert got == {(8,), (5, 3)}


def test_enumerate_excludes_vanishing_and_powers():
    for seq in enumerate_admissible(8, 1, 1):
        assert excess(seq) > 1
