"""Dense GF(2) linear algebra on Python integers used as bit vectors.

A vector is an int whose bit i is the coefficient of basis element i; a
matrix is a list of row ints.  Addition is xor, and Python's
arbitrary-precision ints keep this exact at any dimension we care about.

Every routine here runs on one elimination core, `_eliminate`.  It keeps a
dict from pivot bit to `(row, combo)`, where combo records which inputs were
added up to make the row.  A new row is reduced by its top bit: look the bit
up, xor in the pivot row it names, and repeat until the row vanishes or its
top bit is not yet a pivot, which it then claims.  Only the pivots a row
actually hits are touched, so reducing a row costs one big-int xor per hit
pivot and nothing per missed one, and no pivot list is ever sorted.  `rank`
only counts pivots.  `echelon` back-substitutes once, in increasing pivot
order, visiting only the pivot bits set in each row, and returns the unique
reduced row echelon form in decreasing pivot order.

Kernel and solve combos are unique too: each is supported on the pivot
inputs, the inputs independent of all earlier ones, which form a basis.  So
every result is independent of the order in which pivots are hit.
"""

from __future__ import annotations

from .errors import NoSolution

Pivots = dict[int, tuple[int, int]]  # pivot bit -> (row, combo)


def _reduce(piv: Pivots, row: int, combo: int) -> tuple[int, int]:
    """Reduce row until it vanishes or its top bit is not a pivot."""
    while row:
        hit = piv.get(row.bit_length() - 1)
        if hit is None:
            break
        row ^= hit[0]
        combo ^= hit[1]
    return row, combo


def _eliminate(rows: list[int], track: bool) -> tuple[Pivots, list[int]]:
    """Forward elimination of rows in order.

    Returns the pivot dict and the combos of the rows that vanished.  With
    track, input j starts with combo 1 << j; without it every combo is 0.
    """
    piv: Pivots = {}
    kernel: list[int] = []
    for j, row in enumerate(rows):
        row, combo = _reduce(piv, row, 1 << j if track else 0)
        if row:
            piv[row.bit_length() - 1] = (row, combo)
        elif track:
            kernel.append(combo)
    return piv, kernel


def echelon(rows: list[int]) -> list[int]:
    """Reduced row echelon form of the rows, decreasing pivots, zero rows dropped."""
    piv, _ = _eliminate(rows, False)
    mask = sum(1 << p for p in piv)
    reduced: dict[int, int] = {}
    for p in sorted(piv):
        # rows below p are already reduced, so each hit clears exactly one bit
        row = piv[p][0]
        hits = (row & mask) ^ (1 << p)
        while hits:
            q = hits.bit_length() - 1
            row ^= reduced[q]
            hits ^= 1 << q
        reduced[p] = row
    return [reduced[p] for p in sorted(reduced, reverse=True)]


def rank(rows: list[int]) -> int:
    return len(_eliminate(rows, False)[0])


def kernel_of_images(images: list[int]) -> list[int]:
    """Kernel basis of the map e_i -> images[i].

    Returns combination vectors c (bit j of c set means input j participates)
    with xor of the selected images zero, one per image that depends on the
    earlier ones, in input order.
    """
    return _eliminate(images, True)[1]


def span_intersection(a: list[int], b: list[int]) -> list[int]:
    """Echelon basis of span(a) intersect span(b).

    A kernel vector of the concatenated columns [a | b] picks subsets with
    equal sums, and that common sum is an intersection vector.
    """
    low = (1 << len(a)) - 1
    vectors = []
    for combo in kernel_of_images(a + b):
        combo &= low
        v = 0
        while combo:
            bit = combo & -combo
            v ^= a[bit.bit_length() - 1]
            combo ^= bit
        if v:
            vectors.append(v)
    return echelon(vectors)


def _solve(piv: Pivots, target: int) -> int:
    residue, combo = _reduce(piv, target, 0)
    if residue:
        raise NoSolution("target vector is not in the span of the columns")
    return combo


def solve_linear(columns: list[int], target: int) -> int:
    """Solve sum over selected columns == target; returns the selection bitmask.

    Raises NoSolution when the target is outside the column span.  When the
    columns are dependent the solution supported on the columns independent
    of all earlier ones is returned.
    """
    return _solve(_eliminate(columns, True)[0], target)

