"""Subset profile of a binary matrix by a dynamic programme over the spans of column sets.

A column set A of a binary matrix is feasible when the top |A| rows of its
columns are nonsingular over GF(2), so the rank of A is the largest k for
which the top k rows of A's columns have rank k.  That depends only on
span(A): write span(A) in reduced echelon form with each row's pivot at its
lowest set bit (the topmost matrix row it meets).  The projection of
span(A) onto the top k rows has one dimension per pivot above k, so rank(A)
is the number of trailing ones of the pivot set.  No rank exceeds the rank
R of the whole matrix, so only the top R rows matter.

The programme takes the columns one by one and keeps, for each span reached
so far, the column sets reaching it counted by size.  A class of c identical
columns is one step: skipping it keeps the span and the counts, and taking
it (any of its 2^c - 1 nonempty subsets) adds the column to the span and
multiplies the counts by (1+z)^c - 1.  A column already in the span leaves
it unchanged either way.  The states of one layer are distinct subspaces of
GF(2)^R, so there are at most N(R), the number of such subspaces, of them
(Hlineny, "The Tutte polynomial for matroids of bounded branch-width",
Combin. Probab. Comput. 15 (2006), uses the same states).

Counts by size are packed into one int with m + 1 bits per coefficient, m
being the number of elements, as :func:`.primitives.packed_powers` sets out:
all arithmetic is sums and products of nonnegative polynomials.
"""

from __future__ import annotations

from typing import Sequence

from .carriers import BinaryMatrix
from .primitives import gaussian_binomial, packed_power, unpack_profile


def span_state_cost(rank: int, classes: int) -> list[tuple[int, str]]:
    """The engine's one figure for a matrix of rank R and ``classes`` distinct columns.

    That is N(R), the most spans a layer can hold.  N(R) >= [R choose
    R//2]_2 >= 2^(R*R//4), so when that already reaches the 2^classes
    subsets of enumeration it stands in for N(R), which is then never summed.
    """
    low = rank * rank // 4
    spans = 1 << low if low >= classes else sum(gaussian_binomial(rank, d, 2) for d in range(rank + 1))
    return [(spans, "spans by the span-state engine")]


def span_state_profile(
    core: BinaryMatrix, sizes: Sequence[int], rank: int
) -> dict[tuple[int, int], int]:
    """Subset counts keyed by (rank deficit, size surplus), as ``rank_size_profile`` gives them.

    ``core`` holds one column per class of identical columns, class i of
    ``sizes[i]`` columns, and ``rank`` is the rank of the whole matrix.  A
    state is the reduced echelon basis of a span, its rows in increasing
    order.
    """
    width = sum(sizes) + 1
    window = (1 << rank) - 1
    layer: dict[tuple[int, ...], int] = {(): 1}
    for col, c in zip(core.column_bits(), sizes):
        col &= window
        take = packed_power(c, width) - 1
        out: dict[tuple[int, ...], int] = {}
        for rows, weight in layer.items():
            vec = col
            for row in rows:
                if vec & row & -row:
                    vec ^= row
            if not vec:  # in the span: skip or take, the span stays
                out[rows] = out.get(rows, 0) + weight * (take + 1)
                continue
            out[rows] = out.get(rows, 0) + weight
            low = vec & -vec
            grown = tuple(sorted([row ^ vec if row & low else row for row in rows] + [vec]))
            out[grown] = out.get(grown, 0) + weight * take
        layer = out

    by_rank = [0] * (rank + 1)
    for rows, weight in layer.items():
        pivots = 0
        for row in rows:
            pivots |= row & -row
        by_rank[(~pivots & (pivots + 1)).bit_length() - 1] += weight

    return unpack_profile(by_rank, width)
