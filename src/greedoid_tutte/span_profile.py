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
it unchanged either way.  So a step starts from a copy of the layer, which
is every skip, and works only on the take of each state.  The states of one
layer are distinct subspaces of GF(2)^R, so there are at most N(R), the
number of such subspaces, of them (Hlineny, "The Tutte polynomial for
matroids of bounded branch-width", Combin. Probab. Comput. 15 (2006), uses
the same states).

A state is one int.  Its low R bits are the pivot set; above them lie R
slots of R bits, slot p holding the reduced row whose pivot is bit p (zero
when p is no pivot).  A column is reduced by XORing in the slots its pivot
bits select: a reduced row has no bit at another row's pivot, so one row
never brings in another.  What is left, v, has no bit at a pivot; when it is
nonzero its lowest bit p is a new pivot, and the rows holding bit p take v
in one product, ``(state >> p & ONES) * v``, ONES being bit 0 of every slot:
v < 2^R, so no slot carries into the next.

Counts by size are packed into one int with m + 1 bits per coefficient, m
being the number of elements, as :func:`.primitives.packed_powers` sets out:
all arithmetic is sums and products of nonnegative polynomials.
"""

from __future__ import annotations

from typing import Sequence

from .carriers import BinaryMatrix
from .primitives import gaussian_binomial, packed_power, unpack_profile


# Microseconds per span, the engine's one figure, fitted with class
# enumeration's constants (:data:`.greedoid.CLASS_STEP_US`) on a 2-core x86-64
# host under CPython 3.11: the router compares the two in this unit.
SPAN_US = 0.15


def span_state_cost(rank: int, classes: int) -> list[tuple[int, str]]:
    """The engine's one figure for a matrix of rank R and ``classes`` distinct columns.

    That is N(R), the most spans a layer can hold.  N(R) >= [R choose
    R//2]_2 >= 2^(R*R//4), so when that already reaches the 2^classes
    subsets of enumeration it stands in for N(R), which is then never summed:
    no layer holds more spans than the 2^classes column sets.
    """
    low = rank * rank // 4
    spans = 1 << low if low >= classes else sum(gaussian_binomial(rank, d, 2) for d in range(rank + 1))
    return [(spans, "spans by the span-state engine")]


def span_state_profile(
    core: BinaryMatrix, sizes: Sequence[int], rank: int
) -> dict[tuple[int, int], int]:
    """Subset counts keyed by (rank deficit, size surplus), as ``rank_size_profile`` gives them.

    ``core`` holds one column per class of identical columns, class i of
    ``sizes[i]`` columns, and ``rank`` is the rank R of the whole matrix.  A
    state is the one-int reduced echelon basis of a span set out in the
    module docstring; each step copies the layer for the skips and adds each
    state's take to its own span, or to the span grown by the column.
    """
    width = sum(sizes) + 1
    window = (1 << rank) - 1
    ones = sum(1 << rank * (p + 1) for p in range(rank))
    layer = {0: 1}
    for col, c in zip(core.column_bits(), sizes):
        col &= window
        take = packed_power(c, width) - 1
        out = dict(layer)
        for state, weight in layer.items():
            vec, pivots = col, col & state
            while pivots:  # slot p lies at bits R(p + 1) and up
                low = pivots & -pivots
                vec ^= state >> rank * low.bit_length() & window
                pivots ^= low
            if vec:  # a new pivot p: the rows holding bit p take vec, slot p gets it
                low = vec & -vec
                state = state ^ (state >> low.bit_length() - 1 & ones) * vec | vec << rank * low.bit_length() | low
            out[state] = out.get(state, 0) + weight * take
        layer = out

    by_rank = [0] * (rank + 1)
    for state, weight in layer.items():
        pivots = state & window
        by_rank[(~pivots & (pivots + 1)).bit_length() - 1] += weight

    return unpack_profile(by_rank, width)
