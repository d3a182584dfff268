"""Subset profile of a binary matrix: one count of spanning sets per top-k level.

A column set A of a binary matrix is feasible when the top |A| rows of its
columns are nonsingular over GF(2), so the rank of A is the largest k for
which the top k rows of A's columns span GF(2)^k.  No rank exceeds the rank
R of the whole matrix, so only the top R rows matter, and they are
independent, since some R columns are nonsingular on them.  Let f_k count,
by size, the column sets whose top k rows span GF(2)^k: the spanning sets of
level k.  A set of rank at least k spans at every level up to k, so the sets
of rank exactly k number f_k - f_(k+1), with f_0 = (1+z)^m for the m
columns and f_(R+1) = 0.  Every set spanning at level k + 1 spans at level k,
so f_k - f_(k+1) has no negative coefficient, and the packed difference
borrows nothing.

Each f_k counts the spanning sets of a binary matroid, the columns' top k
rows, by the suffix intersection of :func:`.basis_counting.count_bases`
(Hlineny, "The Tutte polynomial for matroids of bounded branch-width",
Combin. Probab. Comput. 15 (2006)).  The columns are written in the suffix
coordinates of :func:`.basis_counting._suffix_coordinates`: coordinate r
belongs to the r-th column of a basis picked greedily from the right, so
U_i, the span of the columns from i on, is spanned by the coordinates whose
basis column is i or later.  After i columns the state of A is S = span(A)
∩ U_i.  A can still span exactly while span(A) + U_i is the whole space.
Passing the basis column of coordinate r, U loses r, and that stays true
only when S, with the column taken or not, holds a row led at r: that row
leaves S, and a state with no such row is dropped, since it can no longer
span.  At the end U is 0, so f_k is the weight left on the empty state.
Within a level, columns of equal coordinates are one class of c columns,
placed at the last of them, with take-weight (1+z)^c - 1; the last is the
only one that can be a basis column, so no U_i changes.  Zero columns are
loops, of weight (1+z)^c.

A state is one int.  With d the level's dimension, its low d bits are the
pivot set; above them lie d slots of d bits, slot p holding the reduced row
whose pivot is bit p (zero when p is no pivot), each row led at its lowest
set bit.  A column is reduced by XORing in the slots its pivot bits select:
a reduced row has no bit at another row's pivot, so one row never brings in
another.  What is left, v, has no bit at a pivot; when it is nonzero its
lowest bit p is a new pivot, and the rows holding bit p take v in one
product, ``(state >> p & ONES) * v``, ONES being bit 0 of every slot: v <
2^d, so no slot carries into the next.  Leaving U, coordinate r is the
lowest bit any state can hold, so the row led there is slot r, and masking
out slot r and pivot bit r leaves the other rows reduced.

Counts by size are packed into one int with m + 1 bits per coefficient, m
being the number of elements, as :func:`.primitives.packed_powers` sets out:
all arithmetic is sums and products of nonnegative polynomials, and the
differences above.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

from .basis_counting import _coordinates, _insert, _pack
from .carriers import BinaryMatrix
from .primitives import gaussian_binomial, packed_power, unpack_profile


def span_state_cost(rank: int, classes: int) -> list[tuple[int, str]]:
    """The engine's one figure for a matrix of rank R and ``classes`` distinct columns.

    That is min(N(R), 2^classes), N(R) being the number of subspaces of
    GF(2)^R, and it bounds every layer.  A layer of level k holds distinct
    subspaces S of GF(2)^k, k <= R, and GF(2)^k embeds in GF(2)^R, so no
    layer holds more than N(k) <= N(R) states.  Each state is span(A) ∩ U_i
    for a set A of the classes seen so far, so distinct states come from
    distinct sets of classes, and no layer holds more than 2^classes of
    them.  N(R) >= [R choose R//2]_2 >= 2^(R*R//4), so when that already
    reaches 2^classes the figure is 2^classes and N(R) is never summed.
    """
    spans = 1 << classes
    if rank * rank // 4 < classes:
        spans = min(spans, sum(gaussian_binomial(rank, d, 2) for d in range(rank + 1)))
    return [(spans, "spans by the span-state engine")]


def span_state_profile(
    core: BinaryMatrix, sizes: Sequence[int], rank: int
) -> dict[tuple[int, int], int]:
    """Subset counts keyed by (rank deficit, size surplus), as ``rank_size_profile`` gives them.

    ``core`` holds one column per class of identical columns, class i of
    ``sizes[i]`` columns, and ``rank`` is the rank R of the whole matrix.
    Level k's suffix coordinates come from the canonical rows of the top k
    matrix rows, each level inserting one row into the last; its spanning
    sets f_k come from :func:`spanning_sets`, and the sets of rank exactly k
    number f_k - f_(k+1), as the module docstring sets out.
    """
    width = sum(sizes) + 1
    powers = [packed_power(c, width) for c in sizes]
    spanning, rows = [prod(powers)], ()  # every set has rank >= 0
    for vec in _pack([row[::-1] for row in core.bits[:rank]], 2):  # the top R rows, read right to left
        rows = _insert(rows, vec, 2)  # the top R rows are independent, so each one grows the rows
        spanning.append(spanning_sets(_coordinates(rows, len(sizes), 2), powers))
    spanning.append(0)
    return unpack_profile([f - g for f, g in zip(spanning, spanning[1:])], width)


def spanning_sets(coords: Sequence[int], powers: Sequence[int]) -> int:
    """The column sets that span the column space, counted by size.

    ``coords`` are the columns' suffix coordinates over GF(2), as
    :func:`.basis_counting._suffix_coordinates` gives them.  Column i stands
    for c identical columns, and ``powers[i]`` is (1+z)^c, packed as
    :func:`.primitives.packed_powers` sets out; so is the count.  A state is
    S = span(A) ∩ U_i as one int, as the module docstring sets out.
    """
    power: dict[int, int] = {}
    for col, p in zip(reversed(coords), reversed(powers)):  # equal coordinates merge, placed at the last of them
        power[col] = power.get(col, 1) * p
    loops = power.pop(0, 1)
    takes = [(col, p - 1) for col, p in reversed(power.items())]  # by the last column of each class
    dim = max(power, default=0).bit_length()  # coordinate dim - 1 is the last pivot's
    if len(takes) == dim:  # dim classes span only all together
        return loops * prod(take for _, take in takes)
    window, ones = (1 << dim) - 1, sum(1 << dim * p for p in range(1, dim + 1))
    layer = {0: 1}
    for col, take in takes:
        if col & col - 1:  # not a unit, so U keeps every coordinate and every skip its state
            out = dict(layer)
            for state, weight in layer.items():
                vec, found = col, col & state
                while found:  # slot p lies at bits dim(p + 1) and up
                    low = found & -found
                    vec ^= state >> dim * low.bit_length() & window
                    found ^= low
                if vec:  # a new pivot p: the rows holding bit p take vec, slot p gets it
                    low = vec & -vec
                    state = state ^ (state >> low.bit_length() - 1 & ones) * vec | vec << dim * low.bit_length() | low
                out[state] = out.get(state, 0) + weight * take
        else:  # unit r, the last column with coordinate r, which U loses
            slot = dim * col.bit_length()
            keep, clear, out = ~(col | window << slot), ~(ones << col.bit_length() - 1), {}
            for state, weight in layer.items():
                if not state & col:  # no pivot r: the skip can no longer span, the take clears bit r from every row
                    state &= clear
                    out[state] = out.get(state, 0) + weight * take
                    continue
                vec, state = (state >> slot & window) ^ col, state & keep  # row r less bit r; the rest
                out[state] = out.get(state, 0) + weight
                if vec:  # the take keeps it, as a new pivot
                    low = vec & -vec
                    state = state ^ (state >> low.bit_length() - 1 & ones) * vec | vec << dim * low.bit_length() | low
                out[state] = out.get(state, 0) + weight * take
        layer = out
    return layer.get(0, 0) * loops
