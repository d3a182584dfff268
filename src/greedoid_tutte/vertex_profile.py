"""Subset profile of a rooted graph or digraph by a sum over the vertex sets the root reaches.

The rank of an element set A is one less than the number of vertices the
root reaches along A.  Group the subsets by that reached set S, which holds
the root.  A subset reaching exactly S is a set inside S (both ends, or the
tail and the head, in S) that reaches all of S, joined with any set of
elements that cannot leave S: edges with both ends outside S, or arcs with
their tail outside S.  Counted by size, that is R_S(z) (1+z)^free(S) at rank
|S| - 1.

R_S counts the sets inside S that reach all of S.  Every set inside S
reaches some T with the root in T and T inside S, and then consists of a set
inside T reaching all of T and any set of the k(S, T) elements inside S that
cannot leave T: those inside S \\ T for a graph, and the arcs with tail in
S \\ T and head in S for a digraph.  So

    R_S = (1+z)^|E(S)| - sum over T strictly inside S of R_T (1+z)^k(S, T),

which costs one product for each of the 3^(n-1) pairs of sets T inside S,
where n is the number of vertices the root reaches, whatever the number of
elements (Bjorklund, Husfeldt, Kaski and Koivisto, "Computing the Tutte
polynomial in vertex-exponential time", FOCS 2008).

Vertices the root does not reach take no part in the sum, and loops,
repeated elements and arcs into the root need no special case.  Every
polynomial in z is held as one int with m + 1 bits per coefficient, where m
is the number of elements: every count is at most 2^m, so a product of two
polynomials is one product of ints, and since every R_S is nonnegative
coefficientwise, the subtraction borrows across no coefficient.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .carriers import RootedDigraph, RootedGraph, carrier_elements


def vertex_subset_profile(
    carrier: RootedGraph | RootedDigraph, reached: set[int]
) -> dict[tuple[int, int], int]:
    """Subset counts keyed by (rank deficit, size surplus), as ``rank_size_profile`` gives them.

    ``reached`` is the set of vertices the root reaches along all the
    carrier's elements.  Vertex sets are bitmasks over these vertices, with
    the root as bit 0.
    """
    directed = isinstance(carrier, RootedDigraph)
    bit = {v: 1 << i for i, v in enumerate(sorted(reached, key=lambda v: v != carrier.root))}
    n, m = len(bit), carrier.edge_count
    masks = np.arange(1 << n, dtype=np.int64)
    inside = np.zeros(1 << n, dtype=np.int64)  # elements with both ends in S
    blocked = np.zeros(1 << n, dtype=np.int64)  # elements with an end (a tail) in S
    into = np.zeros((n, 1 << n), dtype=np.int64) if directed else None  # arcs out of i, head in S
    for (u, v), count in Counter(carrier_elements(carrier)).items():
        if u not in bit:  # both ends, or the tail, unreached: free for every S
            continue
        ends = bit[u] | bit[v]
        inside += count * ((masks & ends) == ends)
        blocked += count * ((masks & (bit[u] if directed else ends)) != 0)
        if directed:
            into[bit[u].bit_length() - 1] += count * ((masks & bit[v]) != 0)
    inside_of, free_of = inside.tolist(), (m - blocked).tolist()

    width = m + 1
    powers = [1]  # (1+z)^k for k = 0..m
    for _ in range(m):
        powers.append(powers[-1] + (powers[-1] << width))
    reaching = [0] * (1 << n)  # R_S
    by_rank = [0] * n
    # k[part] counts the elements inside S that cannot leave T = S \ part.
    # For a graph it is the edges inside part, whatever S is; for a digraph
    # it is the arcs with tail in part and head in S, filled in for each S.
    k = [0] * (1 << n) if directed else inside_of
    for s in range(1, 1 << n, 2):
        rest = s ^ 1
        if directed:
            row = into[:, s].tolist()
            part = 0
            while part != rest:  # the subsets of rest in increasing order
                part = (part - rest) & rest
                low = part & -part
                k[part] = k[part ^ low] + row[low.bit_length() - 1]
        total = 0
        part = rest
        while part:
            total += reaching[s ^ part] * powers[k[part]]
            part = (part - 1) & rest
        reaching[s] = powers[inside_of[s]] - total
        by_rank[s.bit_count() - 1] += reaching[s] * powers[free_of[s]]

    field = (1 << width) - 1
    profile: dict[tuple[int, int], int] = {}
    for rank, packed in enumerate(by_rank):
        size = 0
        while packed:
            if packed & field:
                profile[(n - 1 - rank, size - rank)] = packed & field
            packed >>= width
            size += 1
    return profile
