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
polynomial in vertex-exponential time", FOCS 2008).  Graph blocks take this
sum; digraph blocks take the sharper one over the in-arc base, below.

The sum runs block by block.  Take the blocks of the underlying graph on
the reached vertices.  Each block B has one vertex p nearest the root, and
a path from the root into B passes p and then stays in B, so the vertices
of B that A reaches are those p reaches along A's elements in B, when p is
reached at all, and none otherwise.  So with P_c(z, w) the profile of all
that hangs below a vertex c (w counting the vertices reached below c, once c
is), and m_c its element count, the part at and below p is

    sum over S inside B holding p of R_S(z) (1+z)^free(S) w^(|S|-1)
        * product over c in S \\ p of P_c * product over c in B \\ S of (1+z)^m_c,

with R_S and free(S) over B's elements only: a sum of 3^(|B|-1) products.
The sums over S are kept by the cut vertices (those with something below)
that S holds, and these are folded in one at a time: an entry holding c is
multiplied by P_c, any other by (1+z)^m_c, and the two merge under the key
without c, about 2^(cuts+1) products in all.  The blocks are taken from
the leaves of the block-cut tree up to the root, whose part times
(1+z)^(elements in no block) is the profile (compare the multiplicativity
of the greedoid polynomial over such joins: Gordon and McMahon, Proc.
Amer. Math. Soc. 107, 1989).  Loops, repeated elements, arcs into the root
and unreached vertices need no special case.

A block of 2 vertices, p and one other vertex q, needs no sum and no table.
Let it hold d elements from p to q (every edge of a graph block) and u arcs
from q to p.  The set {p} leaves the u arcs and all below q free, and
R_{p,q} = (1+z)^u ((1+z)^d - 1), so the part at and below p is

    (1+z)^(u + m_q) + w (1+z)^u ((1+z)^d - 1) P_q.

A digraph block of 3 or more vertices sums over the in-arc base.  Let
in_X(v) be the number of arcs from X into v, and P_d = (1+z)^d - 1.  The
arc sets inside S in which every vertex but the top p has an in-arc from S
are counted by size by

    F(S) = (1+z)^in_S(p) * product over v in S \\ p of P_(in_S(v)),

each arc inside S being counted at its head.  A set A that F(S) counts
reaches some T inside S holding p, and all of T along its arcs inside T.
It has no arc from T into U = S \\ T, or it would reach further, so each
vertex of U has its in-arc from U; its arcs from U into T are any.
Conversely a set inside T reaching all of T, any arcs from U into T, and an
arc set inside U in which every vertex has an in-arc from U make a set that
F(S) counts and that reaches exactly T.  So, with

    G(U) = product over v in U of P_(in_U(v)),

which is not 0 exactly when U is sourceless (every vertex of U has an
in-arc from U), and a(U, T) the number of arcs from U into T,

    R_S = F(S) - sum over nonempty U inside S \\ p of R_(S \\ U) G(U) (1+z)^a(U, S \\ U).

R_S = 0 when F(S) = 0, as R_S counts some of the sets F(S) counts, so such
S are skipped.  Let M(X) be what is left of X after removing, again and
again, its vertices with no in-arc from what remains.  A sourceless U inside
X loses no vertex at any step, so it lies inside M(X), and the sum walks
only the subsets of M(S \\ p): in a sparse or nearly acyclic block there are
few.  Repeated arcs and arcs into p are counted by in_S and a.  One table of
the union of the out-neighbours of every vertex set gives the peel M(X) for
every set X of vertices other than p.  The walks visit at most the
3^(|B|-1) pairs (S, U) of the sum over all T, the engine's figure, and F and
G take at most |B| 2^|B| products more.  In a complete digraph every set of
2 or more vertices is sourceless, so the walks visit nearly every pair, each
with two products where the sum over all T takes one.

Every polynomial in z is packed into one int with m + 1 bits per
coefficient, m being the number of elements, as
:func:`.primitives.packed_powers` sets out; every R_S is nonnegative
coefficientwise, so its subtraction borrows across no coefficient.  Powers
of w step by m + 1 such coefficients, so a profile in z and w is one
int of (rank + 1)(m + 1)^2 bits, and the product of the profiles of disjoint
element sets, which has at most m elements, is again one product of ints.
Only a block's sum over S carries w; each R_S stays a polynomial in z.
"""

from __future__ import annotations

from .carriers import RootedDigraph, RootedGraph, carrier_elements
from .primitives import block_elements, packed_fields, packed_powers, unpack_profile


# Microseconds per product, the engine's first figure, fitted with class
# enumeration's constants (:data:`.greedoid.CLASS_STEP_US`) on a 2-core x86-64
# host under CPython 3.11: the router compares the two in this unit.
PRODUCT_US = 0.15


def vertex_subset_cost(core: RootedGraph | RootedDigraph, reached: set[int], size: int) -> list[tuple[int, str]]:
    """The products and the bits this engine takes for a carrier of ``size`` elements.

    ``core`` holds one element per class of identical elements, and
    ``reached`` the vertices its root reaches.  A block B takes 3^(|B|-1)
    products, the pairs of vertex sets its sum visits at most, and a block
    of 2 vertices the one product of its closed form.
    The powers (1+z)^k, k <= size, and the profile take about
    (size + rank)(size + 1)^2 bits.
    """
    tree = block_elements(core.root, carrier_elements(core), reached)
    products = sum(3 ** len(others) if len(others) > 1 else 1 for _, others, _ in tree)
    return [(products, "products by the vertex-subset engine"), vertex_subset_bits(size, len(reached))]


def vertex_subset_bits(size: int, reached: int) -> tuple[int, str]:
    """The bits of the powers (1+z)^k, k <= size, and of the profile, for a
    carrier of ``size`` elements whose root reaches ``reached`` vertices."""
    return (size + reached + 1) * (size + 1) ** 2, "bits by the vertex-subset engine"


def vertex_subset_profile(
    carrier: RootedGraph | RootedDigraph, reached: set[int]
) -> dict[tuple[int, int], int]:
    """Subset counts keyed by (rank deficit, size surplus), as ``rank_size_profile`` gives them.

    ``reached`` is the set of vertices the root reaches along all the
    carrier's elements.
    """
    directed = isinstance(carrier, RootedDigraph)
    m = carrier.edge_count
    width, stride = m + 1, (m + 1) ** 2  # bits per coefficient, and per power of w
    powers = packed_powers(m)

    below: dict[int, tuple[int, int]] = {}  # vertex -> (P_c, m_c) of what hangs below it
    for top, others, part in block_elements(carrier.root, carrier_elements(carrier), reached):
        hanging = [below.pop(v, (1, 0)) for v in others]
        block, size = _block_profile([top, *others], part, hanging, directed, powers, stride)
        above, count = below.get(top, (1, 0))
        below[top] = (above * block, count + size)
    total, size = below.get(carrier.root, (1, 0))
    total *= powers[m - size]

    return unpack_profile(packed_fields(total, stride, len(reached)), width)


def _set_sums(values: list[int]) -> list[int]:
    """The sum of ``values[v]`` over the v in S, for every vertex set S, indexed by bitmask."""
    table = [0]
    for value in values:
        table += [t + value for t in table]
    return table


def _block_profile(
    vertices: list[int],
    elements: dict[tuple[int, int], int],
    hanging: list[tuple[int, int]],
    directed: bool,
    powers: list[int],
    stride: int,
) -> tuple[int, int]:
    """The profile in z and w of one block and all that hangs below it, and its element count.

    ``vertices[0]`` is the block's top, and bit 0 of every vertex set;
    ``elements`` counts the block's elements by end pair, and ``hanging`` gives
    (P_c, m_c) for each other vertex in turn.
    """
    if len(vertices) == 2:  # the closed form; see the module docstring
        top, other = vertices
        ((hanging_profile, below),) = hanging
        up = elements.get((other, top), 0) if directed else 0
        down = sum(elements.values()) - up
        both = powers[up] * (powers[down] - 1)
        if below:
            both *= hanging_profile
        return powers[up + below] + (both << stride), down + up + below
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    pairs = [[0] * n for _ in range(n)]  # elements by end (tail, head) indices
    for (u, v), count in elements.items():
        pairs[index[u]][index[v]] += count
    if directed:  # arcs with tail outside S
        free, reaching = _set_sums([sum(row) for row in pairs])[::-1], _in_arc_base(pairs, powers)
    else:  # edges inside the complement of S
        inside = _inside(pairs)
        free, reaching = inside[::-1], _subset_base(inside, powers)

    sums: dict[int, int] = {}  # S's vertices with something below -> sum over S, in z and w
    cuts = sum(1 << i for i, (_, count) in enumerate(hanging, 1) if count)
    for s in range(1, 1 << n, 2):
        if reaching[s]:
            sums[s & cuts] = sums.get(s & cuts, 0) + (reaching[s] * powers[free[s]] << (s.bit_count() - 1) * stride)

    # one cut vertex c at a time: P_c where c is in S, (1+z)^m_c where it is not
    size = sum(elements.values())
    for i, (hanging_profile, count) in enumerate(hanging, 1):
        if count:
            folded: dict[int, int] = {}
            for met, poly in sums.items():
                key = met & ~(1 << i)
                folded[key] = folded.get(key, 0) + poly * (hanging_profile if met >> i & 1 else powers[count])
            sums, size = folded, size + count
    return sums[0], size


def _inside(pairs: list[list[int]]) -> list[int]:
    """The elements with both ends in S, for every vertex set S.

    The sets holding vertex i are those of the first i vertices, each with i added.
    """
    inside = [0]
    for i in range(len(pairs)):
        inside += [a + b for a, b in zip(inside, _set_sums([pairs[i][j] + pairs[j][i] for j in range(i)]))]
    return inside


def _subset_base(inside: list[int], powers: list[int]) -> list[int]:
    """R_S for every vertex set S of a graph block holding the top, by the sum
    over all T inside S; 0 for the other sets.  The elements inside S that
    cannot leave T = S \\ part are the edges inside the part, whatever S is, so
    their powers of 1+z, from :func:`_inside`'s table, are looked up once."""
    reaching = [0] * len(inside)
    weight = [powers[c] for c in inside]
    for s in range(1, len(inside), 2):
        rest = s ^ 1
        total = part = 0
        while part != rest:  # the subsets of rest in increasing order
            part = (part - rest) & rest
            total += reaching[s ^ part] * weight[part]
        reaching[s] = weight[s] - total
    return reaching


def _set_unions(masks: list[int]) -> list[int]:
    """The union of ``masks[v]`` over the v in S, for every vertex set S, indexed by bitmask."""
    table = [0]
    for mask in masks:
        table += [t | mask for t in table]
    return table


def _peel(pairs: list[list[int]]) -> list[int]:
    """M(X) for every set X of vertices other than the top (even bitmasks;
    odd entries are unused): what is left of X after removing, again and
    again, its vertices with no in-arc from what remains of it."""
    n = len(pairs)
    heads = _set_unions([sum(1 << j for j in range(1, n) if row[j]) for row in pairs])
    peel = [0] * (1 << n)
    for x in range(2, 1 << n, 2):
        kept = x & heads[x]
        peel[x] = x if kept == x else peel[kept]
    return peel


def _in_arc_base(pairs: list[list[int]], powers: list[int]) -> list[int]:
    """R_S for every vertex set S of a digraph block holding the top, by the sum
    over the sourceless U inside M(S \\ top); 0 for the other sets.  See the
    module docstring."""
    n = len(pairs)
    peel = _peel(pairs)
    # Arc j of the block is bit j of an arc set: the arcs out of and into each vertex.
    out_arcs, in_arcs, j = [0] * n, [0] * n, 0
    for u, row in enumerate(pairs):
        for v, count in enumerate(row):
            bits = ((1 << count) - 1) << j
            out_arcs[u] |= bits
            in_arcs[v] |= bits
            j += count
    tails, heads = _set_unions(out_arcs), _set_unions(in_arcs)
    lacking = [p - 1 for p in powers[: j + 1]]  # P_d = (1+z)^d - 1, d up to the block's arcs
    shift = powers[1].bit_length() - 1  # multiplying by P_1 = z, as 1 + z = 1 + 2^shift
    others = [(1 << v, in_arcs[v]) for v in range(1, n)]

    def base(s: int, product: int) -> int:
        """product times P_(in_S(v)) for each vertex v of S but the top: 0 when one has no in-arc from S."""
        arcs, ones = tails[s], 0
        for bit, into in others:
            if s & bit:
                d = (into & arcs).bit_count()
                if d > 1:
                    product *= lacking[d]
                elif d:
                    ones += shift
                else:
                    return 0
        return product << ones

    sourceless = [0] * (1 << n)  # G(U), nonzero for the sourceless U
    for u in range(2, 1 << n, 2):
        if peel[u] == u:
            sourceless[u] = base(u, 1)
    reaching = [0] * (1 << n)
    for s in range(1, 1 << n, 2):
        total = base(s, powers[(in_arcs[0] & tails[s]).bit_count()])  # F(S)
        if total:
            core = peel[s ^ 1]
            part = 0
            while part != core:  # the sourceless U are among the subsets of M(S \ top)
                part = (part - core) & core
                if sourceless[part] and reaching[s ^ part]:
                    t = s ^ part
                    total -= reaching[t] * sourceless[part] * powers[(tails[part] & heads[t]).bit_count()]
            reaching[s] = total
    return reaching
