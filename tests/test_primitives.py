"""Union-find, the tree oracles built on its bitmask pass, root reachability,
the block decomposition, GF(2) elimination, the binomial shift and packed
polynomials, pinned against references written
here from first principles on random small carriers with loops, repeated
elements and parts the root cannot reach, and on random coefficients."""

import itertools
import math
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    GF2,
    BinaryMatrix,
    BivariatePoly,
    RootedDigraph,
    RootedGraph,
    UnrootedGraph,
    arborescence_count,
    count_subtrees_typed,
    matrix_rank,
    spanning_tree_count,
    thicken,
    to_greedoid,
    tutte_eval,
    unrooted_tutte_polynomial,
)
from greedoid_tutte.carriers import (
    branching_feasibility,
    carrier_elements,
    directed_branching_feasibility,
    gf2_row_rank,
    merge_identical_elements,
)
from greedoid_tutte.primitives import (
    binomial_shift,
    block_elements,
    blocks,
    gaussian_binomial,
    pack_fields,
    packed_fields,
    packed_power,
    packed_powers,
    reach,
    unpack_profile,
)
from greedoid_tutte.tutte import _forest_greedoid
from test_identical_classes import PROPERTY, rooted_multigraphs
from test_vertex_profile import block_chains


@PROPERTY
@given(st.one_of(rooted_multigraphs(False), rooted_multigraphs(True)))
def test_matrix_tree_counts_match_bases(carrier):
    count = spanning_tree_count if isinstance(carrier, RootedGraph) else arborescence_count
    assert count(carrier) == tutte_eval(to_greedoid(carrier), 1, 1)


def _classical_rank(vertex_count, edges):
    """Vertices minus components, with components found by relabelling."""
    label = list(range(vertex_count))
    for u, v in edges:
        a, b = label[u], label[v]
        if a != b:
            label = [a if x == b else x for x in label]
    return vertex_count - len(set(label))


@st.composite
def tree_carriers(draw):
    """At most 5 vertices and 8 pairs, with a root: loops, repeated pairs,
    pairs into the root and vertices the root cannot reach are all common."""
    nv = draw(st.integers(1, 5))
    vertex = st.integers(0, nv - 1)
    return nv, tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=8))), draw(vertex)


def _reached(root, pairs, directed):
    """Vertices reached from the root, growing the set until no pair adds one."""
    reached = {root}
    grown = True
    while grown:
        grown = False
        for u, v in pairs:
            for a, b in [(u, v)] if directed else [(u, v), (v, u)]:
                if a in reached and b not in reached:
                    reached.add(b)
                    grown = True
    return reached


def _is_tree_from(root, pairs, directed):
    """The pairs reach out from the root to every tail (every end, undirected)
    and count one less than the vertices reached."""
    reached = _reached(root, pairs, directed)
    ends = {u for u, _ in pairs} if directed else {w for pair in pairs for w in pair}
    return ends <= reached and len(pairs) == len(reached) - 1


@PROPERTY
@given(tree_carriers())
def test_tree_oracles_match_definitions(drawn):
    nv, pairs, root = drawn
    in_tree = branching_feasibility(RootedGraph(nv, pairs, root))
    in_arborescence = directed_branching_feasibility(RootedDigraph(nv, pairs, root))
    in_forest = _forest_greedoid(UnrootedGraph(nv, pairs)).feasible_mask
    for mask in range(1 << len(pairs)):
        chosen = [pair for e, pair in enumerate(pairs) if mask >> e & 1]
        assert in_tree(mask) == _is_tree_from(root, chosen, False)
        assert in_arborescence(mask) == _is_tree_from(root, chosen, True)
        assert in_forest(mask) == (_classical_rank(nv, chosen) == len(chosen))


@PROPERTY
@given(tree_carriers())
def test_typed_subtree_counts_match_brute_force(drawn):
    nv, pairs, _ = drawn
    subtrees = [((), {v}) for v in range(nv)]  # (edge ids, vertices)
    for size in range(1, len(pairs) + 1):
        for used in itertools.combinations(range(len(pairs)), size):
            chosen = [pairs[e] for e in used]
            if _is_tree_from(chosen[0][0], chosen, False):
                subtrees.append((used, {w for pair in chosen for w in pair}))
    expected = Counter()
    for used, vertices in subtrees:
        inside = [(u in vertices) + (v in vertices) for e, (u, v) in enumerate(pairs) if e not in used]
        expected[inside.count(1), inside.count(2)] += 1
    assert count_subtrees_typed(UnrootedGraph(nv, pairs)) == expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rooted_multigraphs(False).filter(lambda g: g.edge_count <= 9))
def test_unrooted_tutte_polynomial_matches_subset_sum(rooted):
    graph = UnrootedGraph(rooted.vertex_count, rooted.edges)
    top = _classical_rank(graph.vertex_count, graph.edges)
    counts = Counter()
    for size in range(graph.edge_count + 1):
        for subset in itertools.combinations(graph.edges, size):
            r = _classical_rank(graph.vertex_count, subset)
            counts[top - r, size - r] += 1
    x, y = BivariatePoly.x(), BivariatePoly.y()
    expected = BivariatePoly.zero()
    for (d, s), c in counts.items():
        expected = expected + c * (x - 1) ** d * (y - 1) ** s
    assert unrooted_tutte_polynomial(graph) == expected


@PROPERTY
@given(
    st.integers(1, 4).flatmap(
        lambda rows: st.lists(st.tuples(*[st.integers(0, 3)] * rows), min_size=1, max_size=10)
    )
)
def test_gf2_ranks_match_span_size(columns):
    span = {0}
    for col in columns:
        vec = sum((v % 2) << r for r, v in enumerate(col))
        span |= {s ^ vec for s in span}
    rank = len(span).bit_length() - 1
    assert matrix_rank(columns, GF2) == rank
    assert gf2_row_rank(BinaryMatrix(tuple(zip(*[[v % 2 for v in col] for col in columns])))) == rank


def test_matrix_without_columns_keeps_its_rows():
    empty = BinaryMatrix(((), (), ()))
    assert empty.row_count == 3 and empty.col_count == 0
    assert thicken(empty, 2).row_count == 3
    core, sizes = merge_identical_elements(empty)
    assert core.row_count == 3 and sizes == ()


@PROPERTY
@given(st.integers(0, 12), st.integers(-4, 4))
def test_binomial_shift_row_is_the_binomial_row(k, a):
    row = binomial_shift({k: 1}, a)
    assert row == [comb(k, i) * a ** (k - i) for i in range(k + 1)]
    assert all(type(c) is int for c in row)


@PROPERTY
@given(
    st.dictionaries(st.integers(0, 7), st.integers(-10**12, 10**12), max_size=5),
    st.integers(-3, 3),
)
def test_binomial_shift_of_ints_stays_in_ints(coeffs, a):
    shifted = binomial_shift(coeffs, a)
    assert all(type(c) is int for c in shifted)
    for t in range(-2, 3):
        direct = sum(c * (t + a) ** e for e, c in coeffs.items())
        assert sum(c * t**i for i, c in enumerate(shifted)) == direct


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(PROPERTY, max_examples=60)
@given(st.dictionaries(st.integers(0, 7), RATIONALS, max_size=5), RATIONALS)
def test_binomial_shift_at_rational_offsets(coeffs, a):
    shifted = binomial_shift(coeffs, a)
    for t in (Fraction(0), Fraction(1, 3), Fraction(-5, 2)):
        direct = sum(c * (t + a) ** e for e, c in coeffs.items())
        assert sum(c * t**i for i, c in enumerate(shifted)) == direct


@pytest.mark.parametrize("m", [0, 1, 2, 7, 13])
def test_packed_powers_hold_the_binomial_rows(m):
    """(1+z)^k packed m + 1 bits per coefficient: the base-2^(m+1) digits of
    each int are the row of (t + 1)^k, and nothing lies above them."""
    powers = packed_powers(m)
    assert len(powers) == m + 1
    for k, packed in enumerate(powers):
        digits = []
        for _ in range(k + 1):
            packed, digit = divmod(packed, 2 ** (m + 1))
            digits.append(digit)
        assert digits == binomial_shift({k: 1}, 1) and packed == 0


@PROPERTY
@given(st.integers(1, 40), st.data())
def test_pack_fields_round_trip(width, data):
    """Fields packed by halves come back in order, beyond the 16 a plain shift
    loop handles and with leading zero fields asked for by count."""
    values = data.draw(st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=70))
    packed = pack_fields(values, width)
    assert packed == sum(v << i * width for i, v in enumerate(values))
    assert packed_fields(packed, width, len(values) + 3) == values + [0, 0, 0]


@pytest.mark.parametrize("k, width", [(0, 1), (1, 2), (5, 6), (40, 41), (40, 60)])
def test_packed_power_is_the_power_of_the_packed_binomial(k, width):
    assert packed_power(k, width) == ((1 << width) + 1) ** k


def test_unpack_profile_reads_full_fields_and_skips_zeros():
    """2^m, the largest count m elements allow, fills its field's top bit and
    comes back whole beside nonzero neighbours; zero counts, and a rank with
    no subsets, give no key."""
    m = 4
    full, width = 2**m, m + 1
    by_rank = [
        1 + (full << width) + (3 << 2 * width),
        0,
        (full << 2 * width) + (7 << 4 * width) + (full << 5 * width),
    ]
    assert unpack_profile(by_rank, width) == {
        (2, 0): 1,
        (2, 1): full,
        (2, 2): 3,
        (0, 0): full,
        (0, 2): 7,
        (0, 3): full,
    }


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3)])
def test_gaussian_binomial_counts_subspaces(q, n):
    """Every subspace of GF(q)^n is the span of at most n vectors; count the
    distinct spans of such vector sets by dimension."""
    vectors = list(itertools.product(range(q), repeat=n))
    spans = set()
    for k in range(n + 1):
        for chosen in itertools.combinations(vectors, k):
            spans.add(
                frozenset(
                    tuple(sum(c * v[i] for c, v in zip(coeffs, chosen)) % q for i in range(n))
                    for coeffs in itertools.product(range(q), repeat=k)
                )
            )
    by_dimension = Counter(round(math.log(len(span), q)) for span in spans)
    expected = [gaussian_binomial(n, d, q) for d in range(n + 2)]  # none of dimension n + 1
    assert [by_dimension[d] for d in range(n + 2)] == expected


def k4_chain(count: int) -> list[tuple[int, int]]:
    """count copies of K4, copy i on vertices 3i .. 3i + 3, so each shares one vertex with the next."""
    return [(3 * i + a, 3 * i + b) for i in range(count) for a in range(4) for b in range(a + 1, 4)]


@pytest.mark.parametrize(
    "root, pairs, sizes",
    [
        (0, [(i, i + 1) for i in range(5)], [2] * 5),  # path: a bridge per edge
        (2, [(i, (i + 1) % 6) for i in range(6)], [6]),  # cycle: one block
        (0, k4_chain(10), [4] * 10),
        (4, k4_chain(10), [4] * 10),  # rooted inside the chain
        (0, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (4, 5), (5, 5)], [2] * 5),  # tree, repeated edge, loop
        (0, [(0, 1), (2, 3)], [2]),  # the part without the root is not searched
        (0, [], []),
    ],
)
def test_block_counts(root, pairs, sizes):
    found, component = blocks(root, pairs)
    assert sorted(1 + len(others) for _, others in found) == sizes
    assert component == reach(root, pairs, False)
    # post-order: every block hanging below a vertex of a block comes before it
    position = {v: i for i, (_, others) in enumerate(found) for v in others}
    assert all(position.get(top, len(found)) > i for i, (top, _) in enumerate(found))
    covered = [v for _, others in found for v in others]
    assert sorted(covered) == sorted(component - {root})  # each vertex but the root once below its top


@PROPERTY
@given(st.one_of(block_chains(), rooted_multigraphs(False), rooted_multigraphs(True)))
def test_block_elements_split_the_reached_elements(carrier):
    """Each element that is no loop and whose first end the root reaches
    lies in exactly one block, which holds both its ends, and no other
    element lies in any block."""
    pairs = carrier_elements(carrier)
    reached = reach(carrier.root, pairs, isinstance(carrier, RootedDigraph))
    split = block_elements(carrier.root, pairs, reached)
    kept = [(u, v) for u, v in pairs if u in reached and u != v]
    assert [(top, others) for top, others, _ in split] == blocks(carrier.root, kept)[0]
    homes, counts = Counter(), Counter()
    for top, others, part in split:
        assert all(u in (top, *others) and v in (top, *others) for u, v in part)
        homes.update(part.keys())
        counts.update(part)
    assert set(homes.values()) <= {1}
    assert counts == Counter(kept)


def test_blocks_of_a_long_path_need_no_recursion():
    found, component = blocks(0, [(i, i + 1) for i in range(4999)])
    assert len(found) == 4999 and len(component) == 5000
    assert found[0] == (4998, [4999])  # the deepest bridge first
