"""Union-find, root reachability, GF(2) elimination and the binomial shift,
pinned against references written here from first principles on random small
carriers with loops, repeated elements and parts the root cannot reach, and
on random coefficients."""

import itertools
from collections import Counter
from fractions import Fraction
from math import comb

from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    GF2,
    BinaryMatrix,
    BivariatePoly,
    RootedGraph,
    UnrootedGraph,
    arborescence_count,
    matrix_rank,
    spanning_tree_count,
    thicken,
    to_greedoid,
    tutte_eval,
    unrooted_tutte_polynomial,
)
from greedoid_tutte.carriers import gf2_row_rank, merge_identical_elements
from greedoid_tutte.primitives import binomial_shift
from test_identical_classes import PROPERTY, rooted_multigraphs


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
