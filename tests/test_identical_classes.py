"""Profiles computed over classes of identical elements agree with brute force."""

import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    BinaryMatrix,
    RootedDigraph,
    RootedGraph,
    path_graph,
    thicken,
    to_greedoid,
    tutte_eval,
    tutte_polynomial,
)
from greedoid_tutte.carriers import merge_identical_elements
from greedoid_tutte.errors import GroundSetTooLargeError
from greedoid_tutte.greedoid import rank_size_profile

MAX_ELEMENTS = 12
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def rooted_multigraphs(draw, directed: bool):
    """Up to 12 edges or arcs on at most 4 vertices, so loops, repeats and
    opposite orientations of one pair are all common."""
    nv = draw(st.integers(1, 4))
    vertex = st.integers(0, nv - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=MAX_ELEMENTS))
    kind = RootedDigraph if directed else RootedGraph
    return kind(nv, tuple(pairs), draw(vertex))


@st.composite
def binary_matrices(draw):
    """Up to 12 columns of at most 3 rows, so equal columns are common."""
    rows = draw(st.integers(1, 3))
    column = st.tuples(*[st.integers(0, 1)] * rows)
    columns = draw(st.lists(column, min_size=1, max_size=MAX_ELEMENTS))
    return BinaryMatrix(tuple(zip(*columns)))


@PROPERTY
@given(st.one_of(rooted_multigraphs(False), rooted_multigraphs(True), binary_matrices()))
def test_class_profile_matches_brute_force(carrier):
    assert tutte_polynomial(carrier) == tutte_polynomial(to_greedoid(carrier))


def test_merge_identical_elements():
    graph = RootedGraph(3, ((0, 1), (1, 0), (1, 2), (2, 2), (2, 2), (0, 1)), 0)
    core, sizes = merge_identical_elements(graph)
    assert core == RootedGraph(3, ((0, 1), (1, 2), (2, 2)), 0)
    assert sizes == (3, 1, 2)
    digraph = RootedDigraph(2, ((0, 1), (1, 0), (0, 1)), 0)
    core, sizes = merge_identical_elements(digraph)
    assert core == RootedDigraph(2, ((0, 1), (1, 0)), 0)
    assert sizes == (2, 1)
    matrix = BinaryMatrix(((1, 0, 1), (0, 1, 0)))
    core, sizes = merge_identical_elements(matrix)
    assert core == BinaryMatrix(((1, 0), (0, 1)))
    assert sizes == (2, 1)
    simple = path_graph(3)
    assert merge_identical_elements(simple) == (simple, (1, 1, 1))


def test_thickening_bound_counts_every_element():
    thick = thicken(path_graph(3), 7)
    assert merge_identical_elements(thick)[1] == (7, 7, 7)
    with pytest.raises(GroundSetTooLargeError):
        tutte_polynomial(thick)
    assert tutte_eval(thick, 2, 2, max_elements=21) == 2**21


def test_one_large_class_profile():
    """1000 parallel edges at the root: the empty set has rank 0 and every
    other subset rank 1, so C(1000, k) subsets of k > 0 edges have surplus k - 1."""
    profile = rank_size_profile(to_greedoid(path_graph(1)), 1000, (1000,))
    assert profile == {(1, 0): 1, **{(0, k - 1): comb(1000, k) for k in range(1, 1001)}}


def test_all_repeated_core_counts_in_small_tables():
    """A star of 16 edges at the root, each a class of 2: the counts of core
    subsets by (deficit, singletons met, larger classes met) take 17 * 2^16
    entries, about 9 MiB, and no table grows with the product of rank and
    class count."""
    core = 16
    star = RootedGraph(core + 1, tuple((0, v) for v in range(1, core + 1)), 0)
    tracemalloc.start()
    try:
        profile = rank_size_profile(to_greedoid(star), 2 * core, (2,) * core)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # j classes met, each by (1+z)^2 - 1 = 2z + z^2: rank j and surplus s
    assert profile == {
        (core - j, s): comb(core, j) * comb(j, s) * 2 ** (j - s) for j in range(core + 1) for s in range(j + 1)
    }
    assert peak < 32 * 2**20
