"""Profiles computed over classes of identical elements agree with brute force."""

import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    BinaryMatrix,
    RootedDigraph,
    RootedGraph,
    identity_matrix,
    path_graph,
    predicted_thickening,
    spanning_tree_count,
    thicken,
    to_greedoid,
    tutte_eval,
    tutte_polynomial,
)
from greedoid_tutte import tutte as tutte_module
from greedoid_tutte.carriers import merge_identical_elements
from greedoid_tutte.errors import GroundSetTooLargeError
from greedoid_tutte.greedoid import rank_size_profile

MAX_ELEMENTS = 12
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def rooted_multigraphs(draw, directed: bool, max_size: int = MAX_ELEMENTS):
    """Up to 12 edges or arcs on at most 4 vertices, so loops, repeats and
    opposite orientations of one pair are all common."""
    nv = draw(st.integers(1, 4))
    vertex = st.integers(0, nv - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=max_size))
    kind = RootedDigraph if directed else RootedGraph
    return kind(nv, tuple(pairs), draw(vertex))


@st.composite
def binary_matrices(draw, max_size: int = MAX_ELEMENTS):
    """Up to 12 columns of at most 3 rows, so equal columns are common."""
    rows = draw(st.integers(1, 3))
    column = st.tuples(*[st.integers(0, 1)] * rows)
    columns = draw(st.lists(column, min_size=1, max_size=max_size))
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


@PROPERTY
@given(
    st.one_of(rooted_multigraphs(False, 4), rooted_multigraphs(True, 4), binary_matrices(4)),
    st.integers(2, 4),
)
def test_thickened_profile_matches_brute_force(carrier, k):
    """A carrier without repeated elements thickens to classes of one size,
    whose profile is read off the core's; one with them mostly thickens to
    classes of several sizes, which keep the engines of any carrier."""
    thick = thicken(carrier, k)
    assert tutte_module._profile(thick, 16).counts == rank_size_profile(to_greedoid(thick), 16)


@pytest.fixture
def enumerations(monkeypatch):
    """The core size and class sizes of each enumeration behind a carrier profile, from an empty cache."""
    calls = []
    original = tutte_module.rank_size_profile

    def counted(greedoid, *rest):
        calls.append((greedoid.size, tuple(rest[-1])))
        return original(greedoid, *rest)

    monkeypatch.setattr(tutte_module, "rank_size_profile", counted)
    tutte_module._carrier_profile.cache_clear()
    return calls


def test_one_enumeration_per_core(enumerations):
    for base in (path_graph(3), identity_matrix(3)):  # both of rank 3
        for k in range(1, 8):
            expected = predicted_thickening(tutte_polynomial(base), 3, k)
            assert tutte_polynomial(thicken(base, k), max_elements=21) == expected
    assert enumerations == [(3, (1, 1, 1)), (3, (1, 1, 1))]


def test_mixed_class_sizes_keep_the_class_route(enumerations):
    thick = thicken(RootedGraph(3, ((0, 1), (1, 0), (1, 2)), 0), 2)  # classes of 4 and 2
    assert tutte_polynomial(thick) == tutte_polynomial(to_greedoid(thick))
    assert enumerations == [(2, (4, 2))]


def test_thickened_path_beyond_the_vertex_engine():
    """At 400 elements the vertex-subset engine would take about 2^26 bits;
    the 200-element core's profile fits, and so does its expansion, about
    (200 + 1)(400 + 1)^2 = 2^24.9 bits."""
    thick = thicken(path_graph(200), 2)
    assert tutte_eval(thick, 2, 2, max_elements=400) == 2**400
    assert tutte_eval(thick, 1, 1, max_elements=400) == spanning_tree_count(thick) == 2**200


def test_thickening_refused_by_its_own_figures():
    """The 2-thickened 340-path's expansion would take 341 * 681^2 = 2^27.2
    bits; the 2-thickened K18's fits, but its core takes 3^17 products.  Both
    are refused by the carrier's own figures, not the core's."""
    with pytest.raises(GroundSetTooLargeError) as refused:
        tutte_eval(thicken(path_graph(340), 2), 2, 2, max_elements=680)
    assert str(refused.value) == (
        "these 680 elements take about 2^340 steps by enumeration, and about 2^28 bits"
        " by the vertex-subset engine, past the limit of 2^26"
    )
    complete = RootedGraph(18, tuple((i, j) for i in range(18) for j in range(i + 1, 18)), 0)
    with pytest.raises(GroundSetTooLargeError) as refused:
        tutte_eval(thicken(complete, 2), 2, 2, max_elements=306)
    assert str(refused.value) == (
        "these 306 elements take about 2^153 steps by enumeration, and about 2^26 products"
        " by the vertex-subset engine, past the limit of 2^26"
    )
