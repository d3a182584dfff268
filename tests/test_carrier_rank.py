"""The polynomial-time rank and the single-query recovery of T(1, 0) agree
with subset enumeration on random small carriers with self-loops, repeated
elements, arcs into the root and parts the root cannot reach."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    BinaryMatrix,
    RootedDigraph,
    RootedGraph,
    brute_force_oracle,
    recover_point_1_0,
    to_greedoid,
    tutte_eval,
)
from greedoid_tutte.carriers import carrier_rank

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def rooted_carriers(draw, directed: bool):
    """At most 6 vertices and 9 edges or arcs, with a random root."""
    nv = draw(st.integers(1, 6))
    vertex = st.integers(0, nv - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=9))
    kind = RootedDigraph if directed else RootedGraph
    return kind(nv, tuple(pairs), draw(vertex))


@st.composite
def matrices(draw):
    """At most 5 rows and 9 columns."""
    rows = draw(st.integers(1, 5))
    column = st.tuples(*[st.integers(0, 1)] * rows)
    columns = draw(st.lists(column, min_size=1, max_size=9))
    return BinaryMatrix(tuple(zip(*columns)))


ROOTED = st.one_of(rooted_carriers(False), rooted_carriers(True))


@PROPERTY
@given(st.one_of(ROOTED, matrices()))
def test_carrier_rank_matches_greedy_rank(carrier):
    assert carrier_rank(carrier) == to_greedoid(carrier).rank


@PROPERTY
@given(ROOTED, st.sampled_from([Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-5, 2)]))
def test_recover_point_1_0_matches_direct(carrier, a):
    family = "digraph" if isinstance(carrier, RootedDigraph) else "graph"
    oracle = brute_force_oracle(family, a, 0)
    assert recover_point_1_0(oracle, carrier) == tutte_eval(carrier, 1, 0)
    assert oracle.calls <= 1


def test_carrier_rank_examples():
    assert carrier_rank(RootedGraph(4, ((0, 1), (2, 3), (1, 1)), 0)) == 1
    assert carrier_rank(RootedDigraph(3, ((1, 0), (0, 1), (2, 1)), 0)) == 1
    # rows one and two are independent, row three is their sum
    assert carrier_rank(BinaryMatrix(((1, 0, 1), (0, 1, 1), (1, 1, 0)))) == 2
    assert carrier_rank(BinaryMatrix(((0, 0), (1, 1)))) == 0
    assert carrier_rank(BinaryMatrix(((), ()))) == 0
