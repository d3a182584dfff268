"""The vertex-subset profile engine agrees with subset enumeration, and a
carrier's profile comes from whichever engine has less work."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    RootedDigraph,
    RootedGraph,
    attach_graphs,
    path_graph,
    star_graph,
    thicken,
    to_greedoid,
    tutte_eval,
    tutte_polynomial,
)
from greedoid_tutte import tutte as tutte_module
from greedoid_tutte.carriers import carrier_elements, format_carrier, root_reach
from greedoid_tutte.cli import main
from greedoid_tutte.greedoid import rank_size_profile
from greedoid_tutte.tutte import arborescence_count, spanning_tree_count
from greedoid_tutte.vertex_profile import vertex_subset_profile

from test_identical_classes import rooted_multigraphs

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def glued_carriers(draw):
    """Rooted graphs and digraphs of at most 6 vertices and 10 elements.

    A dense part of at most 4 vertices, rich in loops, repeated elements and
    arcs into the root, gets a sparser part on the vertices above it.  That
    part shares one vertex with the dense one, which makes a cut vertex, or
    none, which leaves it unreachable.
    """
    directed = draw(st.booleans())
    dense = draw(rooted_multigraphs(directed))
    nv = draw(st.integers(dense.vertex_count, 6))
    shared = draw(st.sampled_from([None, *range(dense.vertex_count)]))
    vertex = st.sampled_from([*range(dense.vertex_count, nv)] + ([] if shared is None else [shared]))
    sparse = draw(st.lists(st.tuples(vertex, vertex), max_size=4)) if nv > dense.vertex_count else []
    pairs = draw(st.permutations(list(carrier_elements(dense))[: 10 - len(sparse)] + sparse))
    return type(dense)(nv, tuple(pairs), dense.root)


@PROPERTY
@given(glued_carriers())
def test_engine_matches_enumeration(carrier):
    expected = rank_size_profile(to_greedoid(carrier))
    assert vertex_subset_profile(carrier, root_reach(carrier)) == expected


@pytest.fixture
def engines(monkeypatch):
    """Name the engine behind each carrier profile, starting from an empty cache."""
    calls = []

    def counted(name):
        original = getattr(tutte_module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(tutte_module, name, wrapper)

    counted("rank_size_profile")
    counted("vertex_subset_profile")
    tutte_module._carrier_profile.cache_clear()
    return calls


WHEEL = RootedGraph(7, tuple((0, i) for i in range(1, 7)) + tuple((i, i % 6 + 1) for i in range(1, 7)), 3)


@pytest.mark.parametrize(
    "carrier, engine",
    [
        (WHEEL, "vertex_subset_profile"),  # 3^6 products against 2^12 subsets
        (attach_graphs(path_graph(3), star_graph(3)), "rank_size_profile"),  # 3^12 against 2^12
        (thicken(path_graph(3), 3), "rank_size_profile"),  # 3^3 against 2^3 classes
    ],
)
def test_engine_choice(engines, carrier, engine):
    assert tutte_polynomial(carrier) == tutte_polynomial(to_greedoid(carrier))
    assert engines == [engine]


def circulant(directed: bool):
    """10 vertices joined from each i to i+1, ..., i+4 mod 10: 40 edges or arcs."""
    pairs = tuple((i, (i + d) % 10) for i in range(10) for d in range(1, 5))
    return (RootedDigraph if directed else RootedGraph)(10, pairs, 0)


@pytest.mark.parametrize("directed", [False, True])
def test_beyond_enumeration(directed):
    carrier = circulant(directed)
    assert tutte_eval(carrier, 2, 2, max_elements=40) == 2**40
    trees = arborescence_count(carrier) if directed else spanning_tree_count(carrier)
    assert tutte_eval(carrier, 1, 1, max_elements=40) == trees


def test_cli_beyond_enumeration(tmp_path, capsys):
    path = tmp_path / "circulant.graph"
    path.write_text(format_carrier(circulant(False)))
    assert main(["tutte", str(path), "--max-elements", "40"]) == 0
    terms = json.loads(capsys.readouterr().out)
    assert sum(int(t["num"]) for t in terms) == spanning_tree_count(circulant(False))
    assert main(["tutte", str(path)]) == 4  # the bound still counts the 40 elements
