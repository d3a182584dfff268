"""The vertex-subset profile engine agrees with subset enumeration, block by
block, and a carrier's profile comes from whichever engine has less work."""

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    RootedDigraph,
    RootedGraph,
    attach_digraphs,
    attach_graphs,
    directed_path,
    directed_star,
    path_graph,
    star_graph,
    thicken,
    to_greedoid,
    tutte_eval,
    tutte_polynomial,
)
from greedoid_tutte import tutte as tutte_module
from greedoid_tutte import vertex_profile
from greedoid_tutte.carriers import carrier_elements, format_carrier, root_reach
from greedoid_tutte.carriers import merge_identical_elements
from greedoid_tutte.cli import main
from greedoid_tutte.errors import GroundSetTooLargeError
from greedoid_tutte.greedoid import rank_size_profile
from greedoid_tutte.primitives import packed_powers
from greedoid_tutte.tutte import arborescence_count, spanning_tree_count
from greedoid_tutte.vertex_profile import vertex_subset_profile, vertex_subset_cost

from catalogues import seeded_rooted_digraph
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


@st.composite
def block_chains(draw):
    """Rooted graphs and digraphs of at most 7 vertices and 11 elements, rich in blocks.

    Blocks of 2 to 4 vertices are glued one at a time at a vertex already
    drawn: bridges, some repeated, cycles and complete graphs.  That gives
    trees, cacti, chains of blocks and pendant stars.  A graph's block may
    be glued to nothing, so the root does not reach it; a digraph's elements
    point either way, so an arc may run from a child block into its cut
    vertex, or leave the part below a cut vertex unreachable.  A few loops
    go on glue vertices, and the root is any vertex.
    """
    directed = draw(st.booleans())
    nv, pairs, glued = 1, [], []
    for _ in range(draw(st.integers(1, 6))):
        if nv == 7:
            break
        glue = draw(st.sampled_from([*range(nv)] + ([] if directed or nv > 5 else [None])))
        new = draw(st.integers(1 + (glue is None), min(3, 7 - nv)))
        vertices = ([] if glue is None else [glue]) + list(range(nv, nv + new))
        nv += new
        size = len(vertices)
        if size == 2:
            block = [tuple(vertices)] * draw(st.integers(1, 3))
        elif draw(st.booleans()):
            block = [(vertices[i], vertices[(i + 1) % size]) for i in range(size)]
        else:
            block = [(vertices[i], vertices[j]) for i in range(size) for j in range(i + 1, size)]
        if len(pairs) + len(block) > 11:
            break  # its new vertices stay isolated
        pairs += block
        glued.append(vertices[0])
    pairs += [(v, v) for v in draw(st.lists(st.sampled_from(glued or [0]), max_size=2))]
    if directed:  # most arcs point away from the glue vertex
        pairs = [(v, u) if draw(st.integers(0, 3)) == 0 else (u, v) for u, v in pairs]
    pairs = draw(st.permutations(pairs))[:11]
    root = 0 if draw(st.booleans()) else draw(st.integers(0, nv - 1))  # 0 is the first glue vertex
    return (RootedDigraph if directed else RootedGraph)(nv, tuple(pairs), root)


@PROPERTY
@given(block_chains())
def test_block_engine_matches_enumeration(carrier):
    expected = rank_size_profile(to_greedoid(carrier))
    assert vertex_subset_profile(carrier, root_reach(carrier)) == expected


@st.composite
def digraph_blocks(draw):
    """Rooted digraphs of at most 7 vertices and 12 arcs, most with one block of 3 to 7 vertices.

    A third of the blocks are near-complete: every arc among 3 or 4
    vertices, up to 3 left out.  The others are acyclic with a few back arcs
    and digons: a path through their 5 to 7 vertices, closed into one block
    by the arc from its first vertex to its last, forward chords, and some
    arcs turned back or doubled back.  Then come repeated arcs, loops, arcs
    into the root, and hanging parts: a vertex outside the block with an arc
    from or into one of its vertices.  The vertices are relabelled, so the
    root is any label.
    """
    if draw(st.integers(0, 2)) == 0:
        size = draw(st.integers(3, 4))
        arcs = [(u, v) for u in range(size) for v in range(size) if u != v]
        dropped = draw(st.sets(st.sampled_from(arcs), max_size=3))
        arcs = [arc for arc in arcs if arc not in dropped]
    else:
        size = draw(st.integers(5, 7))
        pair = st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True).map(sorted).map(tuple)
        arcs = [(v - 1, v) for v in range(1, size)] + [(0, size - 1)] + draw(st.lists(pair, max_size=3))
        for i in draw(st.sets(st.integers(0, len(arcs) - 1), max_size=2)):
            u, v = arcs[i]
            if draw(st.booleans()):
                arcs.append((v, u))  # a digon
            else:
                arcs[i] = (v, u)  # the arc turned back
    block = st.integers(0, size - 1)
    arcs += draw(st.lists(st.sampled_from(arcs), max_size=2))  # repeated arcs
    arcs += [(v, v) for v in draw(st.lists(block, max_size=1))]
    arcs += [(v, 0) for v in draw(st.lists(block, max_size=2))]  # into the root
    nv = size + draw(st.integers(0, 7 - size))
    for v in range(size, nv):
        u = draw(block)
        arcs.append((u, v) if draw(st.integers(0, 3)) else (v, u))
    labels = draw(st.permutations(range(nv)))
    arcs = [(labels[u], labels[v]) for u, v in arcs[:12]]
    return RootedDigraph(nv, tuple(arcs), labels[0])


@PROPERTY
@given(digraph_blocks())
def test_digraph_blocks_match_enumeration(carrier):
    """Every block of 3 or more vertices, dense or nearly acyclic, sums over the in-arc base."""
    expected = rank_size_profile(to_greedoid(carrier))
    assert vertex_subset_profile(carrier, root_reach(carrier)) == expected


@st.composite
def arc_tables(draw):
    """Arc counts by (tail, head) on 3 to 7 vertices, vertex 0 the top: up to
    9 arcs between distinct vertices, the arcs into the top among them, with
    or without cycles, repeated or not."""
    n = draw(st.integers(3, 7))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda arc: arc[0] != arc[1]), max_size=9))
    if draw(st.booleans()):  # most arcs forward, so few cycles
        arcs = [(min(arc), max(arc)) if draw(st.integers(0, 4)) else arc for arc in arcs]
    pairs = [[0] * n for _ in range(n)]
    for u, v in arcs:
        pairs[u][v] += 1
    return pairs


def reaching_by_arc_sets(pairs: list[list[int]], width: int) -> list[int]:
    """R_S packed with ``width`` bits a coefficient, for every vertex set S, by
    every arc set A: A is counted in R_T for the T the top reaches along A
    when all of A lies inside T."""
    n = len(pairs)
    arcs = [(u, v) for u in range(n) for v in range(n) for _ in range(pairs[u][v])]
    reaching = [0] * (1 << n)
    for chosen in range(1 << len(arcs)):
        subset = [arc for i, arc in enumerate(arcs) if chosen >> i & 1]
        reached, grown = 1, True
        while grown:
            grown = False
            for u, v in subset:
                if reached >> u & 1 and not reached >> v & 1:
                    reached, grown = reached | 1 << v, True
        if all(reached >> u & 1 and reached >> v & 1 for u, v in subset):
            reaching[reached] += 1 << len(subset) * width
    return reaching


@PROPERTY
@given(arc_tables())
def test_in_arc_base_counts_the_reaching_arc_sets(pairs):
    """R_S for every S, by the sum over the sourceless parts and by every arc set."""
    m = sum(map(sum, pairs)) + 1
    width = m + 1
    assert vertex_profile._in_arc_base(pairs, packed_powers(m)) == reaching_by_arc_sets(pairs, width)


def test_sparse_digraph_at_scale():
    """17 vertices and 40 arcs in one block of 16 or 17 vertices, where the sum
    over all subsets takes about 3^16 products: few parts are sourceless."""
    carrier = seeded_rooted_digraph(17, 40, 3)
    start = time.perf_counter()
    assert tutte_eval(carrier, 2, 2, max_elements=40) == 2**40
    assert tutte_eval(carrier, 1, 1, max_elements=40) == arborescence_count(carrier)
    assert time.perf_counter() - start < 5


DIGON_PATH = RootedDigraph(3, ((0, 1), (1, 0), (1, 2), (2, 1)), 0)


@pytest.mark.parametrize(
    "carrier",
    [
        # arcs both ways in every block, stars of k arcs hanging below each cut vertex
        *(attach_digraphs(DIGON_PATH, directed_star(k)) for k in range(4)),
        # 3 parallel edges, one written from the far end, with a subtree and a loop below
        RootedGraph(6, ((0, 1), (1, 0), (0, 1), (1, 2), (2, 3), (2, 3), (2, 4), (4, 4), (1, 5)), 0),
    ],
)
def test_two_vertex_blocks_match_enumeration(carrier):
    """Every block here has 2 vertices, so the engine takes only its closed form."""
    expected = rank_size_profile(to_greedoid(carrier))
    assert vertex_subset_profile(carrier, root_reach(carrier)) == expected


K4 = RootedGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)), 0)
C3, C4 = (RootedGraph(n, tuple((i, (i + 1) % n) for i in range(n)), 0) for n in (3, 4))
# a directed 3-cycle with an arc back along each of its arcs but the one into the root
DIRECTED_CYCLE = RootedDigraph(3, ((0, 1), (1, 2), (2, 0)), 0)
CYCLE_WITH_BACK_ARCS = RootedDigraph(3, (*DIRECTED_CYCLE.arcs, (1, 0), (2, 1)), 0)


@pytest.mark.parametrize(
    "carrier",
    [
        # a 4-vertex block whose 3 other vertices each have a 2-edge star below
        attach_graphs(K4, star_graph(2)),
        # a 4-cycle with a 2-edge path hanging from each of its 3 cut vertices
        attach_graphs(C4, path_graph(2)),
        # two levels: a triangle below each cut vertex of a triangle, a pendant edge below each of its own
        attach_graphs(C3, attach_graphs(C3, star_graph(1))),
        # arcs both ways in a 3-vertex block, 2-arc stars below its cut vertices
        attach_digraphs(CYCLE_WITH_BACK_ARCS, directed_star(2)),
        # stars pointing into each cut vertex, so nothing below it is reached
        attach_digraphs(CYCLE_WITH_BACK_ARCS, RootedDigraph(3, ((1, 0), (2, 0)), 0)),
        # two levels of digraph blocks: directed triangles with an arc below each cut vertex
        attach_digraphs(CYCLE_WITH_BACK_ARCS, attach_digraphs(DIRECTED_CYCLE, directed_star(1))),
    ],
)
def test_blocks_with_several_hanging_parts_match_enumeration(carrier):
    """Each block of 3 or more vertices folds in what hangs below its cut vertices one at a time."""
    expected = rank_size_profile(to_greedoid(carrier))
    assert vertex_subset_profile(carrier, root_reach(carrier)) == expected


@pytest.mark.parametrize(
    "carrier",
    [
        # a 4-vertex block with the edge 1-2 three times, written both ways, and 2-3 twice
        RootedGraph(4, ((0, 1), (1, 2), (2, 1), (1, 2), (2, 3), (3, 2), (3, 0), (0, 2)), 0),
        # a 5-vertex block with the edge 3-4 three times the same way, and a triangle through the root
        RootedGraph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (3, 4), (3, 4), (4, 1), (1, 3)), 0),
        # a 4-vertex digraph block with the arc 1 -> 2 three times, antiparallel arcs 2 <-> 3 and 3 <-> 1
        RootedDigraph(4, ((0, 1), (1, 2), (1, 2), (1, 2), (2, 3), (3, 2), (3, 1), (1, 3), (3, 0), (2, 0)), 0),
        # a triangle with a doubled edge; below its cut vertex 2 a 4-vertex block with the edge 3-4
        # three times, and below that block's vertex 4 an edge to 6
        RootedGraph(7, ((0, 1), (1, 2), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (3, 4), (4, 5), (5, 2), (3, 5), (4, 6)), 0),
        # the digraph version: the arc 2 -> 3 three times and antiparallel arcs 3 <-> 4 below the cut
        # vertex 2, and antiparallel arcs 5 <-> 6 below that block's vertex 5
        RootedDigraph(7, ((0, 1), (1, 2), (2, 0), (2, 3), (2, 3), (2, 3), (3, 4), (4, 3), (4, 5), (5, 2), (3, 5), (5, 6), (6, 5)), 0),
    ],
)
def test_repeated_elements_in_blocks_match_enumeration(carrier):
    """A block's tables count every element by its end pair with its multiplicity."""
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
        (attach_graphs(path_graph(3), star_graph(3)), "vertex_subset_profile"),  # 12 blocks of 2 vertices: 36 against 2^12
        (thicken(path_graph(3), 3), "vertex_subset_profile"),  # 3 blocks of 2 vertices: 3 products against 2^3 classes
    ],
)
def test_engine_choice(engines, carrier, engine):
    assert tutte_polynomial(carrier) == tutte_polynomial(to_greedoid(carrier))
    assert engines == [engine]


@pytest.mark.parametrize(
    "carrier, engine",
    [
        (attach_digraphs(directed_path(3), directed_star(3)), "vertex_subset_profile"),  # 36 against 2^12
        (thicken(path_graph(3), 3), "vertex_subset_profile"),  # 3 blocks of 2 vertices: 3 against 2^3 classes
    ],
)
def test_block_engine_choice(engines, carrier, engine):
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


def k4_chain(directed: bool):
    """Ten copies of K4, copy i on vertices 3i .. 3i + 3, rooted at 0: 31
    vertices and 60 edges, or both arcs of each edge."""
    edges = [(3 * i + a, 3 * i + b) for i in range(10) for a in range(4) for b in range(a + 1, 4)]
    if directed:
        return RootedDigraph(31, tuple(arc for u, v in edges for arc in ((u, v), (v, u))), 0)
    return RootedGraph(31, tuple(edges), 0)


@pytest.mark.parametrize("directed", [False, True])
def test_block_chain_beyond_enumeration(directed):
    """3^3 products per block, where one block of 31 vertices would take 3^30."""
    carrier = k4_chain(directed)
    m = carrier.edge_count
    assert tutte_eval(carrier, 2, 2, max_elements=m) == 2**m
    trees = arborescence_count(carrier) if directed else spanning_tree_count(carrier)
    assert trees == 16**10
    assert tutte_eval(carrier, 1, 1, max_elements=m) == trees


def test_long_directed_path_refused_without_recursion():
    """3,000 vertices: the block search keeps its own stack, and the profile,
    past every engine's limit, is refused before it is begun."""
    with pytest.raises(GroundSetTooLargeError):
        tutte_eval(directed_path(2999), 2, 2, max_elements=2999)


def test_long_path_refusal_names_both_figures():
    """A 341-vertex path takes only 3 * 340 products, but its packed
    polynomials would take about 2^26 bits, so the engine is passed over and
    enumeration's 2^340 subsets are refused; the message names both."""
    with pytest.raises(GroundSetTooLargeError) as refused:
        tutte_eval(path_graph(340), 2, 2, max_elements=340)
    assert "2^340 steps by enumeration" in str(refused.value)
    assert "2^26 bits by the vertex-subset engine" in str(refused.value)


def test_refusal_names_every_figure_past_the_limit():
    """31 vertices and 100 edges in one block: 2^100 subsets by enumeration
    and 3^30 products by the vertex-subset engine are both past the limit,
    and the message names both; the engine's packed polynomials, about 2^20
    bits, are within it and go unnamed."""
    edges = tuple((i, (i + d) % 31) for d in (1, 2, 3, 4) for i in range(31))[:100]
    with pytest.raises(GroundSetTooLargeError) as refused:
        tutte_eval(RootedGraph(31, edges, 0), 2, 2, max_elements=100)
    message = str(refused.value)
    assert "2^100 steps by enumeration" in message
    assert "2^47 products by the vertex-subset engine" in message
    assert "bits" not in message


def test_cost_counts_a_two_vertex_block_as_one_product():
    """thicken(path_graph(3), 3): 3 blocks of 2 vertices, each the one product
    of its closed form; 9 elements, rank 3."""
    core, sizes = merge_identical_elements(thicken(path_graph(3), 3))
    (products, _), (bits, _) = vertex_subset_cost(core, root_reach(core), sum(sizes))
    assert products == 3
    assert bits == (9 + 3 + 2) * 10**2
