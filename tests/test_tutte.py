import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    BivariatePoly,
    H0X,
    H0Y,
    HAlpha,
    LineY,
    RootedDigraph,
    RootedGraph,
    UnrootedGraph,
    arborescence_count,
    characteristic_polynomial,
    digraph_sinks_fastpath,
    directed_path,
    directed_star,
    enumerate_bases,
    enumerate_feasible_sets,
    h1_closed_form,
    hyperbola_restriction,
    line_y_restriction,
    path_graph,
    spanning_tree_count,
    star_graph,
    to_greedoid,
    tutte_eval,
    tutte_polynomial,
    tutte_restrict,
    unrooted_tutte_polynomial,
    unrooted_tutte_x1,
)
from greedoid_tutte.errors import GroundSetTooLargeError, NotOnCurveError, NotRootConnectedError
from greedoid_tutte.exact import ExactMatrix, det_exact, det_integer
from greedoid_tutte.greedoid import subset_ranks
from greedoid_tutte.primitives import reach

from catalogues import (
    DIRECTED_TRIANGLE,
    TAILED_DIGON,
    TRIANGLE,
    TRIANGLE_UNROOTED,
    TWO_PARALLEL,
    greedoid_instances,
    rooted_trees_up_to,
    tree_form_to_digraph,
)


def expected_path_polynomial(k: int) -> BivariatePoly:
    x, y = BivariatePoly.x(), BivariatePoly.y()
    total = BivariatePoly.constant(1)
    for i in range(1, k + 1):
        total = total + (x - 1) ** i * y ** (i - 1)
    return total


def test_path_and_star_closed_forms():
    for k in range(7):
        assert tutte_polynomial(to_greedoid(path_graph(k))) == expected_path_polynomial(k)
        assert tutte_polynomial(to_greedoid(star_graph(k))) == BivariatePoly.x() ** k
        assert tutte_polynomial(to_greedoid(directed_path(k))) == expected_path_polynomial(k)
        assert tutte_polynomial(to_greedoid(directed_star(k))) == BivariatePoly.x() ** k


def test_single_loop_polynomial():
    loop = RootedGraph(1, ((0, 0),), 0)
    assert tutte_polynomial(to_greedoid(loop)) == BivariatePoly.y()


def test_counting_evaluations_all_instances():
    for name, g in greedoid_instances():
        feasible = enumerate_feasible_sets(g)
        bases = enumerate_bases(g)
        assert tutte_eval(g, 1, 1) == len(bases), name
        assert tutte_eval(g, 2, 1) == len(feasible), name
        assert tutte_eval(g, 2, 2) == 1 << g.size, name
        ranks = subset_ranks(g)
        full = int(ranks[-1])
        spanning = sum(1 for m in range(1 << g.size) if ranks[m] == full)
        assert tutte_eval(g, 1, 2) == spanning, name


def test_restrict_examples():
    assert tutte_restrict(to_greedoid(path_graph(1)), HAlpha(2)).terms == {0: 1, -1: 2}
    assert tutte_restrict(to_greedoid(star_graph(2)), H0Y()).terms == {2: 1}
    # T(P_2; 1, y) = 1: only the full edge set has full rank.
    assert tutte_restrict(to_greedoid(path_graph(2)), H0X()).terms == {0: 1}


def test_restrict_matches_polynomial_substitution():
    for name, g in greedoid_instances():
        if g.size > 8:
            continue
        poly = tutte_polynomial(g)
        for alpha in (Fraction(2), Fraction(-1), Fraction(1, 3)):
            assert tutte_restrict(g, HAlpha(alpha)) == hyperbola_restriction(poly, alpha), name
        for c in (Fraction(-1), Fraction(0), Fraction(2)):
            assert tutte_restrict(g, LineY(c)) == line_y_restriction(poly, c), name
        assert tutte_restrict(g, H0X()) == Laurent_from_y(poly)
        assert tutte_restrict(g, H0Y()) == Laurent_from_x(poly)


def Laurent_from_y(poly):
    from greedoid_tutte import LaurentPoly

    restricted = poly.at_x(1)
    return LaurentPoly({ye: c for (_, ye), c in restricted.terms.items()})


def Laurent_from_x(poly):
    from greedoid_tutte import LaurentPoly

    restricted = poly.at_y(1)
    return LaurentPoly({xe: c for (xe, _), c in restricted.terms.items()})


def test_restrict_halpha_evaluates_to_tutte_eval():
    for name, g in greedoid_instances():
        if g.size > 8:
            continue
        for b in (Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2)):
            z = b - 1
            for alpha in (Fraction(1), Fraction(-2), Fraction(3, 2)):
                restricted = tutte_restrict(g, HAlpha(alpha))
                assert restricted.evaluate(z) == tutte_eval(g, 1 + alpha / z, b), name


def test_h1_closed_form_examples():
    assert h1_closed_form(4, 3, 2, 2) == 16
    assert h1_closed_form(3, 3, 0, 0) == 0
    assert h1_closed_form(0, 0, 2, 2) == 1
    with pytest.raises(NotOnCurveError):
        h1_closed_form(2, 1, 2, 3)


def test_h1_closed_form_matches_brute_force():
    points = [
        (Fraction(2), Fraction(2)),
        (Fraction(0), Fraction(0)),
        (Fraction(3), Fraction(3, 2)),
        (Fraction(-1), Fraction(1, 2)),
        (Fraction(1, 3), Fraction(-1, 2)),
    ]
    for name, g in greedoid_instances():
        for a, b in points:
            assert h1_closed_form(g.size, g.rank, a, b) == tutte_eval(g, a, b), name


def test_characteristic_polynomial():
    edgeless = RootedGraph(1, (), 0)
    assert characteristic_polynomial(to_greedoid(edgeless)).terms == {0: 1}
    dpath = directed_path(2)
    assert characteristic_polynomial(to_greedoid(dpath)).terms == {0: 1, 1: -1}
    for graph in (TRIANGLE, path_graph(2), TWO_PARALLEL):
        poly = characteristic_polynomial(to_greedoid(graph))
        assert poly.evaluate(1) == 0  # any edge forces a zero at 1


def test_spanning_tree_count_examples():
    assert spanning_tree_count(TRIANGLE) == 3
    assert spanning_tree_count(path_graph(4)) == 1
    assert spanning_tree_count(TWO_PARALLEL) == 2


def test_spanning_tree_count_matches_tutte_everywhere():
    graphs = [
        TRIANGLE,
        TWO_PARALLEL,
        path_graph(3),
        star_graph(4),
        RootedGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)), 1),
        RootedGraph(4, ((0, 1), (2, 3)), 0),  # non-root component
        RootedGraph(2, ((0, 1), (1, 1)), 0),  # loop
    ]
    for graph in graphs:
        assert spanning_tree_count(graph) == tutte_eval(to_greedoid(graph), 1, 1)


def dense_tree_count(root: int, pairs, directed: bool) -> int:
    """The matrix-tree count by one determinant: the Laplacian of the root's
    whole component (in-degree Laplacian when ``directed``), without the
    root's row and column."""
    component = sorted(reach(root, pairs, directed))
    index = {v: i for i, v in enumerate(component)}
    lap = [[0] * len(component) for _ in component]
    for u, v in pairs:
        if u in index and v in index and u != v:
            lap[index[v]][index[v]] += 1
            lap[index[u]][index[v]] -= 1
            if not directed:
                lap[index[u]][index[u]] += 1
                lap[index[v]][index[u]] -= 1
    skip = index[root]
    return det_integer([[x for j, x in enumerate(row) if j != skip] for i, row in enumerate(lap) if i != skip])


@st.composite
def sparse_carriers(draw):
    """A graph or digraph of up to 9 vertices: a tree out of the root on
    some of them, then up to 8 more elements, so cut vertices, loops,
    repeated elements, arcs into the root and parts the root does not reach
    are all common.  The vertices are relabelled, so the root is any label."""
    nv = draw(st.integers(1, 9))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, draw(st.integers(1, nv)))]
    vertex = st.integers(0, nv - 1)
    labels = draw(st.permutations(range(nv)))
    pairs = [(labels[u], labels[v]) for u, v in tree + draw(st.lists(st.tuples(vertex, vertex), max_size=8))]
    kind = draw(st.sampled_from((RootedGraph, RootedDigraph)))
    return kind(nv, tuple(draw(st.permutations(pairs))), labels[0])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(sparse_carriers())
def test_tree_counts_by_block_match_the_dense_determinant(carrier):
    if isinstance(carrier, RootedGraph):
        assert spanning_tree_count(carrier) == dense_tree_count(carrier.root, carrier.edges, False)
    else:
        assert arborescence_count(carrier) == dense_tree_count(carrier.root, carrier.arcs, True)


def test_tree_counts_on_long_paths_and_chains():
    """One block per edge of a 600-edge path, and one per triangle of a chain
    of 200 triangles, each sharing a vertex with the next: 3^200 trees."""
    start = time.perf_counter()
    assert spanning_tree_count(path_graph(600)) == 1
    assert arborescence_count(directed_path(600)) == 1
    chain = RootedGraph(401, tuple(p for i in range(0, 400, 2) for p in ((i, i + 1), (i + 1, i + 2), (i, i + 2))), 0)
    assert spanning_tree_count(chain) == 3**200
    assert time.perf_counter() - start < 1


def test_arborescence_count_examples():
    bi_triangle = RootedDigraph(3, ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)), 0)
    assert arborescence_count(bi_triangle) == 3
    assert arborescence_count(directed_path(2)) == 1
    assert arborescence_count(TAILED_DIGON) == 1


def test_arborescence_count_matches_tutte_everywhere():
    digraphs = [
        TAILED_DIGON,
        DIRECTED_TRIANGLE,
        directed_star(3),
        RootedDigraph(3, ((0, 1), (0, 1), (1, 2)), 0),
        RootedDigraph(3, ((0, 1), (2, 1)), 0),
        RootedDigraph(2, ((0, 1), (1, 1)), 0),
    ]
    for digraph in digraphs:
        assert arborescence_count(digraph) == tutte_eval(to_greedoid(digraph), 1, 1)


def test_sinks_fastpath_examples():
    assert digraph_sinks_fastpath(directed_path(2), 5) == 5
    assert digraph_sinks_fastpath(directed_star(3), 2) == 8
    assert digraph_sinks_fastpath(TAILED_DIGON, 7) == 0  # contains a digon
    with pytest.raises(NotRootConnectedError):
        digraph_sinks_fastpath(RootedDigraph(2, (), 0), 2)


def test_sinks_fastpath_long_path():
    assert digraph_sinks_fastpath(directed_path(3000), 2) == 2


def test_sinks_fastpath_matches_brute_force():
    digraphs = [
        directed_path(1),
        directed_path(3),
        directed_star(3),
        RootedDigraph(4, ((0, 1), (1, 2), (0, 3)), 0),
        RootedDigraph(4, ((0, 1), (0, 2), (1, 3), (2, 3)), 0),
        TAILED_DIGON,
        DIRECTED_TRIANGLE,
        RootedDigraph(1, ((0, 0),), 0),
    ]
    values = (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(5))
    for digraph in digraphs:
        for a in values:
            assert digraph_sinks_fastpath(digraph, a) == tutte_eval(to_greedoid(digraph), a, 0)


def test_unrooted_comparison_evaluator():
    assert unrooted_tutte_x1(TRIANGLE_UNROOTED).terms == {0: 2, 1: 1}  # y + 2
    assert unrooted_tutte_x1(UnrootedGraph(3, ((0, 1), (1, 2)))).terms == {0: 1}
    assert unrooted_tutte_x1(UnrootedGraph(1, ((0, 0),))).terms == {1: 1}
    assert unrooted_tutte_polynomial(TRIANGLE_UNROOTED) == BivariatePoly(
        {(2, 0): 1, (1, 0): 1, (0, 1): 1}
    )


def test_rooted_agrees_with_unrooted_on_x_equals_1():
    graphs = [
        TRIANGLE,
        TWO_PARALLEL,
        path_graph(3),
        star_graph(3),
        RootedGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)), 2),
        RootedGraph(3, ((0, 1), (0, 2), (1, 2), (1, 1)), 1),
    ]
    for graph in graphs:
        unrooted = UnrootedGraph(graph.vertex_count, graph.edges)
        assert tutte_restrict(to_greedoid(graph), H0X()) == unrooted_tutte_x1(unrooted)


def test_rooted_trees_distinguished_by_tutte():
    forms = rooted_trees_up_to(5)
    polys = {}
    for form in forms:
        digraph = tree_form_to_digraph(form)
        poly = tutte_polynomial(to_greedoid(digraph))
        key = tuple(sorted(poly.terms.items()))
        assert key not in polys, f"{form} and {polys.get(key)} share a Tutte polynomial"
        polys[key] = form
    assert len(forms) == 1 + 1 + 2 + 4 + 9 + 20


def test_enumeration_bound():
    big = path_graph(21)
    with pytest.raises(GroundSetTooLargeError):
        tutte_polynomial(to_greedoid(big))
    assert tutte_eval(to_greedoid(big), 1, 1, max_elements=21) == 1


def reduced_laplacian(vertex_count, pairs, root, directed):
    """The Laplacian (in-degree Laplacian when directed) without the root's row and column."""
    lap = [[0] * vertex_count for _ in range(vertex_count)]
    for u, v in pairs:
        if u != v:
            lap[v][v] += 1
            lap[u][v] -= 1
            if not directed:
                lap[u][u] += 1
                lap[v][u] -= 1
    keep = [v for v in range(vertex_count) if v != root]
    return ExactMatrix([[lap[i][j] for j in keep] for i in keep])


def test_matrix_tree_counts_on_large_carriers():
    rng = random.Random(40)
    n = 42
    pairs = [(v, v + 1) for v in range(n - 1)]  # the root 0 reaches every vertex
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(80)]
    graph = RootedGraph(n, tuple(pairs), 0)
    digraph = RootedDigraph(n, tuple(pairs), 0)
    assert spanning_tree_count(graph) == det_exact(reduced_laplacian(n, pairs, 0, False))
    assert arborescence_count(digraph) == det_exact(reduced_laplacian(n, pairs, 0, True))
    # Cayley: n^(n-2) spanning trees of K_n, and as many arborescences of the complete digraph
    complete = [(u, v) for u in range(n) for v in range(n) if u != v]
    assert spanning_tree_count(RootedGraph(n, tuple((u, v) for u, v in complete if u < v), 0)) == n ** (n - 2)
    assert arborescence_count(RootedDigraph(n, tuple(complete), 5)) == n ** (n - 2)
