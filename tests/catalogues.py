"""Shared instance catalogues and independent brute-force oracles.

The brute-force helpers here deliberately reimplement ranks, spanning tree
and arborescence enumeration from first principles so library results are
checked against a second, independent route.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from greedoid_tutte import (
    BinaryMatrix,
    Greedoid,
    RootedDigraph,
    RootedGraph,
    UnrootedGraph,
    attach,
    attach_graphs,
    bidirect,
    block_diag,
    demo_binary_matrix,
    digon_stretch,
    directed_path,
    directed_star,
    full_rank_attach,
    identity_matrix,
    path_graph,
    star_graph,
    thicken,
    to_greedoid,
    trivial_attachment_function,
)

TRIANGLE = RootedGraph(3, ((0, 1), (0, 2), (1, 2)), 0)
TRIANGLE_UNROOTED = UnrootedGraph(3, ((0, 1), (0, 2), (1, 2)))
TWO_PARALLEL = RootedGraph(2, ((0, 1), (0, 1)), 0)
TAILED_DIGON = RootedDigraph(3, ((0, 1), (1, 2), (2, 1)), 0)
DIRECTED_TRIANGLE = RootedDigraph(3, ((0, 1), (1, 2), (2, 0)), 0)
LOOP_GRAPH = RootedGraph(2, ((0, 1), (1, 1)), 0)
ONE_BY_TWO = BinaryMatrix(((1, 1),))
TWO_BY_THREE = BinaryMatrix(((1, 0, 1), (0, 1, 1)))
K4_MINUS_EDGE = RootedGraph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), 0)


def greedoid_instances() -> list[tuple[str, Greedoid]]:
    """Registry of constructed greedoids, every one on <= 12 elements."""
    s1 = to_greedoid(star_graph(1))
    entries = [
        ("path-3", to_greedoid(path_graph(3))),
        ("path-4", to_greedoid(path_graph(4))),
        ("star-3", to_greedoid(star_graph(3))),
        ("star-4", to_greedoid(star_graph(4))),
        ("triangle", to_greedoid(TRIANGLE)),
        ("two-parallel", to_greedoid(TWO_PARALLEL)),
        ("loop-graph", to_greedoid(LOOP_GRAPH)),
        ("k4-minus-edge", to_greedoid(K4_MINUS_EDGE)),
        ("dpath-3", to_greedoid(directed_path(3))),
        ("dstar-3", to_greedoid(directed_star(3))),
        ("tailed-digon", to_greedoid(TAILED_DIGON)),
        ("directed-triangle", to_greedoid(DIRECTED_TRIANGLE)),
        ("identity-3", to_greedoid(identity_matrix(3))),
        ("demo-matrix", to_greedoid(demo_binary_matrix())),
        ("one-by-two", to_greedoid(ONE_BY_TWO)),
        ("two-by-three", to_greedoid(TWO_BY_THREE)),
        ("thicken-path-2", to_greedoid(thicken(path_graph(2), 2))),
        ("thicken-star-2", to_greedoid(thicken(star_graph(2), 3))),
        ("thicken-demo", to_greedoid(thicken(demo_binary_matrix(), 2))),
        ("thicken-dpath-2", to_greedoid(thicken(directed_path(2), 2))),
        ("attach-p2-s1", to_greedoid(attach_graphs(path_graph(2), star_graph(1)))),
        ("attach-generic-s1-s1", attach(s1, trivial_attachment_function(s1), s1)),
        (
            "fullrank-i2-demo",
            full_rank_attach(to_greedoid(identity_matrix(2)), to_greedoid(demo_binary_matrix())),
        ),
        ("blockdiag-i1-i2", to_greedoid(block_diag(identity_matrix(1), identity_matrix(2)))),
        ("digon-stretch-arc", to_greedoid(digon_stretch(RootedDigraph(2, ((0, 1),), 0), 2))),
        ("digon-stretch-dpath", to_greedoid(digon_stretch(directed_path(2), 1))),
        ("bidirect-triangle", to_greedoid(bidirect(TRIANGLE))),
        ("non-root-component", to_greedoid(RootedGraph(4, ((0, 1), (2, 3)), 0))),
    ]
    assert all(g.size <= 12 for _, g in entries)
    return entries


def brute_rank(greedoid: Greedoid, subset: int) -> int:
    """Rank by definition: maximum size over all feasible subsets of A."""
    best = 0
    sub = subset
    while True:
        if greedoid.feasible_mask(sub):
            best = max(best, bin(sub).count("1"))
        if sub == 0:
            break
        sub = (sub - 1) & subset
    return best


def spanning_trees_brute(graph: RootedGraph) -> list[int]:
    """Edge masks forming spanning trees of the root component."""
    from greedoid_tutte.carriers import root_reach

    component = root_reach(graph)
    masks = []
    m = graph.edge_count
    for mask in range(1 << m):
        chosen = [graph.edges[e] for e in range(m) if mask >> e & 1]
        if len(chosen) != len(component) - 1:
            continue
        if any(u not in component or v not in component for u, v in chosen):
            continue
        parent = {v: v for v in component}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for u, v in chosen:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic and len({find(v) for v in component}) == 1:
            masks.append(mask)
    return masks


def arborescences_brute(digraph: RootedDigraph) -> list[int]:
    """Arc masks forming spanning arborescences of the root component."""
    from greedoid_tutte.carriers import root_reach

    component = root_reach(digraph)
    masks = []
    m = digraph.edge_count
    for mask in range(1 << m):
        chosen = [digraph.arcs[e] for e in range(m) if mask >> e & 1]
        if len(chosen) != len(component) - 1:
            continue
        indeg = {v: 0 for v in component}
        ok = True
        for u, v in chosen:
            if u not in component or v not in component:
                ok = False
                break
            indeg[v] += 1
        if not ok or indeg[digraph.root] != 0:
            continue
        if any(d != 1 for v, d in indeg.items() if v != digraph.root):
            continue
        out: dict[int, list[int]] = {}
        for u, v in chosen:
            out.setdefault(u, []).append(v)
        seen = {digraph.root}
        stack = [digraph.root]
        while stack:
            u = stack.pop()
            for v in out.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen == set(component):
            masks.append(mask)
    return masks


# ---------------------------------------------------------------------------
# exhaustive generation of small structures


def rooted_trees_up_to(max_edges: int) -> list[tuple]:
    """Canonical forms of rooted trees with up to ``max_edges`` edges.

    A canonical form is the sorted tuple of children's canonical forms; two
    rooted trees are isomorphic exactly when their forms coincide.
    """
    levels: list[set[tuple]] = [{()}]
    for n in range(1, max_edges + 1):
        fresh: set[tuple] = set()
        for tree in levels[n - 1]:
            for extended in _attach_leaf_everywhere(tree):
                fresh.add(extended)
        levels.append(fresh)
    return [t for level in levels for t in sorted(level)]


def _attach_leaf_everywhere(tree: tuple):
    yield tuple(sorted(tree + ((),)))
    for i, child in enumerate(tree):
        for new_child in _attach_leaf_everywhere(child):
            yield tuple(sorted(tree[:i] + (new_child,) + tree[i + 1 :]))


def tree_form_to_digraph(tree: tuple) -> RootedDigraph:
    """Rooted tree form as an arborescence directed away from the root."""
    arcs: list[tuple[int, int]] = []
    counter = itertools.count(1)

    def build(node: tuple, name: int) -> None:
        for child in node:
            child_name = next(counter)
            arcs.append((name, child_name))
            build(child, child_name)

    build(tree, 0)
    return RootedDigraph(len(arcs) + 1, tuple(arcs), 0)


def root_connected_digraphs(max_arcs: int = 3) -> list[RootedDigraph]:
    """All root-connected digraphs with at most ``max_arcs`` arcs.

    Labeled generation over minimal vertex sets: every non-root vertex must
    be touched by some arc, which removes padding duplicates.
    """
    out = []
    for nv in range(1, max_arcs + 2):
        arc_types = [(u, v) for u in range(nv) for v in range(nv)]
        for count in range(max_arcs + 1):
            for combo in itertools.combinations_with_replacement(arc_types, count):
                touched = {0} | {u for u, _ in combo} | {v for _, v in combo}
                if touched != set(range(nv)):
                    continue
                digraph = RootedDigraph(nv, tuple(combo), 0)
                from greedoid_tutte.carriers import digraph_is_root_connected

                if digraph_is_root_connected(digraph):
                    out.append(digraph)
    return out


def connected_rooted_graph_catalogue() -> list[tuple[str, RootedGraph]]:
    """Fifteen connected rooted graphs with at most five edges."""
    return [
        ("path-1", path_graph(1)),
        ("path-2", path_graph(2)),
        ("path-3", path_graph(3)),
        ("path-4", path_graph(4)),
        ("path-5", path_graph(5)),
        ("star-2", star_graph(2)),
        ("star-3", star_graph(3)),
        ("star-4", star_graph(4)),
        ("star-5", star_graph(5)),
        ("triangle", TRIANGLE),
        ("four-cycle", RootedGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)), 0)),
        ("five-cycle", RootedGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)), 0)),
        ("two-parallel", TWO_PARALLEL),
        ("triangle-with-loop", RootedGraph(3, ((0, 1), (0, 2), (1, 2), (1, 1)), 0)),
        ("k4-minus-edge", K4_MINUS_EDGE),
    ]


SAMPLE_POINTS_Y_NOT_MINUS1 = (
    (Fraction(3), Fraction(2)),
    (Fraction(-1), Fraction(3)),
    (Fraction(1, 2), Fraction(-2)),
    (Fraction(5, 3), Fraction(2, 5)),
    (Fraction(0), Fraction(4)),
    (Fraction(2), Fraction(-3)),
)

ATTACHMENT_POINTS = (
    (Fraction(3), Fraction(2)),
    (Fraction(-1), Fraction(3)),
    (Fraction(2), Fraction(-3)),
    (Fraction(5, 3), Fraction(2, 5)),
    (Fraction(4), Fraction(1, 2)),
    (Fraction(-2), Fraction(-1)),
)


def seeded_rooted_graph(vertices: int, edges: int, seed: int) -> RootedGraph:
    """A random rooted graph: vertex v joined to a random earlier vertex, then
    uniform random pairs of distinct vertices, rooted at 0.  The pairs may
    repeat, so such graphs have classes of identical edges."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(v), v) for v in range(1, vertices)]
    while len(pairs) < edges:
        pairs.append(tuple(rng.sample(range(vertices), 2)))
    return RootedGraph(vertices, tuple(pairs), 0)


def seeded_rooted_digraph(vertices: int, arcs: int, seed: int) -> RootedDigraph:
    """A random rooted digraph, built as :func:`seeded_rooted_graph` is: an arc
    into vertex v from a random earlier vertex, then arcs between uniform
    random ordered pairs of distinct vertices, rooted at 0.  The root reaches
    every vertex, and the pairs may repeat or run both ways."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(v), v) for v in range(1, vertices)]
    while len(pairs) < arcs:
        pairs.append(tuple(rng.sample(range(vertices), 2)))
    return RootedDigraph(vertices, tuple(pairs), 0)


def seeded_simple_carrier(
    vertices: int, elements: int, seed: int, directed: bool = False
) -> RootedGraph | RootedDigraph:
    """A random rooted graph, or digraph, with no repeated element: vertex v
    joined from a random earlier vertex, then uniform random pairs of
    distinct vertices not yet joined (as unordered pairs for a graph, ordered
    for a digraph), rooted at 0."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(v), v) for v in range(1, vertices)]
    seen = {pair if directed else frozenset(pair) for pair in pairs}
    while len(pairs) < elements:
        pair = tuple(rng.sample(range(vertices), 2))
        key = pair if directed else frozenset(pair)
        if key not in seen:
            seen.add(key)
            pairs.append(pair)
    return (RootedDigraph if directed else RootedGraph)(vertices, tuple(pairs), 0)
