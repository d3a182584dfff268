"""Greedoid Tutte polynomial engine.

The central object is the subset profile of a greedoid: the count of subsets
by (rank deficit, size surplus).  The Tutte polynomial

    T(x, y) = sum over subsets A of (x-1)^(rank(E)-rank(A)) * (y-1)^(|A|-rank(A))

and all its curve restrictions are exact rearrangements of that profile, so
every public operation here shares one brute-force enumeration and then does
only polynomial algebra on integer counts.

Fast paths that avoid enumeration entirely (spanning tree and arborescence
counts via determinants, the hyperbola (x-1)(y-1)=1, the y=0 sink rule for
digraphs) are provided alongside, and are cross-checked against the
enumerator in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Union

from .carriers import (
    Carrier,
    RootedDigraph,
    RootedGraph,
    UnrootedGraph,
    digraph_has_directed_cycle,
    graph_is_connected,
    merge_identical_elements,
    require_root_connected,
    root_component_vertices,
    reachable_from_root,
    sink_count,
    to_greedoid,
)
from .errors import GroundSetTooLargeError, NotConnectedError, NotOnCurveError
from .exact import ExactMatrix, det_exact
from .greedoid import DEFAULT_MAX_ELEMENTS, Greedoid, rank_size_profile
from .polynomials import BivariatePoly, LaurentPoly, rational


@dataclass(frozen=True)
class HAlpha:
    """Hyperbola (x-1)(y-1) = alpha, parameterized by x = 1 + alpha/z, y = 1 + z."""

    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", rational(self.alpha))
        if self.alpha == 0:
            raise NotOnCurveError("the hyperbola parameter must be nonzero")


@dataclass(frozen=True)
class H0X:
    """The line x = 1; restriction is a polynomial in y."""


@dataclass(frozen=True)
class H0Y:
    """The line y = 1; restriction is a polynomial in x."""


@dataclass(frozen=True)
class LineY:
    """A horizontal line y = c; restriction is a polynomial in z = x - 1."""

    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", rational(self.c))


CurveSpec = Union[HAlpha, H0X, H0Y, LineY]

Evaluatable = Union[Greedoid, Carrier]


def _profile(source: Evaluatable, max_elements: int) -> tuple[dict[tuple[int, int], int], int]:
    """Subset profile and rank; a carrier is enumerated over its classes of identical elements."""
    if isinstance(source, Greedoid):
        return rank_size_profile(source, max_elements), source.rank
    core, sizes = merge_identical_elements(source)
    g = to_greedoid(core)
    return rank_size_profile(g, max_elements, sizes), g.rank


def tutte_polynomial(source: Evaluatable, max_elements: int = DEFAULT_MAX_ELEMENTS) -> BivariatePoly:
    """Exact Tutte polynomial by subset enumeration."""
    profile, _ = _profile(source, max_elements)
    terms: dict[tuple[int, int], Fraction] = {}
    for (d, s), count in profile.items():
        for i in range(d + 1):
            ci = count * comb(d, i) * (-1) ** (d - i)
            for j in range(s + 1):
                c = ci * comb(s, j) * (-1) ** (s - j)
                key = (i, j)
                terms[key] = terms.get(key, Fraction(0)) + c
    return BivariatePoly(terms)


def tutte_eval(source: Evaluatable, a, b, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Fraction:
    """Exact T(a, b) straight from the subset profile."""
    a, b = rational(a), rational(b)
    profile, _ = _profile(source, max_elements)
    total = Fraction(0)
    for (d, s), count in profile.items():
        total += count * (a - 1) ** d * (b - 1) ** s
    return total


def tutte_restrict(
    source: Evaluatable, curve: CurveSpec, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> LaurentPoly:
    """Restrict the Tutte polynomial to a curve, exactly.

    On the hyperbola the substitution x = 1 + alpha/z, y = 1 + z turns the
    (deficit d, surplus s) subset class into alpha^d z^(s-d); on x = 1 only
    deficit-zero subsets survive and the result is a polynomial in y; on
    y = 1 only surplus-zero (feasible) subsets survive and the result is a
    polynomial in x; on y = c the result is a polynomial in z = x - 1.
    """
    profile, _ = _profile(source, max_elements)
    terms: dict[int, Fraction] = {}
    if isinstance(curve, HAlpha):
        for (d, s), count in profile.items():
            e = s - d
            terms[e] = terms.get(e, Fraction(0)) + count * curve.alpha**d
        return LaurentPoly(terms)
    if isinstance(curve, H0X):
        for (d, s), count in profile.items():
            if d:
                continue
            for j in range(s + 1):
                c = count * comb(s, j) * (-1) ** (s - j)
                terms[j] = terms.get(j, Fraction(0)) + c
        return LaurentPoly(terms)
    if isinstance(curve, H0Y):
        for (d, s), count in profile.items():
            if s:
                continue
            for i in range(d + 1):
                c = count * comb(d, i) * (-1) ** (d - i)
                terms[i] = terms.get(i, Fraction(0)) + c
        return LaurentPoly(terms)
    if isinstance(curve, LineY):
        for (d, s), count in profile.items():
            c = count * (curve.c - 1) ** s
            terms[d] = terms.get(d, Fraction(0)) + c
        return LaurentPoly(terms)
    raise TypeError(f"unknown curve {curve!r}")


def h1_closed_form(element_count: int, rank: int, a, b) -> Fraction:
    """Closed form on the hyperbola (a-1)(b-1) = 1.

    There the deficit and surplus exponents telescope and the value is
    (a-1)^(rank-element_count) * a^element_count, independent of any further
    structure of the greedoid.
    """
    a, b = rational(a), rational(b)
    if (a - 1) * (b - 1) != 1:
        raise NotOnCurveError(f"({a}, {b}) does not satisfy (x-1)(y-1) = 1")
    return (a - 1) ** (rank - element_count) * a**element_count


def characteristic_polynomial(
    source: Evaluatable, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> LaurentPoly:
    """(-1)^rank T(1 - z, 0) as a polynomial in z."""
    profile, rank = _profile(source, max_elements)
    terms: dict[int, Fraction] = {}
    sign = (-1) ** rank
    for (d, s), count in profile.items():
        # (x-1)^d at x = 1-z is (-z)^d; (y-1)^s at y = 0 is (-1)^s.
        c = sign * count * (-1) ** (s + d)
        terms[d] = terms.get(d, Fraction(0)) + c
    return LaurentPoly(terms)


# ---------------------------------------------------------------------------
# polynomial-time counting fast paths


def spanning_tree_count(graph: RootedGraph) -> int:
    """Spanning trees of the root component, by the reduced Laplacian."""
    component = sorted(root_component_vertices(graph))
    index = {v: i for i, v in enumerate(component)}
    nv = len(component)
    if nv == 1:
        return 1
    lap = [[0] * nv for _ in range(nv)]
    for u, v in graph.edges:
        if u in index and v in index and u != v:
            iu, iv = index[u], index[v]
            lap[iu][iu] += 1
            lap[iv][iv] += 1
            lap[iu][iv] -= 1
            lap[iv][iu] -= 1
    skip = index[graph.root]
    reduced = [
        [lap[i][j] for j in range(nv) if j != skip] for i in range(nv) if i != skip
    ]
    value = det_exact(ExactMatrix(reduced))
    return int(value)


def arborescence_count(digraph: RootedDigraph) -> int:
    """Spanning arborescences of the root component, rooted at the root.

    Directed matrix-tree count: determinant of the in-degree Laplacian of the
    root component with the root's row and column deleted.
    """
    component = sorted(reachable_from_root(digraph))
    index = {v: i for i, v in enumerate(component)}
    nv = len(component)
    if nv == 1:
        return 1
    lap = [[0] * nv for _ in range(nv)]
    for u, v in digraph.arcs:
        if u in index and v in index and u != v:
            iu, iv = index[u], index[v]
            lap[iv][iv] += 1
            lap[iu][iv] -= 1
    skip = index[digraph.root]
    reduced = [
        [lap[i][j] for j in range(nv) if j != skip] for i in range(nv) if i != skip
    ]
    value = det_exact(ExactMatrix(reduced))
    return int(value)


def digraph_sinks_fastpath(digraph: RootedDigraph, a) -> Fraction:
    """T(D; a, 0) for a root-connected digraph, without enumeration.

    An acyclic root-connected digraph with s sinks evaluates to a**s on the
    line y = 0; any directed cycle forces the value 0.
    """
    require_root_connected(digraph)
    a = rational(a)
    if digraph_has_directed_cycle(digraph):
        return Fraction(0)
    return a ** sink_count(digraph)


# ---------------------------------------------------------------------------
# classical (unrooted) comparison evaluator


def _whitney_profile(graph: UnrootedGraph, max_elements: int) -> dict[tuple[int, int], int]:
    """Counts of edge subsets by (corank, nullity) for the classical rank."""
    m = graph.edge_count
    if m > max_elements:
        raise GroundSetTooLargeError(m, max_elements)
    nv = graph.vertex_count
    edges = graph.edges
    full_rank = None
    profile: dict[tuple[int, int], int] = {}
    ranks = []
    for mask in range(1 << m):
        parent = list(range(nv))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        components = nv
        size = 0
        mm = mask
        e = 0
        while mm:
            if mm & 1:
                size += 1
                ru, rv = find(edges[e][0]), find(edges[e][1])
                if ru != rv:
                    parent[ru] = rv
                    components -= 1
            mm >>= 1
            e += 1
        ranks.append((nv - components, size))
    full_rank = max(r for r, _ in ranks)
    for r, size in ranks:
        key = (full_rank - r, size - r)
        profile[key] = profile.get(key, 0) + 1
    return profile


def unrooted_tutte_polynomial(
    graph: UnrootedGraph, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> BivariatePoly:
    """Classical Tutte polynomial of an unrooted graph (debug evaluator)."""
    profile = _whitney_profile(graph, max_elements)
    terms: dict[tuple[int, int], Fraction] = {}
    for (d, s), count in profile.items():
        for i in range(d + 1):
            ci = count * comb(d, i) * (-1) ** (d - i)
            for j in range(s + 1):
                c = ci * comb(s, j) * (-1) ** (s - j)
                terms[(i, j)] = terms.get((i, j), Fraction(0)) + c
    return BivariatePoly(terms)


def unrooted_tutte_x1(
    graph: UnrootedGraph, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> LaurentPoly:
    """Classical T(G'; 1, y) of a connected unrooted graph, brute force.

    On x = 1 only spanning (full-rank) subsets contribute (y-1)^(|A|-r(E)).
    This is the comparison evaluator for the rooted polynomial on that line.
    """
    if not graph_is_connected(graph):
        raise NotConnectedError("comparison evaluator needs a connected graph")
    profile = _whitney_profile(graph, max_elements)
    terms: dict[int, Fraction] = {}
    for (d, s), count in profile.items():
        if d:
            continue
        for j in range(s + 1):
            c = count * comb(s, j) * (-1) ** (s - j)
            terms[j] = terms.get(j, Fraction(0)) + c
    return LaurentPoly(terms)
