"""Greedoid Tutte polynomial engine.

The central object is the subset profile of a greedoid: the count of subsets
by (rank deficit, size surplus).  The Tutte polynomial

    T(x, y) = sum over subsets A of (x-1)^(rank(E)-rank(A)) * (y-1)^(|A|-rank(A))

and all its curve restrictions are exact rearrangements of that profile, so
every public operation here reads one profile, made once per greedoid or
carrier and then shared, and does only polynomial algebra on its integer
counts.  The profile also keeps its expansion into the coefficients of
T(x, y), made by the first query that needs it; T(1, y) and T(x, 1) need
only one row or column of the profile, each expanded by one packed shift.
A greedoid's profile is enumerated subset by subset.  A binary matrix's
comes from the programme over the spans of column sets in
:mod:`.span_profile`, its one engine.  A rooted graph's or digraph's comes
from one of two engines: enumeration over its classes of identical
elements, or the sum over the vertex sets the root reaches, block by block,
in :mod:`.vertex_profile`.  Of the two, when both figures fit, the one of
least calibrated cost runs: each engine's first figure times its
microseconds per step, plus enumeration's fixed cost per call, so a small
core never pays for enumeration's rank table.

A carrier whose class sizes have gcd g > 1 is the g-thickening H^g of the
carrier H with each class size divided by g (the core, when g is every class
size).  By the thickening identity (Jaeger, Vertigan and Welsh, 1990) every
answer about it is a sum over H's cached profile with weights in g, so
thickenings of one base by any k share one profile, and none makes a
profile of its own while H's is admitted (:func:`_route`).

Beside that thickening route, :func:`_base_route` takes a leaf route.  A
rooted graph or digraph whose every non-root vertex, but its pendant leaves,
carries the same number k >= 1 of them, as the star attachment G ~ S_k of
the reductions does, is read off the cached profile of its core, the
carrier without its leaves, whether or not its elements repeat: the
attachments of one base by any k share the base's profile, and none runs
an engine.  Every answer at one y, and on x = 1, reads the core's rows
with the weights of the leaf identity (:func:`_collect`), and the
polynomial and the hyperbola read the carrier's own profile, which is those
sums at u = 1 and y = 1 + z, packed (:func:`_with_leaves`).

Fast paths that avoid enumeration entirely (spanning tree and arborescence
counts via one determinant per block, the hyperbola (x-1)(y-1)=1, the y=0
sink rule for digraphs) are provided alongside, and are cross-checked
against the enumerator in the test suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, gcd, prod
from operator import mul
from typing import Sequence, Union

from .carriers import (
    BinaryMatrix,
    Carrier,
    RootedDigraph,
    RootedGraph,
    UnrootedGraph,
    carrier_elements,
    carrier_rank,
    digraph_has_directed_cycle,
    graph_is_connected,
    induced_carrier,
    merge_identical_elements,
    require_root_connected,
    root_reach,
    sink_count,
    to_greedoid,
    with_elements,
)
from .errors import GroundSetTooLargeError, NotConnectedError, NotOnCurveError
from .exact import det_integer
from .greedoid import (
    _MAX_WORK,
    DEFAULT_MAX_ELEMENTS,
    Greedoid,
    SubsetProfile,
    _check_bound,
    _check_work,
    class_enumeration_cost,
    expand,
    rank_size_profile,
)
from .polynomials import BivariatePoly, LaurentPoly, rational
from .primitives import (
    block_elements,
    join_edges,
    packed_fields,
    reach,
    renumber,
    shift_minus_one,
)
from .span_profile import span_state_cost, span_state_profile
from .vertex_profile import vertex_subset_bits, vertex_subset_cost, vertex_subset_profile


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


# Carrier profiles, and thinnings, kept for reuse.  A caller asking several
# queries about one carrier needs one entry (a thickening's is its base's);
# a few more allow interleaving, and each entry keeps its carrier and a few
# KiB of counts alive until it is evicted.
_PROFILE_CACHE_SIZE = 16


def _profile(source: Evaluatable, max_elements: int) -> SubsetProfile:
    """The subset profile of a greedoid or carrier itself, computed once and then shared.

    The element bound is checked on every call, before any kept profile is
    looked at.  A greedoid keeps its own profile; carriers are frozen and
    hashable, so their profiles are kept in a fixed-size cache keyed by the
    carrier.
    """
    if isinstance(source, Greedoid):
        return source.profile(max_elements)
    _check_bound(source.edge_count, max_elements)
    return _carrier_profile(source)


def _base_route(
    source: Evaluatable, max_elements: int, polynomial: bool = False
) -> tuple[SubsetProfile, Union[int, tuple[int, int, int]]]:
    """The profile every answer about the source is read from, and its lift
    to the source, the bound checked first.

    * The thickening route: H's profile and g when the source is a carrier
      H^g, g > 1 (see :func:`_thinned`), and H is not refused, nor, for
      ``polynomial``, past the expansion's (rank + 1)(size + 1)^2 bits.
    * The leaf route: the core's profile and (n, k, k_root), the core's
      non-root vertices and the leaves at each of them and at the root, when
      the source is read as itself, has a leaf split (see :func:`_leaves`),
      and its own profile bits, the vertex-subset engine's figure, fit.
    * Else the source's own and 1, so a carrier that H or its core does not
      answer for, or whose bits do not fit, meets its own figures.
    """
    if not isinstance(source, Greedoid):
        size = source.edge_count
        _check_bound(size, max_elements)
        thin, g, _, _, leaves = _thinned(source)
        if g > 1 and (not polynomial or (carrier_rank(thin) + 1) * (size + 1) ** 2 <= _MAX_WORK):
            try:
                return _carrier_profile(thin), g
            except GroundSetTooLargeError:
                pass
        if leaves is not None and (
            vertex_subset_bits(size, source.vertex_count)[0] <= _MAX_WORK  # the root reaches at most every vertex
            or vertex_subset_bits(size, carrier_rank(source) + 1)[0] <= _MAX_WORK
        ):
            core, k, k_root = leaves
            try:
                return _carrier_profile(core), (core.vertex_count - 1, k, k_root)
            except GroundSetTooLargeError:
                pass
    return _profile(source, max_elements), 1


def _route(source: Evaluatable, max_elements: int, polynomial: bool = False) -> tuple[SubsetProfile, int]:
    """The profile and g that the polynomial and the hyperbola read, the bound
    checked first: :func:`_base_route`'s pair, but on the leaf route the
    source's own profile, :func:`_collect`'s sums at u = 1 and y = 1 + z
    (:func:`_with_leaves`), and 1.  The derived profile is made on every
    call and not kept; every answer at one y, and on x = 1, reads the core's
    rows instead.
    """
    profile, lift = _base_route(source, max_elements, polynomial)
    if isinstance(lift, tuple):
        return _with_leaves(profile, *lift), 1
    return profile, lift


def _lift_parts(lift: Union[int, tuple[int, int, int]], rank: int) -> tuple[int, int, int, int]:
    """g, n, k and k_root of :func:`_base_route`'s lift: a thickening hangs
    no leaves, and a leaf-route carrier is read as itself, g = 1."""
    return (lift, rank, 0, 0) if isinstance(lift, int) else (1, *lift)


@lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _thinned(carrier: Carrier) -> tuple[Carrier, int, Carrier, tuple[int, ...], tuple[Carrier, int, int] | None]:
    """The carrier H and the gcd g of the class sizes, with the carrier the
    g-thickening of H, then the carrier's core and class sizes, and, when
    g = 1, its leaf split by :func:`_leaves`, which depends on the carrier's
    shape alone.

    H keeps each class of identical elements with its size divided by g, so
    it is the core itself when g is every class size, and the carrier itself
    when g = 1.  Kept per carrier, so repeated queries, and the profile's own
    route, merge its classes once.
    """
    core, sizes = merge_identical_elements(carrier)
    g = gcd(*sizes)
    if g < 2:
        return carrier, 1, core, sizes, _leaves(carrier)
    if all(size == g for size in sizes):
        return core, g, core, sizes, None
    thin = with_elements(core, [e for e, c in zip(carrier_elements(core), sizes) for _ in range(c // g)])
    return thin, g, core, sizes, None


def _leaves(carrier: Carrier) -> tuple[Carrier, int, int] | None:
    """The core without the pendant leaves, k, the number of leaves at each
    of the core's non-root vertices, and the number at the root; None for a
    matrix, a carrier with no leaf, or one whose non-root vertices other
    than leaves carry different numbers of leaves or none.

    A pendant leaf is a non-root vertex touched by exactly one element,
    which is not a loop and whose other end is the root or is touched by two
    or more elements; in a digraph that element is the arc into the leaf.
    The core keeps the other vertices, renumbered in increasing order, and
    the other elements in carrier order, repeated ones too, so a star
    attachment G ~ S_k, whose leaves are numbered after G's vertices and
    whose elements follow G's, has the core G itself.  Two copies of one
    element touch their ends twice, so neither end is a leaf.
    """
    if isinstance(carrier, BinaryMatrix):
        return None
    elements, root = carrier_elements(carrier), carrier.root
    undirected = isinstance(carrier, RootedGraph)
    touched = Counter(chain.from_iterable(elements))  # a loop counts twice, so its vertex is no leaf
    if 1 not in touched.values():
        return None
    hosts = {}  # each leaf and the vertex it hangs from
    for u, v in elements:
        if touched[v] == 1 and v != root and (u == root or touched[u] > 1):
            hosts[v] = u
        elif undirected and touched[u] == 1 and u != root and (v == root or touched[v] > 1):
            hosts[u] = v
    if not hosts:
        return None
    counts = Counter(hosts.values())
    kept = [v for v in range(carrier.vertex_count) if v not in hosts]
    ks = {counts[v] for v in kept if v != root}
    if len(ks) > 1 or 0 in ks:
        return None
    k = ks.pop() if ks else 0
    return induced_carrier(carrier, kept), k, counts[root]


def _with_leaves(profile: SubsetProfile, n: int, k: int, k_root: int) -> SubsetProfile:
    """The profile of a carrier made from a core of n non-root vertices,
    whose profile is given, by hanging k pendant leaves from each non-root
    vertex and ``k_root`` from the root: :func:`_lifted_sums` at u = 1 and
    y = 1 + z, z = 2^W, W = m + 1 for the carrier's m elements.

    There v = z and q = 1 and nothing is divided, so the sum at deficit D is
    the carrier's count[D, S] packed as z^S, W bits each, as
    :func:`.primitives.packed_powers` packs counts.  Every coefficient made
    on the way counts subsets of the carrier, so none reaches 2^W and none
    carries.
    """
    width = profile.size + k * n + k_root + 1
    sums, _, rank = _lifted_sums(profile, (n, k, k_root), Fraction(1), Fraction(1 + (1 << width)))
    counts = {
        (d, s): c
        for d, row in enumerate(sums)
        for s, c in enumerate(packed_fields(row, width, row.bit_length() // width + 1))
        if c
    }
    return SubsetProfile(counts, width - 1, rank)


# Microseconds class enumeration takes per call (the greedoid, its rank
# table and arrays, numpy's import aside) and per subset of the classes, and
# the vertex-subset engine per product: fitted together on 87 small carriers
# on a 2-core x86-64 host under CPython 3.11, so costs compare in one unit.
CLASS_CALL_US = 50
CLASS_STEP_US = 0.75
PRODUCT_US = 0.15


@lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _carrier_profile(carrier: Carrier) -> SubsetProfile:
    """Profile of a carrier, by its family's engine or class enumeration.

    A binary matrix takes the span-state engine, or is refused by its
    figure.  A rooted graph or digraph reads the figures, steps first, of
    enumeration over its classes of identical elements (see
    :func:`_thinned`) and of the vertex-subset engine.  When neither fits,
    ``GroundSetTooLargeError`` names every figure of both past the limit.
    The vertex-subset engine runs when it fits, unless enumeration fits
    too and costs no more: ``PRODUCT_US`` per product against
    ``CLASS_CALL_US`` plus ``CLASS_STEP_US`` per step.
    """
    _, _, core, sizes, _ = _thinned(carrier)
    size = carrier.edge_count
    if isinstance(carrier, BinaryMatrix):
        rank = carrier_rank(core)
        _check_work(size, span_state_cost(rank, len(sizes)))
        return SubsetProfile(span_state_profile(core, sizes, rank), size, rank)
    reached = root_reach(core)
    rank = len(reached) - 1
    enumeration = class_enumeration_cost(sizes)
    vertex = vertex_subset_cost(core, reached, size)
    enumeration_fits, vertex_fits = (all(f <= _MAX_WORK for f, _ in figures) for figures in (enumeration, vertex))
    if not (enumeration_fits or vertex_fits):
        _check_work(size, enumeration + vertex)
    if vertex_fits and (
        not enumeration_fits or PRODUCT_US * vertex[0][0] < CLASS_CALL_US + CLASS_STEP_US * enumeration[0][0]
    ):
        return SubsetProfile(vertex_subset_profile(carrier, reached), size, rank)
    return SubsetProfile(rank_size_profile(to_greedoid(core), size, sizes), size, rank)


def _powers(a: int, b: int, n: int, lead: int = 1) -> list[int]:
    """lead a^k b^(n - k) for k = 0 .. n, by successive products."""
    ups, downs = [lead], [1]
    for _ in range(n):
        ups.append(ups[-1] * a)
        downs.append(downs[-1] * b)
    return list(map(mul, ups, reversed(downs)))


def _collect(source: Evaluatable, max_elements: int, u: Fraction, y: Fraction) -> tuple[list[int], int, int]:
    """The sums of u^D (y - 1)^S over the source's subsets of deficit D and
    surplus S, one per D, as integer numerators over one common denominator,
    and the source's rank: the reader of every answer at one y.  It makes
    one pass over the rows of :func:`_base_route`'s profile, of rank R, with
    the weights of its lift (:func:`_lifted_sums`).

    * A g-thickening H^g: H's count[d, s] goes to deficit d with weight
      u^d (y^g - 1)^s q^(R - d), q = 1 + y + ... + y^(g-1), as in
      :func:`.greedoid.expand`.
    * A leaf-route carrier, whose core has n non-root vertices, k leaves at
      each and k_root at the root: the core's row d, summed as count[d, s]
      (y - 1)^s y^(k (n - R + d)), goes to deficits (k + 1) d + t, with
      weights C(k (R - d) + k_root, t) u^((k + 1) d + t).  This is the leaf
      identity.  A leaf is reached exactly when its element is taken and the
      vertex it hangs from is reached, and it reaches nothing further.  So
      for a core set of deficit d and surplus s the carrier sets that extend
      it by leaf elements weigh (x - 1)^((k + 1) d) x^(k (R - d) + k_root)
      (y - 1)^s y^(k (n - R + d)) in all: each of the k (R - d) + k_root leaf
      elements at a reached vertex adds 1 to size and rank, so untaken it
      adds 1 to the deficit, and sums to x = 1 + u binomially; each of the
      k (n - R + d) at a vertex not reached adds 1 to the surplus alone, and
      sums to y.  At u = 1 and y = 1 + z these sums are the carrier's own
      profile, packed (:func:`_with_leaves`).

    A thickening has k = k_root = 0, and a leaf-route carrier g = 1, so both
    take the one pass.  With y = p/m, y^g - 1 is v = p^g - m^g over m^g, and
    q is g at y = 1, else the exact quotient v/(p - m) over m^(g-1).  When
    v = 0 only s = 0 counts.  Row d's weight u^d q^(R - d) y^(k (n - R + d))
    is (u_n q_d p^k)^d (u_d q_n m^k)^(R - d) p^(k (n - R)) over
    u_d^R q_d^R m^(k n), and the leaves' u^(k d + t) is u_n^(k d + t)
    u_d^(R' - R - k d - t) over u_d^(R' - R), R' = (k + 1) R + k_root the
    source's rank.  Nothing is divided by q, so q may be 0.
    """
    return _lifted_sums(*_base_route(source, max_elements), u, y)


def _lifted_sums(
    profile: SubsetProfile, lift: Union[int, tuple[int, int, int]], u: Fraction, y: Fraction
) -> tuple[list[int], int, int]:
    """:func:`_collect`'s sums, denominator and rank, from a profile and its
    lift as :func:`_base_route` returns them."""
    rows, rank = profile.rows, profile.rank
    g, vertices, k, k_root = _lift_parts(lift, rank)
    top = (k + 1) * rank + k_root
    p, m = y.numerator, y.denominator
    v = p**g - m**g
    q_n, q_d = (g, 1) if p == m else (v // (p - m), m ** (g - 1))
    top_s = len(rows[0]) - 1 if v else 0
    u_n, u_d = u.numerator, u.denominator
    vs = _powers(v, m**g, top_s)
    ws = _powers(u_n * q_d * p**k, u_d * q_n * m**k, rank, p ** (k * (vertices - rank)))
    row_sums = [w * sum(map(mul, row, vs)) for w, row in zip(ws, rows)]
    denominator = u_d**top * q_d**rank * m ** (k * vertices + g * top_s)
    if top == rank:  # no leaf: each row's sum is its deficit's
        return row_sums, denominator, rank
    us, sums = _powers(u_n, u_d, top - rank), [0] * (top + 1)
    for d, row_sum in enumerate(row_sums):
        leaves = k * (rank - d) + k_root
        for t in range(leaves + 1):
            sums[(k + 1) * d + t] += comb(leaves, t) * us[k * d + t] * row_sum
    return sums, denominator, top


def _hyperbola(profile: SubsetProfile, g: int, alpha: Fraction) -> LaurentPoly:
    """The sum of counts[d, s] alpha^d z^-rank P^(rank - d + s), P = (1 + z)^g
    - 1, so z^(s - d) when g = 1: alpha^d is alpha_n^d alpha_d^(rank - d) over
    alpha_d^rank, and the sums by i = rank - d + s are kept in one list,
    filled in one pass over the rows.  For g > 1, P is y^g - 1 at y = 1 + z:
    one packed shift takes the sums at y^g - 1, as p(y), and p(1 + z) is
    p(1 - t) at t = -z, the shift by -1 of p(-t): two sign turns of odd powers."""
    rows, rank = profile.rows, profile.rank
    sums = [0] * (rank + len(rows[0]))
    for d, (w, row) in enumerate(zip(_powers(alpha.numerator, alpha.denominator, rank), rows)):
        for i, c in enumerate(row, rank - d):
            if c:
                sums[i] += w * c
    if g > 1:
        turned = [-c if k & 1 else c for k, c in enumerate(shift_minus_one(sums, g))]
        sums = [-c if k & 1 else c for k, c in enumerate(shift_minus_one(turned))]
    denominator = alpha.denominator**rank
    return LaurentPoly({i - rank: Fraction(n, denominator) for i, n in enumerate(sums) if n})


def _by_deficit(sums: list[int], denominator: int, sign: int = 1) -> LaurentPoly:
    """The polynomial with coefficient sign * sums[d] / denominator at z^d."""
    return LaurentPoly({d: Fraction(sign * n, denominator) for d, n in enumerate(sums) if n})


def _shifted_line(coeffs: Sequence[int], g: int = 1, k: int = 0, offset: int = 0) -> LaurentPoly:
    """t^offset q^k times the sum of coeffs[s] (t^g - 1)^s as a polynomial in
    t, q = 1 + t + ... + t^(g-1): the sum of coeffs[s] (t - 1)^s when g = 1."""
    return LaurentPoly(dict(enumerate(shift_minus_one(coeffs, g, k), offset)))


def tutte_polynomial(source: Evaluatable, max_elements: int = DEFAULT_MAX_ELEMENTS) -> BivariatePoly:
    """Exact Tutte polynomial: the profile's kept expansion, or a
    thickening's expansion from its base's profile (:func:`_route`, whose
    figure it must fit)."""
    profile, g = _route(source, max_elements, polynomial=True)
    return BivariatePoly(profile.expansion if g == 1 else expand(profile.counts, g))


def tutte_eval(source: Evaluatable, a, b, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Fraction:
    """Exact T(a, b): the sum of :func:`_collect`'s sums at u = a - 1 and
    y = b, so a thickening's is read off its base's profile, and a
    leaf-route carrier's off its core's rows, with no profile of its own."""
    sums, denominator, _ = _collect(source, max_elements, rational(a) - 1, rational(b))
    return Fraction(sum(sums), denominator)


def tutte_restrict(
    source: Evaluatable, curve: CurveSpec, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> LaurentPoly:
    """Restrict the Tutte polynomial to a curve, exactly.

    No curve expands a profile, and a thickening's is read off its base's.
    The lines y = c, a polynomial in z = x - 1, and y = 1, one packed shift
    to x, are sums at one y (:func:`_collect`), so a leaf-route carrier's
    read its core's rows.  On x = 1 only deficit-zero subsets survive, so
    T(1, y) is q^rank times row 0 at y^g, one packed shift, for a
    thickening; on the leaf route only the core's row 0 reaches deficit 0,
    with every leaf at a reached vertex taken, so T(1, y) is
    y^(k (n - R)) T(core; 1, y), one exponent shift.  On the hyperbola, read
    off :func:`_route`'s profile and g, the substitution x = 1 + alpha/z,
    y = 1 + z turns the (deficit d, surplus s) subset class into
    alpha^d z^-rank P^(rank - d + s), P = (1 + z)^g - 1.
    """
    if isinstance(curve, H0Y):  # q = g and y^g - 1 = 0, so the denominator is 1
        return _shifted_line(_collect(source, max_elements, Fraction(1), Fraction(1))[0])
    if isinstance(curve, LineY):
        return _by_deficit(*_collect(source, max_elements, Fraction(1), curve.c)[:2])
    if isinstance(curve, H0X):
        profile, lift = _base_route(source, max_elements)
        g, vertices, k, _ = _lift_parts(lift, profile.rank)
        return _shifted_line(profile.rows[0], g, profile.rank, k * (vertices - profile.rank))
    if isinstance(curve, HAlpha):
        return _hyperbola(*_route(source, max_elements), curve.alpha)
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


def characteristic_polynomial(source: Evaluatable, max_elements: int = DEFAULT_MAX_ELEMENTS) -> LaurentPoly:
    """(-1)^rank T(1 - z, 0) as a polynomial in z: (x-1)^d at x = 1-z is
    (-z)^d, and at y = 0 the weight q is 1 and y^g - 1 is -1, so a
    thickening's is its base's."""
    sums, denominator, rank = _collect(source, max_elements, Fraction(-1), Fraction(0))
    return _by_deficit(sums, denominator, (-1) ** rank)


# ---------------------------------------------------------------------------
# polynomial-time counting fast paths


def spanning_tree_count(graph: RootedGraph) -> int:
    """Spanning trees of the root component, by the reduced Laplacian."""
    return _matrix_tree(graph.root, graph.edges, False)


def arborescence_count(digraph: RootedDigraph) -> int:
    """Spanning arborescences of the root component, rooted at the root.

    Directed matrix-tree count: determinant of the in-degree Laplacian of the
    root component with the root's row and column deleted.
    """
    return _matrix_tree(digraph.root, digraph.arcs, True)


def _matrix_tree(root: int, pairs, directed: bool) -> int:
    """Spanning trees of the root's component, or spanning arborescences
    rooted at the root when ``directed``: the product over the blocks of the
    underlying graph of the elements the root reaches along
    (:func:`.primitives.block_elements`) of :func:`_block_tree_count`, each
    block rooted at its vertex nearest the root.

    A path from the root into a block passes that vertex, its top, and then
    stays in the block, so a spanning tree or arborescence of the component
    is one of each block, rooted at its top, and any such choice, one per
    block, is one of the component.  Loops lie in no block and count in no
    tree.
    """
    parts = block_elements(root, pairs, reach(root, pairs, directed))
    return prod(_block_tree_count(others, part, directed) for _, others, part in parts)


def _block_tree_count(others: list[int], pairs: dict[tuple[int, int], int], directed: bool) -> int:
    """Determinant of the Laplacian of a block's pairs, counted by end pair
    and read as arcs u -> v when ``directed`` (in-degree Laplacian), without
    the row and column of its top, the one end of the pairs not in ``others``."""
    index = {v: i for i, v in enumerate(others)}
    lap = [[0] * len(others) for _ in others]
    for (u, v), count in pairs.items():
        iu, iv = index.get(u), index.get(v)
        if iv is not None:
            lap[iv][iv] += count
            if iu is not None:
                lap[iu][iv] -= count
        if not directed and iu is not None:
            lap[iu][iu] += count
            if iv is not None:
                lap[iv][iu] -= count
    return det_integer(lap)


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


def _forest_greedoid(graph: UnrootedGraph) -> Greedoid:
    """The greedoid whose feasible sets are the forests of the graph.

    The forests are the independent sets of the graphic matroid, so subset
    ranks in this greedoid are the classical ranks n - c(A).
    """
    edges, vertices = renumber(graph.edges)
    nv = len(vertices)

    def oracle(mask: int) -> bool:
        return join_edges(list(range(nv)), edges, mask) is not None

    return Greedoid(graph.edge_count, oracle, name="forest")


def unrooted_tutte_polynomial(
    graph: UnrootedGraph, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> BivariatePoly:
    """Classical Tutte polynomial of an unrooted graph (debug evaluator)."""
    return tutte_polynomial(_forest_greedoid(graph), max_elements)


def unrooted_tutte_x1(
    graph: UnrootedGraph, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> LaurentPoly:
    """Classical T(G'; 1, y) of a connected unrooted graph, brute force.

    On x = 1 only spanning (full-rank) subsets contribute (y-1)^(|A|-r(E)).
    This is the comparison evaluator for the rooted polynomial on that line.
    """
    if not graph_is_connected(graph):
        raise NotConnectedError("comparison evaluator needs a connected graph")
    return tutte_restrict(_forest_greedoid(graph), H0X(), max_elements)
