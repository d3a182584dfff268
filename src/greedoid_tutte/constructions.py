"""Construction operators and their predicted Tutte identities.

Carriers and generic greedoids support:

* k-thickening (replace every element by k parallel copies),
* attachments (glue rank-many copies of a second structure onto the first,
  guided by an attachment function),
* full-rank attachments (the second structure only opens up once the first
  has reached full rank; block-diagonal matrices realize this for binary
  greedoids),
* stretches of unrooted graphs, digon-stretches of root-connected digraphs,
  and bidirection of rooted graphs.

Each construction comes with a ``predicted_*`` companion that evaluates the
closed-form transformation of the Tutte polynomial.  The predictions take
polynomials and counts, never greedoids, so identity tests can tell
construction bugs from formula bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .carriers import (
    BinaryMatrix,
    Carrier,
    RootedDigraph,
    RootedGraph,
    UnrootedGraph,
    branching_greedoid,
    carrier_elements,
    require_connected,
    require_full_row_rank,
    require_root_connected,
    with_elements,
)
from .errors import (
    AttachmentInvariantError,
    DenominatorVanishesError,
    DivisionByZeroError,
    PreconditionError,
)
from .greedoid import (
    DEFAULT_MAX_ELEMENTS,
    Greedoid,
    _check_bound,
    _check_work,
    enumerate_feasible_sets,
    max_feasible_subset,
)
from .polynomials import BivariatePoly, rational
from .primitives import as_integer, join_edges, reach, renumber

Thickenable = Union[Carrier, Greedoid]


# ---------------------------------------------------------------------------
# thickening


def thicken(source: Thickenable, k: int) -> Thickenable:
    """Replace every element by k parallel copies; copy i of element e gets id e*k+i."""
    if (k := as_integer(k, "thickening factor")) < 1:
        raise PreconditionError("thickening factor must be at least 1")
    if isinstance(source, Greedoid):
        base = source
        n = base.size

        def oracle(mask: int) -> bool:
            projected = 0
            m = mask
            for e in range(n):
                chunk = m & ((1 << k) - 1)
                m >>= k
                if chunk:
                    if chunk & (chunk - 1):
                        return False  # two copies of one element
                    projected |= 1 << e
            return base.feasible_mask(projected)

        return Greedoid(n * k, oracle, name=f"{base.name}^{k}" if base.name else f"thickened^{k}")
    return with_elements(source, [e for e in carrier_elements(source) for _ in range(k)])


def predicted_thickening(
    tutte: BivariatePoly, rank: int, k: int, mode: str = "generic"
) -> BivariatePoly:
    """Closed-form Tutte polynomial of the k-thickening.

    generic mode: with s = 1 + y + ... + y^(k-1), substitute
    x -> (x + s - 1)/s and y -> y^k and multiply by s^rank; the divisions
    cancel because no x-degree exceeds the rank, so the result is an honest
    polynomial.  y_eq_minus1 mode: (x-1)^rank for even k, the y = -1
    restriction of the input for odd k.  y_eq_1 mode: k^rank times the y = 1
    restriction at x -> (x + k - 1)/k, again with cancelling denominators.
    """
    if (k := as_integer(k, "thickening factor")) < 1:
        raise PreconditionError("thickening factor must be at least 1")
    if rank < tutte.degree_x():
        raise PreconditionError("rank is smaller than the x-degree of the polynomial")
    x = BivariatePoly.x()
    y = BivariatePoly.y()
    if mode == "generic":
        s = BivariatePoly({(0, j): Fraction(1) for j in range(k)})
        xs = x + (s - 1)
        out = BivariatePoly.zero()
        for (i, j), c in tutte.terms.items():
            out = out + c * xs**i * s ** (rank - i) * BivariatePoly.monomial(0, k * j)
        return out
    if mode == "y_eq_minus1":
        if k % 2 == 0:
            return (x - 1) ** rank
        return tutte.at_y(-1)
    if mode == "y_eq_1":
        restricted = tutte.at_y(1)
        out = BivariatePoly.zero()
        for (i, _), c in restricted.terms.items():
            out = out + c * (x + (k - 1)) ** i * Fraction(k) ** (rank - i)
        return out
    raise PreconditionError(f"unknown mode {mode!r}")


def predicted_thickening_eval(tutte: BivariatePoly, rank: int, k: int, a, b) -> Fraction:
    """Point evaluation of the generic thickening rule.

    Divides by 1 + b + ... + b^(k-1); when that sum vanishes (b = -1 with k
    even) the rule does not apply and the caller must use the y_eq_minus1
    mode of :func:`predicted_thickening`.
    """
    if (k := as_integer(k, "thickening factor")) < 1:
        raise PreconditionError("thickening factor must be at least 1")
    a, b = rational(a), rational(b)
    s = sum((b**t for t in range(k)), Fraction(0))
    if s == 0:
        raise DivisionByZeroError(
            "thickening rule divides by 1 + y + ... + y^(k-1) = 0 at y = -1; "
            "use the y_eq_minus1 mode"
        )
    return s**rank * tutte.evaluate((a + s - 1) / s, b**k)


# ---------------------------------------------------------------------------
# attachments


@dataclass(frozen=True)
class AttachmentFunction:
    """Assigns to every feasible set a set of attachment slots in 1..rank.

    Valid attachment functions map each feasible set F to exactly rank(F)
    slots and respect closures: F1 inside the closure of F2 forces
    f(F1) inside f(F2).  Both conditions are enumerable; see
    :func:`attachment_violations`.
    """

    greedoid: Greedoid
    slots: Callable[[int], frozenset[int]]

    def __call__(self, feasible_set: int) -> frozenset[int]:
        return self.slots(feasible_set)

    def extended(self, subset: int) -> frozenset[int]:
        """Extension to arbitrary subsets via a maximal feasible subset.

        All maximal feasible subsets of a set share one slot image, so the
        greedy representative is as good as any.
        """
        return self.slots(max_feasible_subset(self.greedoid, subset))


def trivial_attachment_function(greedoid: Greedoid) -> AttachmentFunction:
    """f(F) = {1, ..., |F|}."""
    return AttachmentFunction(greedoid, lambda mask: frozenset(range(1, mask.bit_count() + 1)))


def branching_attachment_function(graph: RootedGraph) -> AttachmentFunction:
    """Slot i is active when the i-th non-root vertex is reached.

    Non-root vertices are numbered 1..rank in increasing vertex id, and a
    feasible edge set activates exactly the slots of the vertices in its
    root component.
    """
    require_connected(graph)
    non_root = [v for v in range(graph.vertex_count) if v != graph.root]
    label = {v: i + 1 for i, v in enumerate(non_root)}
    edges = graph.edges

    def slots(mask: int) -> frozenset[int]:
        reached = reach(graph.root, (edges[e] for e in range(len(edges)) if mask >> e & 1), False)
        return frozenset(label[v] for v in reached if v != graph.root)

    return AttachmentFunction(branching_greedoid(graph), slots)


def attachment_violations(
    func: AttachmentFunction, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> list[str]:
    """Check both defining conditions on every feasible set (pair).

    Closures are read off the enumerated family: for a feasible F, F+e has
    rank |F|+1 exactly when it is feasible, so F1 lies in the closure of F
    exactly when it holds no e with F+e feasible.  More than ``_MAX_WORK``
    pairs of feasible sets are refused before the first is checked.
    """
    g = func.greedoid
    rank = g.rank
    feasible = enumerate_feasible_sets(g, max_elements)
    _check_work(g.size, [(len(feasible) ** 2, "pairs of feasible sets")])
    family = set(feasible)
    problems = []
    checks = []  # (F, f(F), the elements e with F+e feasible)
    for f in feasible:
        image = func(f)
        if not image <= set(range(1, rank + 1)):
            problems.append(f"f({bin(f)}) = {sorted(image)} leaves the slot range 1..{rank}")
        if len(image) != f.bit_count():
            problems.append(f"f({bin(f)}) has {len(image)} slots but the set has rank {f.bit_count()}")
        grows = sum(1 << e for e in range(g.size) if not f >> e & 1 and (f | 1 << e) in family)
        checks.append((f, image, grows))
    for f1, image1, _ in checks:
        for f2, image2, grows2 in checks:
            if not f1 & grows2 and not image1 <= image2:
                problems.append(
                    f"{bin(f1)} lies in the closure of {bin(f2)} but "
                    f"f({bin(f1)}) is not contained in f({bin(f2)})"
                )
    return problems


def attach(
    g1: Greedoid,
    func: AttachmentFunction,
    g2: Greedoid,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> Greedoid:
    """Generic attachment: glue rank(g1) copies of g2 onto g1, guided by func.

    Ground set layout: g1's elements keep their ids, then copy i (1-based)
    of g2 occupies the block starting at size(g1) + (i-1)*size(g2).  A set is
    feasible when its g1-part is feasible, every copy part is feasible in
    g2, and copies outside the slots of the g1-part are empty.
    """
    if func.greedoid.size != g1.size:
        raise AttachmentInvariantError("attachment function belongs to a different greedoid")
    problems = attachment_violations(func, max_elements)
    if problems:
        raise AttachmentInvariantError("; ".join(problems[:3]))
    rho = g1.rank
    n1, n2 = g1.size, g2.size
    full1 = (1 << n1) - 1
    block = (1 << n2) - 1

    def oracle(mask: int) -> bool:
        m1 = mask & full1
        if not g1.feasible_mask(m1):
            return False
        active = func(m1)
        rest = mask >> n1
        for i in range(1, rho + 1):
            part = rest & block
            rest >>= n2
            if part and i not in active:
                return False
            if not g2.feasible_mask(part):
                return False
        return True

    return Greedoid(n1 + rho * n2, oracle, name="attachment")


def attach_graphs(base: RootedGraph, patch: RootedGraph) -> RootedGraph:
    """Identify the root of a copy of ``patch`` with every non-root vertex.

    Edge ids: the base's edges first, then each copy's edges in patch order,
    copies in increasing order of their attachment vertex.  This matches the
    block layout of the generic :func:`attach`.
    """
    return _attach(base, patch, RootedGraph, require_connected)


def attach_digraphs(base: RootedDigraph, patch: RootedDigraph) -> RootedDigraph:
    """Digraph form of the attachment; the base must be root-connected."""
    return _attach(base, patch, RootedDigraph, require_root_connected)


def _attach(base, patch, kind, require_reach):
    """The attachment of two carriers of ``kind``, the base checked by ``require_reach`` first."""
    if not (isinstance(base, kind) and isinstance(patch, kind)):
        raise PreconditionError("attachment needs two rooted graphs or two rooted digraphs")
    require_reach(base)
    non_root = [v for v in range(base.vertex_count) if v != base.root]
    elements = list(carrier_elements(base))
    next_vertex = base.vertex_count
    for host in non_root:
        mapping = {}
        for v in range(patch.vertex_count):
            if v == patch.root:
                mapping[v] = host
            else:
                mapping[v] = next_vertex
                next_vertex += 1
        elements += [(mapping[u], mapping[v]) for u, v in carrier_elements(patch)]
    return with_elements(base, elements, next_vertex)


def attach_carrier(base, patch):
    """Dispatch graph/digraph attachment on the base's type."""
    return (attach_graphs if isinstance(base, RootedGraph) else attach_digraphs)(base, patch)


@dataclass(frozen=True)
class AttachmentPrediction:
    """Point evaluator for the attachment identity.

    With t2 = T2(a, b) nonzero, the attachment evaluates to
    t2^rank1 * T1((a-1)^(rank2+1) * b^size2 / t2 + 1, b).
    """

    tutte1: BivariatePoly
    tutte2: BivariatePoly
    rank1: int
    rank2: int
    size2: int

    def evaluate(self, a, b) -> Fraction:
        a, b = rational(a), rational(b)
        t2 = self.tutte2.evaluate(a, b)
        if t2 == 0:
            raise DenominatorVanishesError(
                f"the attached structure's Tutte polynomial vanishes at ({a}, {b})"
            )
        inner = (a - 1) ** (self.rank2 + 1) * b**self.size2 / t2 + 1
        return t2**self.rank1 * self.tutte1.evaluate(inner, b)


def predicted_attachment(
    tutte1: BivariatePoly, tutte2: BivariatePoly, rank1: int, rank2: int, size2: int
) -> AttachmentPrediction:
    return AttachmentPrediction(tutte1, tutte2, rank1, rank2, size2)


# ---------------------------------------------------------------------------
# full-rank attachment


def full_rank_attach(g1: Greedoid, g2: Greedoid) -> Greedoid:
    """Second greedoid's elements open up only at full rank of the first.

    Ground layout: g1's elements keep their ids, g2's follow.  Feasible sets
    either live inside g1, or split into a basis of g1 plus a feasible set
    of g2.
    """
    rho1 = g1.rank
    n1 = g1.size
    full1 = (1 << n1) - 1

    def oracle(mask: int) -> bool:
        m1 = mask & full1
        m2 = mask >> n1
        if not g1.feasible_mask(m1):
            return False
        if m2 == 0:
            return True
        return m1.bit_count() == rho1 and g2.feasible_mask(m2)

    return Greedoid(n1 + g2.size, oracle, name="full-rank attachment")


def block_diag(m1: BinaryMatrix, m2: BinaryMatrix) -> BinaryMatrix:
    """Block-diagonal matrix; realizes the full-rank attachment for binary greedoids."""
    require_full_row_rank(m1)
    r1, c1 = m1.row_count, m1.col_count
    r2, c2 = m2.row_count, m2.col_count
    rows = [tuple(m1.bits[i]) + (0,) * c2 for i in range(r1)]
    rows += [(0,) * c1 + tuple(m2.bits[i]) for i in range(r2)]
    return BinaryMatrix(tuple(rows))


def predicted_full_rank(
    tutte1: BivariatePoly, tutte2: BivariatePoly, rank2: int, size2: int
) -> BivariatePoly:
    """T1 * (x-1)^rank2 * y^size2 + T1(1, y) * (T2 - (x-1)^rank2 * y^size2)."""
    shift = (BivariatePoly.x() - 1) ** rank2 * BivariatePoly.monomial(0, size2)
    return tutte1 * shift + tutte1.at_x(1) * (tutte2 - shift)


# ---------------------------------------------------------------------------
# stretches


def stretch_unrooted(graph: UnrootedGraph, k: int) -> UnrootedGraph:
    """Replace every non-loop edge by a k-edge path and every loop by a k-circuit."""
    if (k := as_integer(k, "stretch factor")) < 1:
        raise PreconditionError("stretch factor must be at least 1")
    edges = []
    next_vertex = graph.vertex_count
    for u, v in graph.edges:
        if k == 1:
            edges.append((u, v))
            continue
        inner = list(range(next_vertex, next_vertex + k - 1))
        next_vertex += k - 1
        chain = [u] + inner + [v if u != v else u]
        edges += list(zip(chain, chain[1:]))
    return UnrootedGraph(next_vertex, tuple(edges))


def count_subtrees(graph: UnrootedGraph, max_elements: int = DEFAULT_MAX_ELEMENTS) -> int:
    """Subtrees of an unrooted graph: single vertices plus tree edge sets."""
    return sum(count_subtrees_typed(graph, max_elements).values())


def count_subtrees_typed(
    graph: UnrootedGraph, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> dict[tuple[int, int], int]:
    """Subtree counts keyed by external-edge profile.

    Key (i, j) counts subtrees with i external edges touching the subtree in
    exactly one endpoint and j external edges with both endpoints inside.
    """
    m = graph.edge_count
    _check_bound(m, max_elements)
    _check_work(m, [(1 << m, "steps over edge subsets")])
    table: dict[tuple[int, int], int] = {}

    def record(vertices: set[int], edge_mask: int) -> None:
        i = j = 0
        for e, (u, v) in enumerate(graph.edges):
            if edge_mask >> e & 1:
                continue
            inside = (u in vertices) + (v in vertices)
            if u == v:
                inside = 2 if u in vertices else 0
            if inside == 1:
                i += 1
            elif inside == 2:
                j += 1
        table[(i, j)] = table.get((i, j), 0) + 1

    edges, touched = renumber(graph.edges)
    if graph.vertex_count > len(touched):  # each other vertex is a subtree with no edge near it
        table[(0, 0)] = graph.vertex_count - len(touched)
    for v in touched:
        record({v}, 0)
    for mask in range(1, 1 << m):
        forest = join_edges(list(range(len(touched))), edges, mask)
        if forest is None:
            continue
        vertices = {touched[v] for pair in forest for v in pair}
        if len(vertices) == len(forest) + 1:  # a forest with one component
            record(vertices, mask)
    return table


def predicted_stretch_subtrees(typed: dict[tuple[int, int], int], edge_count: int, k: int) -> int:
    """Subtree count of the k-stretch from the typed table of the base graph.

    Each base subtree with profile (i, j) lifts in k^i * C(k+1, 2)^j ways;
    subtrees avoiding all original vertices contribute k*(k-1)/2 per edge.
    """
    total = sum(
        count * k**i * (k * (k + 1) // 2) ** j for (i, j), count in typed.items()
    )
    return total + k * (k - 1) * edge_count // 2


# ---------------------------------------------------------------------------
# digon-stretch and bidirection


def digon_stretch(digraph: RootedDigraph, k: int) -> RootedDigraph:
    """Replace every arc by a tailed k-digon.

    An arc (u, v) becomes the arc chain u -> w1 <-> w2 <-> ... <-> wk <-> v
    with the first hop one-directional; per original arc the 2k+1 new arcs
    are ordered p0, p1, q1, ..., pk, qk where pi points forward and qi back.
    """
    if (k := as_integer(k, "digon-stretch factor")) < 1:
        raise PreconditionError("digon-stretch factor must be at least 1")
    require_root_connected(digraph)
    arcs: list[tuple[int, int]] = []
    next_vertex = digraph.vertex_count
    for u, v in digraph.arcs:
        chain = [u] + list(range(next_vertex, next_vertex + k)) + [v]
        next_vertex += k
        arcs.append((chain[0], chain[1]))
        for i in range(1, k + 1):
            arcs.append((chain[i], chain[i + 1]))
            arcs.append((chain[i + 1], chain[i]))
    return RootedDigraph(next_vertex, tuple(arcs), digraph.root)


def bidirect(graph: RootedGraph) -> RootedDigraph:
    """Replace every edge by a pair of oppositely directed arcs."""
    require_connected(graph)
    arcs = []
    for u, v in graph.edges:
        arcs.append((u, v))
        arcs.append((v, u))
    return RootedDigraph(graph.vertex_count, tuple(arcs), graph.root)
