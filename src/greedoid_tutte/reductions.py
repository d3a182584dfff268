"""Desk-scale executable forms of the interpolation reductions.

Every pipeline here consumes a point oracle (an evaluator of the Tutte
polynomial at one fixed rational point), feeds it polynomially many
constructed carriers (thickenings or star attachments), rescales the
answers by the construction identities, and solves a Vandermonde system to
recover the coefficients of the Tutte polynomial restricted to a curve.
The recovered coefficients must agree with the direct restriction read off
the carrier's own subset profile; the test suite checks this coefficient by
coefficient, and checks every profile engine against subset enumeration.

Oracles are injected values, instantiated by default with the library's
exact evaluator :func:`.tutte.tutte_eval`, so tests can also inject
counterfeit oracles to exercise error paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .carriers import (
    BinaryMatrix,
    Carrier,
    RootedDigraph,
    RootedGraph,
    UnrootedGraph,
    carrier_elements,
    carrier_rank,
    directed_path,
    directed_star,
    graph_is_connected,
    identity_matrix,
    induced_carrier,
    path_graph,
    require_root_connected,
    star_graph,
)
from .constructions import attach_carrier, block_diag, digon_stretch, thicken
from .errors import (
    ForbiddenPointError,
    NotConnectedError,
    PreconditionError,
    ProbabilityRangeError,
)
from .exact import vandermonde_solve
from .greedoid import DEFAULT_MAX_ELEMENTS
from .polynomials import LaurentPoly, rational
from .primitives import reach
from .tutte import H0X, H0Y, tutte_eval, tutte_restrict

FAMILIES = ("graph", "digraph", "binary")


@dataclass
class PointOracle:
    """Evaluator of T(carrier; a, b) at one fixed rational point.

    Counts its invocations so tests can pin the polynomial query budget of
    each reduction.
    """

    family: str
    a: Fraction
    b: Fraction
    evaluate: Callable[[Carrier], Fraction]
    calls: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise PreconditionError(f"unknown family {self.family!r}")
        self.a = rational(self.a)
        self.b = rational(self.b)

    def __call__(self, carrier: Carrier) -> Fraction:
        self.calls += 1
        return self.evaluate(carrier)


def brute_force_oracle(
    family: str, a, b, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> PointOracle:
    """The default oracle: exact evaluation by :func:`.tutte.tutte_eval`.

    Each queried carrier takes that function's route: a thickening reads the
    profile of the carrier it thins to, so every thickening of one base
    shares the base's profile; a star attachment G ~ S_k of any base G,
    with distinct or repeated elements, strips back to G, its core, and its
    profile is made from G's by the leaf closed form, so every attachment
    of one base shares the base's profile too; and any other carrier takes
    its cheapest profile engine, subset enumeration among them.
    """
    a, b = rational(a), rational(b)
    return PointOracle(family, a, b, lambda carrier: tutte_eval(carrier, a, b, max_elements))


def _star_for(family: str, k: int):
    return directed_star(k) if family == "digraph" else star_graph(k)


def _path_for(family: str, k: int):
    return directed_path(k) if family == "digraph" else path_graph(k)


def interpolate_curve(
    oracle: PointOracle, carrier: Carrier, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> LaurentPoly:
    """Recover a curve restriction from point evaluations of thickenings.

    For an oracle at (a, b) with b not in {-1, 0} and (a, b) != (1, 1):

    * b = 1: queries the k-thickenings for k = 1..rank+1, divides by k^rank
      and interpolates T(x, 1) at the nodes (a+k-1)/k (a polynomial in x);
    * a = 1: queries k = 1..size+rank+1, divides by (1+b+...+b^(k-1))^rank
      and interpolates T(1, y) at the nodes b^k (exponents -rank..size);
    * otherwise: same k-range, interpolating the hyperbola restriction in
      z = y - 1 at the nodes b^k - 1.

    Outside the excluded points the nodes are pairwise distinct, and
    :func:`.exact.vandermonde_solve` refuses any that are not.
    """
    a, b = oracle.a, oracle.b
    if (a, b) == (1, 1):
        raise ForbiddenPointError("at (1, 1) all thickening evaluation points coincide")
    if b in (-1, 0):
        raise ForbiddenPointError(
            f"b = {b} is outside the thickening interpolation's case analysis"
        )
    size, rank = carrier.edge_count, carrier_rank(carrier)
    if b == 1:
        ks = range(1, rank + 2)
        nodes = [(a + k - 1) / k for k in ks]
        lowest = 0
    elif a == 1:
        ks = range(1, size + rank + 2)
        nodes = [b**k for k in ks]
        lowest = -rank
    else:
        ks = range(1, size + rank + 2)
        nodes = [b**k - 1 for k in ks]
        lowest = -rank
    values = []
    for k in ks:
        s = k if b == 1 else (b**k - 1) / (b - 1)  # 1 + b + ... + b^(k-1)
        values.append(oracle(thicken(carrier, k)) / s**rank)
    return vandermonde_solve(nodes, values, lowest)


def interpolate_line_y_minus1(
    oracle: PointOracle, carrier: Carrier, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> LaurentPoly:
    """Recover T(x, -1) as a polynomial in z = x - 1 from star attachments.

    Queries the star attachments carrier ~ S_k for k = 0..rank, divides by
    a^(k*rank) and interpolates at the nodes (a-1) * (-(a-1)/a)^k.  The
    points (1/2, -1) and (1, -1) are excluded (the nodes collide); an oracle
    at a = 0 is first converted into one at (2, -1) by pre-attaching a
    two-edge path, then the pipeline recurses.
    """
    a, b = oracle.a, oracle.b
    if b != -1:
        raise ForbiddenPointError(f"this pipeline needs an oracle on the line y = -1, got b = {b}")
    if oracle.family == "binary":
        raise PreconditionError(
            "star attachments are not defined for binary matrices; "
            "the y = -1 line for binary greedoids is covered by binary_identities_check"
        )
    if a in (Fraction(1, 2), Fraction(1)):
        raise ForbiddenPointError(
            f"a = {a} makes the attachment evaluation points collide"
        )
    if a == 0:
        pre = _path_for(oracle.family, 2)

        def rerouted(c: Carrier) -> Fraction:
            sign = Fraction(-1) ** carrier_rank(c)
            return sign * oracle(attach_carrier(c, pre))

        inner = PointOracle(oracle.family, Fraction(2), Fraction(-1), rerouted)
        return interpolate_line_y_minus1(inner, carrier, max_elements)
    rank = carrier_rank(carrier)
    nodes = []
    values = []
    for k in range(rank + 1):
        attached = attach_carrier(carrier, _star_for(oracle.family, k))
        values.append(oracle(attached) / a ** (k * rank))
        nodes.append((a - 1) ** (k + 1) * Fraction(-1) ** k / a**k)
    return vandermonde_solve(nodes, values, 0)


def _root_component(carrier: RootedGraph | RootedDigraph) -> RootedGraph | RootedDigraph | None:
    """The root component, relabelled, or None when some element has an end
    outside it; such an element is a greedoid loop."""
    elements = carrier_elements(carrier)
    keep = reach(carrier.root, elements, isinstance(carrier, RootedDigraph))
    if any(u not in keep or v not in keep for u, v in elements):
        return None
    return induced_carrier(carrier, keep)


def recover_point_1_0(oracle: PointOracle, carrier: RootedGraph | RootedDigraph) -> Fraction:
    """T(carrier; 1, 0) from a single oracle call at (a, 0), a != 0.

    Attaching one pendant edge at every non-root vertex multiplies the
    y = 0 evaluation by a^rank and moves x to 1.  A greedoid loop
    contributes a factor y, so the value is 0 when an element lies outside
    the root component; a loop inside it (a self-loop, an arc into the root,
    an arc whose head lies on every root path to its tail) stays a loop
    after the attachment, so the oracle's value is 0 already.
    """
    a, b = oracle.a, oracle.b
    if b != 0:
        raise ForbiddenPointError(f"this recovery needs an oracle on the line y = 0, got b = {b}")
    if a == 0:
        raise ForbiddenPointError("a = 0 does not determine T(1, 0)")
    if isinstance(carrier, BinaryMatrix):
        raise PreconditionError("star attachments are not defined for binary matrices")
    core = _root_component(carrier)
    if core is None:
        return Fraction(0)
    return oracle(attach_carrier(core, _star_for(oracle.family, 1))) / a ** carrier_rank(core)


def subtree_count_via_rooted(
    graph: UnrootedGraph, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> tuple[int, dict[int, int]]:
    """Count subtrees of a connected graph through rooted restrictions.

    For every root choice the y = 1 restriction lists, per size i, the
    number of trees through that root; summing over roots and dividing by
    i+1 (each i-edge subtree is counted once per vertex) yields the subtree
    counts by size.
    """
    if not graph_is_connected(graph):
        raise NotConnectedError("subtree counting needs a connected graph")
    rank = graph.vertex_count - 1  # a spanning tree, from every root
    per_size: dict[int, Fraction] = {}
    for root in range(graph.vertex_count):
        rooted = RootedGraph(graph.vertex_count, graph.edges, root)
        restricted = tutte_restrict(rooted, H0Y(), max_elements)
        shifted = restricted.compose_shift(1)  # coefficients of (x-1) powers
        for exp, coeff in shifted.terms.items():
            size = rank - exp
            per_size[size] = per_size.get(size, Fraction(0)) + coeff
    table: dict[int, int] = {}
    for size, total in sorted(per_size.items()):
        value = total / (size + 1)
        if value.denominator != 1:
            raise AssertionError("per-root subtree totals must divide evenly")
        if value:
            table[size] = int(value)
    return sum(table.values()), table


def reliability_identity(
    digraph: RootedDigraph, p, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> tuple[Fraction, Fraction]:
    """Probability that random arc deletion keeps the digraph root-connected.

    Returns the pair (direct sum over surviving arc sets, reconstruction
    p^(|E|-rank) * (1-p)^rank * T(D; 1, 1/p)); the two must agree.
    """
    p = rational(p)
    if not 0 < p < 1:
        raise ProbabilityRangeError(f"need 0 < p < 1, got {p}")
    require_root_connected(digraph)
    # T(1, 1 + t) counts the spanning arc sets, of size rank + s, by surplus s in t
    spanning = tutte_restrict(digraph, H0X(), max_elements).compose_shift(1).terms
    size, rank = digraph.edge_count, carrier_rank(digraph)
    direct = sum(count * p ** (size - rank - s) * (1 - p) ** (rank + s) for s, count in spanning.items())
    reconstruction = p ** (size - rank) * (1 - p) ** rank * tutte_eval(
        digraph, 1, 1 / p, max_elements
    )
    return direct, reconstruction


def digon_reduction_check(
    digraph: RootedDigraph, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> bool:
    """Check T(D_2; 1, -1) = 3^(|E|-rank) * T(D; 1, 1/3) from the two digraphs' profiles."""
    size, rank = digraph.edge_count, carrier_rank(digraph)
    lhs = tutte_eval(digon_stretch(digraph, 2), 1, -1, max_elements)
    rhs = Fraction(3) ** (size - rank) * tutte_eval(digraph, 1, Fraction(1, 3), max_elements)
    return lhs == rhs


DEFAULT_BINARY_SAMPLE = (
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(-1),
    Fraction(5, 3),
)


def binary_identities_check(
    matrix: BinaryMatrix,
    a_values=DEFAULT_BINARY_SAMPLE,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> dict:
    """Check the two block-diagonal identities for a full-row-rank matrix.

    At every sampled a: T(M block I1; a, 0) = a * T(M; 1, 0) and
    (2a-1) * T(M; 1, -1) = T(M block I1; a, -1) + (a-1) * T(M; a, -1).
    :func:`.constructions.block_diag` refuses any other matrix before any evaluation.
    """
    extended = block_diag(matrix, identity_matrix(1))
    t_m_10 = tutte_eval(matrix, 1, 0, max_elements)
    t_m_1m1 = tutte_eval(matrix, 1, -1, max_elements)
    report: dict = {"values": {}, "ok": True}
    for raw in a_values:
        a = rational(raw)
        y0 = tutte_eval(extended, a, 0, max_elements) == a * t_m_10
        ym1 = (2 * a - 1) * t_m_1m1 == tutte_eval(extended, a, -1, max_elements) + (
            a - 1
        ) * tutte_eval(matrix, a, -1, max_elements)
        report["values"][str(a)] = {"y0": y0, "yminus1": ym1}
        report["ok"] = report["ok"] and y0 and ym1
    return report
