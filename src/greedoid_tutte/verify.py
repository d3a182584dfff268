"""Built-in identity suites for the ``verify`` CLI subcommand.

Each suite runs one construction identity over a small built-in catalogue
(optionally extended with a user-supplied carrier of a kind the suite
takes and meeting its construction's precondition, see :func:`run_suite`)
and reports one
(name, ok, detail) row per instance.  Failures carry the witnessing
instance and point in the detail string; an instance over the element
bound is skipped (ok is None) and the other rows still run.

The library computes some constructions by the identities these suites
check, so a suite computes its construction side by subset enumeration
(``to_greedoid``), the reference every engine is tested against.  The
thickening suite does so up to the element bound; the attachment, digon and
bidirect suites up to :data:`ENUMERATED_ELEMENTS`, and past it they compare
the library's own answer with the identity, noting so in a passing row.
"""

from __future__ import annotations

from fractions import Fraction

from .carriers import (
    BinaryMatrix,
    RootedDigraph,
    RootedGraph,
    UnrootedGraph,
    carrier_rank,
    demo_binary_matrix,
    directed_path,
    directed_star,
    identity_matrix,
    path_graph,
    require_connected,
    require_full_row_rank,
    require_root_connected,
    star_graph,
    to_greedoid,
)
from .constructions import (
    attach_graphs,
    bidirect,
    block_diag,
    count_subtrees,
    count_subtrees_typed,
    digon_stretch,
    predicted_attachment,
    predicted_full_rank,
    predicted_stretch_subtrees,
    predicted_thickening,
    stretch_unrooted,
    thicken,
)
from .errors import DenominatorVanishesError, GroundSetTooLargeError, PreconditionError
from .greedoid import DEFAULT_MAX_ELEMENTS
from .polynomials import LaurentPoly
from .tutte import H0X, H0Y, tutte_polynomial, tutte_restrict

# (name, ok, detail); ok is None for an instance skipped over the element
# bound, whose message is then the detail.
Row = tuple[str, bool | None, str]

# Constructions of at most this many elements are enumerated, 2^16 subsets.
ENUMERATED_ELEMENTS = 16

SAMPLE_POINTS = [
    (Fraction(3), Fraction(2)),
    (Fraction(-1), Fraction(3)),
    (Fraction(1, 2), Fraction(-2)),
    (Fraction(5, 3), Fraction(2, 5)),
    (Fraction(0), Fraction(4)),
    (Fraction(2), Fraction(-3)),
]


def _thickening_catalogue():
    return [
        ("star-1", star_graph(1)),
        ("path-2", path_graph(2)),
        ("triangle", RootedGraph(3, ((0, 1), (0, 2), (1, 2)), 0)),
        ("directed-path-2", directed_path(2)),
        ("directed-star-2", directed_star(2)),
        ("identity-2", identity_matrix(2)),
        ("demo-matrix", demo_binary_matrix()),
    ]


def _rows(label: str, instances, check, max_elements: int) -> list[Row]:
    """One row per (name, instance), with check(instance, max_elements)
    giving (ok, detail); an instance over the element bound is skipped."""
    rows: list[Row] = []
    for name, instance in instances:
        try:
            ok, detail = check(instance, max_elements)
        except GroundSetTooLargeError as exc:
            ok, detail = None, str(exc)
        rows.append((f"{label} {name}", ok, detail))
    return rows


def _thickening_ok(carrier, max_elements: int) -> tuple[bool, str]:
    """Each thickening enumerated over every element against the identity,
    since the library's own profile of a thickening is the identity."""
    rank = carrier_rank(carrier)
    base = tutte_polynomial(carrier, max_elements)
    for k in (1, 2, 3):
        actual = tutte_polynomial(to_greedoid(thicken(carrier, k)), max_elements)
        if actual != predicted_thickening(base, rank, k, "generic"):
            return False, f"k={k} generic rule"
        if actual.at_y(-1) != predicted_thickening(base, rank, k, "y_eq_minus1"):
            return False, f"k={k} y=-1 rule"
        if actual.at_y(1) != predicted_thickening(base, rank, k, "y_eq_1"):
            return False, f"k={k} y=1 rule"
    return True, ""


def suite_thickening(extra=None, max_elements: int = DEFAULT_MAX_ELEMENTS) -> list[Row]:
    catalogue = _thickening_catalogue()
    if extra is not None:
        catalogue.append(("user", extra))
    return _rows("thickening", catalogue, _thickening_ok, max_elements)


def _enumerated(carrier):
    """The carrier's greedoid, enumerated subset by subset, when it has at
    most ``ENUMERATED_ELEMENTS`` elements, and otherwise the carrier."""
    return to_greedoid(carrier) if carrier.edge_count <= ENUMERATED_ELEMENTS else carrier


def _passed(*constructions) -> tuple[bool, str]:
    """A passing row, noted when some construction was not enumerated."""
    enumerated = max(c.edge_count for c in constructions) <= ENUMERATED_ELEMENTS
    return True, "" if enumerated else "checked against the identity only"


def _attachment_ok(pair, max_elements: int) -> tuple[bool, str]:
    base, patch = pair
    attached = attach_graphs(base, patch)
    combined = tutte_polynomial(_enumerated(attached), max_elements)
    prediction = predicted_attachment(
        tutte_polynomial(base, max_elements),
        tutte_polynomial(patch, max_elements),
        carrier_rank(base),
        carrier_rank(patch),
        patch.edge_count,
    )
    for a, b in SAMPLE_POINTS:
        try:
            expected = prediction.evaluate(a, b)
        except DenominatorVanishesError:
            continue
        if combined.evaluate(a, b) != expected:
            return False, f"point ({a}, {b})"
    return _passed(attached)


def suite_attachment(extra=None, max_elements: int = DEFAULT_MAX_ELEMENTS) -> list[Row]:
    bases = [("path-1", path_graph(1)), ("path-2", path_graph(2)), ("star-2", star_graph(2))]
    if extra is not None:
        bases.append(("user", extra))
    patches = [("star-1", star_graph(1)), ("path-2", path_graph(2))]
    pairs = [(f"{bname}~{pname}", (base, patch)) for bname, base in bases for pname, patch in patches]
    return _rows("attachment", pairs, _attachment_ok, max_elements)


def _fullrank_ok(pair, max_elements: int) -> tuple[bool, str]:
    m1, m2 = pair
    actual = tutte_polynomial(block_diag(m1, m2), max_elements)
    predicted = predicted_full_rank(
        tutte_polynomial(m1, max_elements),
        tutte_polynomial(m2, max_elements),
        carrier_rank(m2),
        m2.edge_count,
    )
    return actual == predicted, ""


def suite_fullrank(extra=None, max_elements: int = DEFAULT_MAX_ELEMENTS) -> list[Row]:
    mats = [("identity-1", identity_matrix(1)), ("identity-2", identity_matrix(2)), ("demo", demo_binary_matrix())]
    if extra is not None:
        mats.append(("user", extra))
    pairs = [(f"{name1}|{name2}", (m1, m2)) for name1, m1 in mats for name2, m2 in mats]
    return _rows("fullrank", pairs, _fullrank_ok, max_elements)


def _stretch_ok(graph, max_elements: int) -> tuple[bool, str]:
    typed = count_subtrees_typed(graph, max_elements)
    for k in (1, 2, 3):
        direct = count_subtrees(stretch_unrooted(graph, k), max_elements)
        if direct != predicted_stretch_subtrees(typed, graph.edge_count, k):
            return False, f"k={k}"
    return True, ""


def suite_stretch(extra=None, max_elements: int = DEFAULT_MAX_ELEMENTS) -> list[Row]:
    graphs = [
        ("single-edge", UnrootedGraph(2, ((0, 1),))),
        ("path-2", UnrootedGraph(3, ((0, 1), (1, 2)))),
        ("triangle", UnrootedGraph(3, ((0, 1), (0, 2), (1, 2)))),
    ]
    if extra is not None:
        graphs.append(("user", extra))
    return _rows("stretch", graphs, _stretch_ok, max_elements)


def _digon_ok(digraph, max_elements: int) -> tuple[bool, str]:
    size, rank = digraph.edge_count, carrier_rank(digraph)
    stretched = [digon_stretch(digraph, k) for k in (1, 2)]
    for k, stretch in enumerate(stretched, 1):
        lhs = tutte_restrict(_enumerated(stretch), H0X(), max_elements)
        base = tutte_restrict(digraph, H0X(), max_elements)
        # substitute y -> (y + k)/(k + 1) as an exact polynomial
        scaled = LaurentPoly({e: c / (k + 1) ** e for e, c in base.terms.items()})
        rhs = (
            Fraction(k + 1) ** (size - rank)
            * LaurentPoly.monomial(k * size)
            * scaled.compose_shift(k)
        )
        if lhs != rhs:
            return False, f"k={k}"
    return _passed(*stretched)


def suite_digon(extra=None, max_elements: int = DEFAULT_MAX_ELEMENTS) -> list[Row]:
    digraphs = [
        ("single-arc", RootedDigraph(2, ((0, 1),), 0)),
        ("directed-path-2", directed_path(2)),
        ("directed-cycle-2", RootedDigraph(2, ((0, 1), (1, 0)), 0)),
        ("directed-star-2", directed_star(2)),
    ]
    if extra is not None:
        digraphs.append(("user", extra))
    return _rows("digon-stretch", digraphs, _digon_ok, max_elements)


def _bidirect_ok(graph, max_elements: int) -> tuple[bool, str]:
    both = bidirect(graph)
    if tutte_restrict(_enumerated(both), H0Y(), max_elements) != tutte_restrict(graph, H0Y(), max_elements):
        return False, ""
    return _passed(both)


def suite_bidirect(extra=None, max_elements: int = DEFAULT_MAX_ELEMENTS) -> list[Row]:
    graphs = [
        ("path-2", path_graph(2)),
        ("star-3", star_graph(3)),
        ("triangle", RootedGraph(3, ((0, 1), (0, 2), (1, 2)), 0)),
        ("two-parallel", RootedGraph(2, ((0, 1), (0, 1)), 0)),
    ]
    if extra is not None:
        graphs.append(("user", extra))
    return _rows("bidirect", graphs, _bidirect_ok, max_elements)


def _any(carrier) -> None:
    """The precondition of a suite that takes every carrier of its kinds."""


# Each suite with the carrier kinds it can take as its extra instance, and the
# precondition its construction puts on that instance: raising
# PreconditionError, it names what the instance lacks.
_SUITES = {
    "thickening": (suite_thickening, (RootedGraph, RootedDigraph, BinaryMatrix), _any),
    "attachment": (suite_attachment, (RootedGraph,), require_connected),
    "fullrank": (suite_fullrank, (BinaryMatrix,), require_full_row_rank),
    "stretch": (suite_stretch, (UnrootedGraph,), _any),
    "digon": (suite_digon, (RootedDigraph,), require_root_connected),
    "bidirect": (suite_bidirect, (RootedGraph,), require_connected),
}


def run_suite(name: str, extra=None, max_elements: int = DEFAULT_MAX_ELEMENTS) -> list[Row]:
    """Rows of one suite, or of every suite for ``"all"``.

    The extra carrier goes to each selected suite that takes its kind and
    whose precondition it meets; when none takes its kind,
    :class:`PreconditionError` is raised rather than ignoring it.  A suite
    run alone raises its precondition's error too, while under ``"all"`` a
    suite whose precondition the carrier fails runs its built-in rows, as
    one that does not take its kind does.
    """
    chosen = [_SUITES[name]] if name != "all" else list(_SUITES.values())
    if extra is not None and not any(isinstance(extra, kinds) for _, kinds, _ in chosen):
        raise PreconditionError(f"suite {name!r} takes no {type(extra).__name__}")
    rows: list[Row] = []
    for suite, kinds, require in chosen:
        takes = isinstance(extra, kinds)
        if takes:
            try:
                require(extra)
            except PreconditionError:
                if name != "all":
                    raise
                takes = False
        rows += suite(extra if takes else None, max_elements)
    return rows
