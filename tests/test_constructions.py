from fractions import Fraction

import numpy as np
import pytest

from greedoid_tutte import (
    BivariatePoly,
    Greedoid,
    H0X,
    H0Y,
    LaurentPoly,
    RootedDigraph,
    RootedGraph,
    UnrootedGraph,
    attach,
    attach_digraphs,
    attach_graphs,
    bidirect,
    block_diag,
    branching_attachment_function,
    branching_greedoid,
    count_subtrees,
    count_subtrees_typed,
    demo_binary_matrix,
    digon_stretch,
    directed_path,
    directed_star,
    enumerate_feasible_sets,
    full_rank_attach,
    identity_matrix,
    mask_of,
    path_graph,
    predicted_attachment,
    predicted_full_rank,
    predicted_stretch_subtrees,
    predicted_thickening,
    predicted_thickening_eval,
    rank_of,
    standard_family,
    star_graph,
    stretch_unrooted,
    thicken,
    to_greedoid,
    trivial_attachment_function,
    tutte_eval,
    tutte_polynomial,
    tutte_restrict,
)
from greedoid_tutte.constructions import AttachmentFunction, attach_carrier, attachment_violations
from greedoid_tutte.errors import (
    AttachmentInvariantError,
    DenominatorVanishesError,
    DivisionByZeroError,
    FullRowRankError,
    GroundSetTooLargeError,
    NotConnectedError,
    NotRootConnectedError,
    PreconditionError,
)
from catalogues import (
    ATTACHMENT_POINTS,
    DIRECTED_TRIANGLE,
    SAMPLE_POINTS_Y_NOT_MINUS1,
    TAILED_DIGON,
    TRIANGLE,
    TWO_PARALLEL,
    connected_rooted_graph_catalogue,
    root_connected_digraphs,
)

THICKENING_CARRIERS = [
    ("star-1", star_graph(1)),
    ("path-2", path_graph(2)),
    ("two-parallel", TWO_PARALLEL),
    ("triangle", TRIANGLE),
    ("single-arc", RootedDigraph(2, ((0, 1),), 0)),
    ("dpath-2", directed_path(2)),
    ("tailed-digon", TAILED_DIGON),
    ("directed-triangle", DIRECTED_TRIANGLE),
    ("identity-2", identity_matrix(2)),
    ("demo-matrix", demo_binary_matrix()),
]


def test_thicken_sizes_and_k1_identity():
    for name, carrier in THICKENING_CARRIERS:
        g = to_greedoid(carrier)
        assert enumerate_feasible_sets(to_greedoid(thicken(carrier, 1))) == enumerate_feasible_sets(g), name


@pytest.mark.parametrize(
    "build, carrier",
    [
        (thicken, path_graph(2)),
        (thicken, to_greedoid(path_graph(2))),
        (stretch_unrooted, UnrootedGraph(2, ((0, 1),))),
        (digon_stretch, directed_path(2)),
        (standard_family, "path"),
    ],
)
def test_construction_factors_are_read_as_integers(build, carrier):
    """A factor is read as an integer: an integral Fraction or a numpy integer
    builds what the int builds, and 2.5 is refused as not an integer."""
    expected = build(carrier, 2)
    for k in (Fraction(2), np.int64(2)):
        built = build(carrier, k)
        if isinstance(expected, Greedoid):
            assert enumerate_feasible_sets(built) == enumerate_feasible_sets(expected)
        else:
            assert built == expected
    with pytest.raises(PreconditionError, match="is not an integer"):
        build(carrier, 2.5)


def test_thicken_generic_greedoid_matches_carrier():
    for name, carrier in THICKENING_CARRIERS:
        for k in (2, 3):
            thick_carrier = to_greedoid(thicken(carrier, k))
            thick_generic = thicken(to_greedoid(carrier), k)
            assert enumerate_feasible_sets(thick_carrier) == enumerate_feasible_sets(thick_generic), name


def test_thickening_identity_polynomial_and_points():
    for name, carrier in THICKENING_CARRIERS:
        g = to_greedoid(carrier)
        base = tutte_polynomial(g)
        for k in (1, 2, 3):
            actual = tutte_polynomial(to_greedoid(thicken(carrier, k)))
            assert actual == predicted_thickening(base, g.rank, k, "generic"), (name, k)
            for a, b in SAMPLE_POINTS_Y_NOT_MINUS1:
                assert actual.evaluate(a, b) == predicted_thickening_eval(base, g.rank, k, a, b), (name, k)
            assert actual.at_y(-1) == predicted_thickening(base, g.rank, k, "y_eq_minus1"), (name, k)
            assert actual.at_y(1) == predicted_thickening(base, g.rank, k, "y_eq_1"), (name, k)


def test_thickening_example_star():
    base = tutte_polynomial(to_greedoid(star_graph(1)))
    assert predicted_thickening(base, 1, 2) == BivariatePoly({(1, 0): 1, (0, 1): 1})


def test_thickening_minus1_cases():
    base = tutte_polynomial(to_greedoid(TRIANGLE))
    assert predicted_thickening(base, 2, 2, "y_eq_minus1") == (BivariatePoly.x() - 1) ** 2
    assert predicted_thickening(base, 2, 3, "y_eq_minus1") == base.at_y(-1)


def test_thickening_eval_rejects_vanishing_denominator():
    base = tutte_polynomial(to_greedoid(path_graph(2)))
    with pytest.raises(DivisionByZeroError):
        predicted_thickening_eval(base, 2, 2, Fraction(3), Fraction(-1))
    # odd k keeps the geometric sum nonzero at y = -1
    value = predicted_thickening_eval(base, 2, 3, Fraction(3), Fraction(-1))
    assert value == tutte_eval(to_greedoid(thicken(path_graph(2), 3)), 3, -1)



def test_thickening_predictions_read_their_factor_as_an_integer():
    """An integral Fraction predicts what the int predicts; 2.5 is not an
    integer and 0 is no thickening factor, so both are refused."""
    base = tutte_polynomial(path_graph(2))
    assert predicted_thickening(base, 2, Fraction(2)) == predicted_thickening(base, 2, 2)
    assert predicted_thickening_eval(base, 2, Fraction(2), 2, 3) == predicted_thickening_eval(base, 2, 2, 2, 3)
    for k, message in ((2.5, "is not an integer"), (0, "at least 1")):
        with pytest.raises(PreconditionError, match=message):
            predicted_thickening(base, 2, k)
        with pytest.raises(PreconditionError, match=message):
            predicted_thickening_eval(base, 2, k, 2, 3)

def test_trivial_attachment_function_examples():
    g = to_greedoid(path_graph(2))
    f = trivial_attachment_function(g)
    assert f(0) == frozenset()
    assert f(mask_of([0, 1])) == {1, 2}
    assert attachment_violations(f) == []


def test_branching_attachment_function_examples():
    f = branching_attachment_function(path_graph(2))
    assert f(mask_of([0])) == {1}  # middle vertex reached
    assert f(0) == frozenset()
    assert f(mask_of([0, 1])) == {1, 2}
    assert attachment_violations(f) == []


def test_attachment_function_invariants_rejected():
    g = to_greedoid(path_graph(2))
    broken = AttachmentFunction(g, lambda mask: frozenset(range(1, 2 * bin(mask).count("1") + 1)))
    assert attachment_violations(broken)
    with pytest.raises(AttachmentInvariantError):
        attach(g, broken, to_greedoid(star_graph(1)))


def test_attachment_function_that_breaks_closure_rejected():
    """Two parallel root edges e0, e1 and an edge e2 beyond them: each of
    {e0} and {e1} lies in the closure of the other, so slots {1} for {e0}
    and {2} for {e1} break the closure rule both ways."""
    g = branching_greedoid(RootedGraph(3, ((0, 1), (0, 1), (1, 2)), 0))
    slots = {0b0: frozenset(), 0b1: frozenset({1}), 0b10: frozenset({2})}
    func = AttachmentFunction(g, lambda mask: slots.get(mask, frozenset({1, 2})))
    assert attachment_violations(func) == [
        "0b1 lies in the closure of 0b10 but f(0b1) is not contained in f(0b10)",
        "0b10 lies in the closure of 0b1 but f(0b10) is not contained in f(0b1)",
    ]
    with pytest.raises(AttachmentInvariantError):
        attach(g, func, to_greedoid(star_graph(1)))


def test_attach_star_to_star_gives_path():
    g1 = to_greedoid(star_graph(1))
    combined = attach(g1, trivial_attachment_function(g1), g1)
    assert tutte_polynomial(combined).terms == {(2, 1): 1, (1, 1): -2, (1, 0): 1, (0, 1): 1}


def test_attach_empty_patch_is_identity():
    g = to_greedoid(path_graph(2))
    empty = to_greedoid(star_graph(0))
    combined = attach(g, trivial_attachment_function(g), empty)
    assert enumerate_feasible_sets(combined) == enumerate_feasible_sets(g)


def test_graph_and_generic_attachments_same_tutte():
    bases = [path_graph(1), path_graph(2), star_graph(1), star_graph(2)]
    patches = [path_graph(1), path_graph(2), star_graph(1), star_graph(2)]
    for base in bases:
        for patch in patches:
            graph_form = tutte_polynomial(to_greedoid(attach_graphs(base, patch)))
            g1, g2 = to_greedoid(base), to_greedoid(patch)
            trivial = tutte_polynomial(attach(g1, trivial_attachment_function(g1), g2))
            branching = tutte_polynomial(attach(g1, branching_attachment_function(base), g2))
            assert graph_form == trivial
            assert graph_form == branching


def test_attachment_identity_at_points():
    bases = [path_graph(1), path_graph(2), star_graph(1), star_graph(2)]
    patches = [path_graph(1), path_graph(2), star_graph(1), star_graph(2)]
    for base in bases:
        for patch in patches:
            g1, g2 = to_greedoid(base), to_greedoid(patch)
            combined = tutte_polynomial(to_greedoid(attach_graphs(base, patch)))
            prediction = predicted_attachment(
                tutte_polynomial(g1), tutte_polynomial(g2), g1.rank, g2.rank, g2.size
            )
            for a, b in ATTACHMENT_POINTS:
                assert combined.evaluate(a, b) == prediction.evaluate(a, b)


def test_attachment_prediction_example_and_zero_denominator():
    x = BivariatePoly.x()
    prediction = predicted_attachment(x, x, 1, 1, 1)
    expected = BivariatePoly({(2, 1): 1, (1, 1): -2, (1, 0): 1, (0, 1): 1})
    for a, b in ATTACHMENT_POINTS:
        assert prediction.evaluate(a, b) == expected.evaluate(a, b)
    with pytest.raises(DenominatorVanishesError):
        prediction.evaluate(0, 5)


def test_attachment_rank_law():
    for base, patch in [(path_graph(2), star_graph(1)), (star_graph(2), path_graph(2))]:
        g1, g2 = to_greedoid(base), to_greedoid(patch)
        func = branching_attachment_function(base)
        combined = attach(g1, func, g2)
        n1, n2, rho = g1.size, g2.size, g1.rank
        for subset in range(1 << combined.size):
            m0 = subset & ((1 << n1) - 1)
            expected = rank_of(g1, m0)
            active = func.extended(m0)
            for i in range(1, rho + 1):
                part = (subset >> (n1 + (i - 1) * n2)) & ((1 << n2) - 1)
                if i in active:
                    expected += rank_of(g2, part)
            assert rank_of(combined, subset) == expected


def test_attach_graphs_requires_connected():
    with pytest.raises(NotConnectedError):
        attach_graphs(RootedGraph(3, ((0, 1),), 0), star_graph(1))
    with pytest.raises(NotRootConnectedError):
        attach_digraphs(RootedDigraph(2, ((1, 0),), 0), directed_path(1))


@pytest.mark.parametrize(
    "base, patch",
    [
        (path_graph(2), directed_star(1)),
        (directed_path(2), star_graph(1)),
        (RootedGraph(3, ((0, 1),), 0), directed_star(1)),  # not connected either
        (RootedDigraph(2, ((1, 0),), 0), star_graph(1)),  # not root-connected either
    ],
)
def test_mixed_kind_attachments_refused(base, patch):
    """A base and a patch of different kinds are refused by each attachment
    before the base's connectivity is checked."""
    for attach_function in (attach_graphs, attach_digraphs, attach_carrier):
        with pytest.raises(PreconditionError) as refused:
            attach_function(base, patch)
        assert str(refused.value) == "attachment needs two rooted graphs or two rooted digraphs"


def test_full_rank_attach_examples():
    i1 = to_greedoid(identity_matrix(1))
    combined = full_rank_attach(i1, i1)
    assert tutte_polynomial(combined).terms == {(2, 1): 1, (1, 1): -2, (1, 0): 1, (0, 1): 1}
    empty = to_greedoid(identity_matrix(0))
    same = full_rank_attach(to_greedoid(demo_binary_matrix()), empty)
    assert tutte_polynomial(same) == tutte_polynomial(to_greedoid(demo_binary_matrix()))


def test_block_diag_matches_full_rank_attach():
    mats = [identity_matrix(1), identity_matrix(2), demo_binary_matrix()]
    for m1 in mats:
        for m2 in mats:
            stacked = to_greedoid(block_diag(m1, m2))
            generic = full_rank_attach(to_greedoid(m1), to_greedoid(m2))
            assert enumerate_feasible_sets(stacked) == enumerate_feasible_sets(generic)


def test_full_rank_identity_polynomials():
    mats = [identity_matrix(1), identity_matrix(2), demo_binary_matrix()]
    for m1 in mats:
        for m2 in mats:
            g1, g2 = to_greedoid(m1), to_greedoid(m2)
            actual = tutte_polynomial(to_greedoid(block_diag(m1, m2)))
            predicted = predicted_full_rank(
                tutte_polynomial(g1), tutte_polynomial(g2), g2.rank, g2.size
            )
            assert actual == predicted


def test_full_rank_prediction_trivial_patch():
    t1 = tutte_polynomial(to_greedoid(demo_binary_matrix()))
    assert predicted_full_rank(t1, BivariatePoly.constant(1), 0, 0) == t1


def test_identity_matrix_prediction_specialization():
    # Attaching the k-column identity block appends the path polynomial.
    t1 = tutte_polynomial(to_greedoid(demo_binary_matrix()))
    for k in (1, 2, 3):
        pk = tutte_polynomial(to_greedoid(path_graph(k)))
        actual = tutte_polynomial(to_greedoid(block_diag(demo_binary_matrix(), identity_matrix(k))))
        assert actual == predicted_full_rank(t1, pk, k, k)


def test_block_diag_requires_full_row_rank():
    with pytest.raises(FullRowRankError):
        block_diag(UnsingularPad(), identity_matrix(1))


def UnsingularPad():
    from greedoid_tutte import BinaryMatrix

    return BinaryMatrix(((1, 1), (1, 1)))


def test_stretch_subtree_formula():
    graphs = {
        "single-edge": UnrootedGraph(2, ((0, 1),)),
        "path-2": UnrootedGraph(3, ((0, 1), (1, 2))),
        "triangle": UnrootedGraph(3, ((0, 1), (0, 2), (1, 2))),
    }
    for name, graph in graphs.items():
        typed = count_subtrees_typed(graph)
        for k in (1, 2, 3):
            direct = count_subtrees(stretch(graph, k))
            assert direct == predicted_stretch_subtrees(typed, graph.edge_count, k), (name, k)


def stretch(graph, k):
    from greedoid_tutte import stretch_unrooted

    return stretch_unrooted(graph, k)


def test_stretch_typed_table_single_edge():
    table = count_subtrees_typed(UnrootedGraph(2, ((0, 1),)))
    assert table == {(1, 0): 2, (0, 0): 1}
    assert count_subtrees(stretch(UnrootedGraph(2, ((0, 1),)), 2)) == 6


def test_stretch_with_loop():
    graph = UnrootedGraph(2, ((0, 1), (1, 1)))
    typed = count_subtrees_typed(graph)
    for k in (1, 2, 3):
        assert count_subtrees(stretch(graph, k)) == predicted_stretch_subtrees(typed, 2, k)


def test_triangle_subtree_count():
    assert count_subtrees(UnrootedGraph(3, ((0, 1), (0, 2), (1, 2)))) == 9


def test_digon_stretch_shape():
    digraph = DIRECTED_TRIANGLE
    for k in (1, 2):
        stretched = digon_stretch(digraph, k)
        assert stretched.edge_count == digraph.edge_count * (2 * k + 1)
    with pytest.raises(NotRootConnectedError):
        digon_stretch(RootedDigraph(2, (), 0), 1)
    with pytest.raises(PreconditionError):
        digon_stretch(directed_path(1), 0)


def digon_identity_rhs(digraph, k):
    g = to_greedoid(digraph)
    size, rank = g.size, g.rank
    base = tutte_restrict(g, H0X())
    from math import comb

    terms = {}
    for e, c in base.terms.items():
        for j in range(e + 1):
            coeff = c * comb(e, j) * Fraction(k) ** (e - j) / Fraction(k + 1) ** e
            terms[j] = terms.get(j, Fraction(0)) + coeff
    return Fraction(k + 1) ** (size - rank) * LaurentPoly.monomial(k * size) * LaurentPoly(terms)


def test_digon_stretch_identity_exhaustive():
    digraphs = root_connected_digraphs(3)
    assert len(digraphs) > 50
    for digraph in digraphs:
        for k in (1, 2):
            lhs = tutte_restrict(to_greedoid(digon_stretch(digraph, k)), H0X())
            assert lhs == digon_identity_rhs(digraph, k), (digraph, k)


def test_digon_stretch_single_arc_example():
    lhs = tutte_restrict(to_greedoid(digon_stretch(RootedDigraph(2, ((0, 1),), 0), 1)), H0X())
    assert lhs.terms == {1: 1}  # T(D_1; 1, y) = y


def test_bidirect_identity_catalogue():
    for name, graph in connected_rooted_graph_catalogue():
        digraph = bidirect(graph)
        lhs = tutte_restrict(to_greedoid(digraph), H0Y())
        rhs = tutte_restrict(to_greedoid(graph), H0Y())
        assert lhs == rhs, name


def test_bidirect_examples():
    lhs = tutte_restrict(to_greedoid(bidirect(path_graph(2))), H0Y())
    assert lhs.terms == {2: 1, 1: -1, 0: 1}  # x^2 - x + 1
    for k in (1, 2, 3):
        lhs = tutte_restrict(to_greedoid(bidirect(star_graph(k))), H0Y())
        assert lhs.terms == {k: 1}
    single = bidirect(RootedGraph(1, (), 0))
    assert tutte_polynomial(to_greedoid(single)).terms == {(0, 0): 1}
    with pytest.raises(NotConnectedError):
        bidirect(RootedGraph(2, (), 0))


def test_typed_subtree_count_refuses_past_the_work_limit():
    """A 30-edge path within a bound of 100 elements still has 2^30 edge subsets."""
    path = UnrootedGraph(31, tuple((i, i + 1) for i in range(30)))
    with pytest.raises(GroundSetTooLargeError, match="2\\^30 steps over edge subsets"):
        count_subtrees_typed(path, max_elements=100)
