from fractions import Fraction

import pytest

from greedoid_tutte import (
    BinaryMatrix,
    H0X,
    H0Y,
    HAlpha,
    LineY,
    PointOracle,
    RootedDigraph,
    RootedGraph,
    UnrootedGraph,
    attach_digraphs,
    binary_identities_check,
    brute_force_oracle,
    count_subtrees,
    demo_binary_matrix,
    digon_reduction_check,
    directed_path,
    directed_star,
    identity_matrix,
    interpolate_curve,
    interpolate_line_y_minus1,
    path_graph,
    recover_point_1_0,
    reliability_identity,
    star_graph,
    subtree_count_via_rooted,
    thicken,
    to_greedoid,
    tutte_eval,
    tutte_polynomial,
    tutte_restrict,
)
from greedoid_tutte import reductions
from greedoid_tutte.errors import (
    ForbiddenPointError,
    FullRowRankError,
    NotConnectedError,
    PreconditionError,
    ProbabilityRangeError,
)

from catalogues import DIRECTED_TRIANGLE, TAILED_DIGON, TRIANGLE, seeded_rooted_graph

GRAPH_CARRIERS = [path_graph(1), path_graph(2), star_graph(2), TRIANGLE, path_graph(3)]
DIGRAPH_CARRIERS = [
    RootedDigraph(2, ((0, 1),), 0),
    directed_path(2),
    directed_star(2),
    DIRECTED_TRIANGLE,
    directed_path(3),
]
BINARY_CARRIERS = [
    identity_matrix(1),
    identity_matrix(2),
    BinaryMatrix(((1, 1),)),
    BinaryMatrix(((1, 0, 1), (0, 1, 1))),
    identity_matrix(3),
]

ALL_FAMILIES = [
    ("graph", GRAPH_CARRIERS),
    ("digraph", DIGRAPH_CARRIERS),
    ("binary", BINARY_CARRIERS),
]


def expected_calls_curve(carrier, b) -> int:
    g = to_greedoid(carrier)
    return g.rank + 1 if b == 1 else g.size + g.rank + 1


@pytest.mark.parametrize("a,b", [(Fraction(3), Fraction(2)), (Fraction(1), Fraction(3)), (Fraction(3), Fraction(1))])
def test_interpolate_curve_round_trips(a, b):
    for family, carriers in ALL_FAMILIES:
        for carrier in carriers:
            oracle = brute_force_oracle(family, a, b, max_elements=24)
            recovered = interpolate_curve(oracle, carrier, max_elements=24)
            if b == 1:
                curve = H0Y()
            elif a == 1:
                curve = H0X()
            else:
                curve = HAlpha((a - 1) * (b - 1))
            assert recovered == tutte_restrict(to_greedoid(carrier), curve), (family, carrier)
            assert oracle.calls == expected_calls_curve(carrier, b), (family, carrier)


def test_interpolate_curve_more_points():
    carrier = path_graph(2)
    for a, b in [(Fraction(-1), Fraction(2)), (Fraction(1, 2), Fraction(3)), (Fraction(2), Fraction(1, 2))]:
        oracle = brute_force_oracle("graph", a, b, max_elements=24)
        recovered = interpolate_curve(oracle, carrier, max_elements=24)
        assert recovered == tutte_restrict(to_greedoid(carrier), HAlpha((a - 1) * (b - 1)))


def test_interpolate_curve_forbidden_points():
    for a, b in [(1, 1), (3, 0), (3, -1)]:
        oracle = brute_force_oracle("graph", a, b)
        with pytest.raises(ForbiddenPointError):
            interpolate_curve(oracle, path_graph(2))


def test_interpolate_line_y_minus1_round_trips():
    for family, carriers in [("graph", GRAPH_CARRIERS), ("digraph", DIGRAPH_CARRIERS)]:
        for carrier in carriers:
            oracle = brute_force_oracle(family, 3, -1, max_elements=24)
            recovered = interpolate_line_y_minus1(oracle, carrier, max_elements=24)
            assert recovered == tutte_restrict(to_greedoid(carrier), LineY(Fraction(-1))), (family, carrier)
            assert oracle.calls == to_greedoid(carrier).rank + 1, (family, carrier)


def test_interpolate_line_y_minus1_zero_reroute():
    for family, carrier in [("graph", TRIANGLE), ("digraph", directed_path(2))]:
        oracle = brute_force_oracle(family, 0, -1, max_elements=24)
        recovered = interpolate_line_y_minus1(oracle, carrier, max_elements=24)
        assert recovered == tutte_restrict(to_greedoid(carrier), LineY(Fraction(-1)))


def test_interpolate_line_y_minus1_forbidden():
    for a in (Fraction(1, 2), Fraction(1)):
        oracle = brute_force_oracle("graph", a, -1)
        with pytest.raises(ForbiddenPointError):
            interpolate_line_y_minus1(oracle, path_graph(2))
    oracle = brute_force_oracle("graph", 3, 2)
    with pytest.raises(ForbiddenPointError):
        interpolate_line_y_minus1(oracle, path_graph(2))
    oracle = brute_force_oracle("binary", 3, -1)
    with pytest.raises(PreconditionError):
        interpolate_line_y_minus1(oracle, identity_matrix(2))


def test_counterfeit_oracle_error_paths():
    counterfeit = PointOracle("graph", Fraction(1), Fraction(1), lambda carrier: Fraction(0))
    with pytest.raises(ForbiddenPointError):
        interpolate_curve(counterfeit, path_graph(2))
    with pytest.raises(PreconditionError):
        PointOracle("matroid", Fraction(1), Fraction(1), lambda carrier: Fraction(0))


def test_recover_point_1_0():
    oracle = brute_force_oracle("graph", 2, 0)
    assert recover_point_1_0(oracle, TRIANGLE) == 2
    assert recover_point_1_0(oracle, path_graph(3)) == 1
    scattered = RootedGraph(4, ((0, 1), (2, 3)), 0)
    assert recover_point_1_0(oracle, scattered) == 0
    assert recover_point_1_0(oracle, scattered) == tutte_eval(to_greedoid(scattered), 1, 0)
    doracle = brute_force_oracle("digraph", 3, 0)
    assert recover_point_1_0(doracle, directed_path(2)) == 1
    with pytest.raises(ForbiddenPointError):
        recover_point_1_0(brute_force_oracle("graph", 0, 0), TRIANGLE)
    with pytest.raises(ForbiddenPointError):
        recover_point_1_0(brute_force_oracle("graph", 2, 1), TRIANGLE)


def test_recover_point_1_0_matches_direct_everywhere():
    for carrier in GRAPH_CARRIERS:
        for a in (Fraction(2), Fraction(-1), Fraction(1, 3)):
            oracle = brute_force_oracle("graph", a, 0)
            assert recover_point_1_0(oracle, carrier) == tutte_eval(to_greedoid(carrier), 1, 0)


def test_subtree_count_via_rooted():
    triangle = UnrootedGraph(3, ((0, 1), (0, 2), (1, 2)))
    total, table = subtree_count_via_rooted(triangle)
    assert (total, table) == (9, {0: 3, 1: 3, 2: 3})
    assert total == count_subtrees(triangle)
    k2 = UnrootedGraph(2, ((0, 1),))
    assert subtree_count_via_rooted(k2)[0] == 3
    single = UnrootedGraph(1, ())
    assert subtree_count_via_rooted(single)[0] == 1
    for graph in [UnrootedGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0))), UnrootedGraph(3, ((0, 1), (1, 2)))]:
        assert subtree_count_via_rooted(graph)[0] == count_subtrees(graph)
    with pytest.raises(NotConnectedError):
        subtree_count_via_rooted(UnrootedGraph(2, ()))


def test_reliability_identity_examples():
    single = RootedDigraph(2, ((0, 1),), 0)
    assert reliability_identity(single, Fraction(1, 3)) == (Fraction(2, 3), Fraction(2, 3))
    two_path = directed_path(2)
    assert reliability_identity(two_path, Fraction(1, 2)) == (Fraction(1, 4), Fraction(1, 4))
    parallel = RootedDigraph(2, ((0, 1), (0, 1)), 0)
    assert reliability_identity(parallel, Fraction(1, 2)) == (Fraction(3, 4), Fraction(3, 4))


def test_reliability_identity_holds_generally():
    digraphs = [TAILED_DIGON, DIRECTED_TRIANGLE, directed_star(3)]
    for digraph in digraphs:
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            direct, reconstructed = reliability_identity(digraph, p)
            assert direct == reconstructed
    with pytest.raises(ProbabilityRangeError):
        reliability_identity(TAILED_DIGON, Fraction(1))


def test_digon_reduction_check():
    assert digon_reduction_check(RootedDigraph(2, ((0, 1),), 0))
    assert digon_reduction_check(directed_path(2))
    assert digon_reduction_check(RootedDigraph(2, ((0, 1), (0, 1)), 0))
    assert digon_reduction_check(DIRECTED_TRIANGLE)


def test_binary_identities():
    for matrix in (identity_matrix(2), demo_binary_matrix()):
        report = binary_identities_check(matrix)
        assert report["ok"], report
        assert "1/2" in report["values"]  # the 2a-1 = 0 sample stays checkable
    with pytest.raises(FullRowRankError):
        binary_identities_check(BinaryMatrix(((1, 1), (1, 1))))


def test_binary_identities_refuse_before_any_evaluation(monkeypatch):
    def evaluated(*args):
        raise AssertionError("evaluated before the full-row-rank check")

    monkeypatch.setattr(reductions, "tutte_eval", evaluated)
    with pytest.raises(FullRowRankError):
        binary_identities_check(BinaryMatrix(((1, 1), (1, 1))))


def test_digraph_line_y2_special_attachments():
    # Pre-attaching a two-arc path converts an oracle on the line y = 2 at
    # the exceptional abscissas into evaluations elsewhere on that line:
    # at a = 0 the factor is T(path; 0, 2)^rank = 2^rank and the new
    # abscissa is -1; at a = 2/3 the factor is (8/9)^rank and the new
    # abscissa is 5/6.
    p2 = directed_path(2)
    t2 = tutte_polynomial(to_greedoid(p2))
    assert t2.evaluate(0, 2) == 2
    assert t2.evaluate(Fraction(2, 3), 2) == Fraction(8, 9)
    for digraph in (directed_path(2), DIRECTED_TRIANGLE, directed_star(2)):
        g = to_greedoid(digraph)
        rank = g.rank
        attached = to_greedoid(attach_digraphs(digraph, p2))
        assert tutte_eval(attached, 0, 2) == Fraction(2) ** rank * tutte_eval(g, -1, 2)
        assert tutte_eval(attached, Fraction(2, 3), 2) == Fraction(8, 9) ** rank * tutte_eval(
            g, Fraction(5, 6), 2
        )


def test_recover_point_1_0_is_one_query_on_a_long_path():
    """No step but the oracle's own depends on the element count."""
    for family, carrier in [("graph", path_graph(300)), ("digraph", directed_path(300))]:
        counterfeit = PointOracle(family, Fraction(2), Fraction(0), lambda carrier: Fraction(7))
        assert recover_point_1_0(counterfeit, carrier) == Fraction(7, 2**300)
        assert counterfeit.calls == 1


def test_recover_point_1_0_rejects_matrices():
    oracle = brute_force_oracle("binary", 2, 0)
    for matrix in (BinaryMatrix(((1, 0), (0, 0))), identity_matrix(2)):
        with pytest.raises(PreconditionError):
            recover_point_1_0(oracle, matrix)
    assert oracle.calls == 0


def test_reliability_identity_on_a_thickening():
    """24 arcs in three classes: the counts come from the class profile."""
    thick = thicken(DIRECTED_TRIANGLE, 8)
    assert thick.edge_count == 24
    for p in (Fraction(1, 3), Fraction(1, 2)):
        direct, reconstructed = reliability_identity(thick, p, max_elements=24)
        assert direct == reconstructed


@pytest.mark.parametrize("vertices,edges", [(8, 20), (10, 30), (12, 40)])
def test_curve_on_bases_with_repeated_edges(vertices, edges):
    """Every query thins to the base's classes and reads one base profile;
    the 12-vertex base's top query has 2080 elements."""
    base = seeded_rooted_graph(vertices, edges, 7)
    oracle = brute_force_oracle("graph", 3, Fraction(3, 2), 10**9)
    recovered = interpolate_curve(oracle, base, 10**9)
    assert oracle.calls == edges + vertices
    assert recovered == tutte_restrict(base, HAlpha(Fraction(1)), edges)


def test_line_y_minus1_on_a_base_with_repeated_edges():
    """The star attachments S_k, k <= 7, make every non-root vertex a cut
    vertex with k edges below it; the largest query has 20 + 7 * 7 elements."""
    base = seeded_rooted_graph(8, 20, 7)
    oracle = brute_force_oracle("graph", 3, -1, 69)
    recovered = interpolate_line_y_minus1(oracle, base, 69)
    assert oracle.calls == 8
    assert recovered == tutte_restrict(base, LineY(Fraction(-1)))

