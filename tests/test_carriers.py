import re
import time
from fractions import Fraction

import numpy as np
import pytest

from greedoid_tutte import (
    BinaryMatrix,
    count_subtrees_typed,
    RootedDigraph,
    RootedGraph,
    UnrootedGraph,
    demo_binary_matrix,
    enumerate_bases,
    enumerate_feasible_sets,
    identity_matrix,
    mask_of,
    path_graph,
    standard_family,
    star_graph,
    to_greedoid,
    tutte_eval,
    tutte_polynomial,
    unrooted_tutte_polynomial,
    verify_family_axioms,
)
from greedoid_tutte.carriers import (
    format_carrier,
    gf2_row_rank,
    parse_carrier_text,
    parse_graph_text,
    parse_matrix_text,
    row_add_isomorphism_check,
)
from greedoid_tutte.errors import ElementOutOfRangeError, ParseError, PreconditionError
from catalogues import (
    TAILED_DIGON,
    arborescences_brute,
    greedoid_instances,
    spanning_trees_brute,
)


def test_branching_examples():
    g = to_greedoid(path_graph(2))
    assert not g.feasible_mask(mask_of([1]))  # far edge alone
    star = to_greedoid(star_graph(3))
    assert all(star.feasible_mask(mask) for mask in range(8))
    assert g.feasible_mask(0)


def test_directed_branching_examples():
    g = to_greedoid(TAILED_DIGON)  # arcs p0=(0,1), p1=(1,2), q1=(2,1)
    assert not g.feasible_mask(mask_of([0, 2]))
    assert g.feasible_mask(mask_of([0, 1]))
    assert g.feasible_mask(0)


def test_binary_examples():
    g = to_greedoid(demo_binary_matrix())
    assert g.feasible_mask(mask_of([0, 1, 2]))
    assert not g.feasible_mask(mask_of([0, 1]))
    assert g.feasible_mask(0)
    assert not g.feasible_mask(g.full_mask)  # larger than the row count


def test_standard_family_tutte_values():
    p2 = tutte_polynomial(to_greedoid(standard_family("path", 2)))
    assert p2.terms == {(2, 1): 1, (1, 1): -2, (1, 0): 1, (0, 1): 1}
    s3 = tutte_polynomial(to_greedoid(standard_family("star", 3)))
    assert s3.terms == {(3, 0): 1}
    i2 = tutte_polynomial(to_greedoid(standard_family("identity", 2)))
    assert i2 == p2


def test_standard_family_errors():
    with pytest.raises(ParseError):
        standard_family("blob", 2)
    with pytest.raises(PreconditionError):
        standard_family("path", -1)


def test_vertex_validation():
    with pytest.raises(ElementOutOfRangeError):
        RootedGraph(2, ((0, 5),), 0)
    with pytest.raises(ElementOutOfRangeError):
        RootedDigraph(2, ((0, 1),), 7)


@pytest.mark.parametrize("entry", [0.9, "1", Fraction(1, 2)], ids=repr)
def test_non_integer_entries_are_refused_by_carriers(entry):
    """An entry that int() would truncate or parse is refused by name: read
    by int(), the edge (0, 1.9) became (0, 1) and the matrix entry 0.9 became 0."""
    builds = [
        lambda: RootedGraph(3, ((0, entry), (1, 2)), 0),
        lambda: RootedGraph(3, ((0, 1), (1, 2)), entry),
        lambda: RootedDigraph(3, ((entry, 1), (1, 2)), 0),
        lambda: RootedDigraph(3, ((0, 1), (1, 2)), entry),
        lambda: UnrootedGraph(3, ((0, 1), (entry, 2))),
        lambda: BinaryMatrix(((entry, 1), (1, 0))),
        lambda: UnrootedGraph(entry, ()),
    ]
    for build in builds:
        with pytest.raises(PreconditionError, match=re.escape(f"{entry!r} is not an integer")):
            build()


def test_integer_entries_of_other_types_are_read_by_carriers():
    """Bools, numpy integers and Fractions of denominator 1 are stored as ints."""
    typed = [(False, np.int64(1)), (np.uint8(1), Fraction(2))]
    carriers = (RootedGraph(3, typed, np.int32(0)), RootedDigraph(3, typed, False), UnrootedGraph(np.int64(3), typed))
    for carrier in carriers:
        pairs = carrier.arcs if isinstance(carrier, RootedDigraph) else carrier.edges
        assert pairs == ((0, 1), (1, 2))
        assert all(type(v) is int for pair in pairs for v in pair)
        assert type(getattr(carrier, "root", 0)) is int and getattr(carrier, "root", 0) == 0
        assert type(carrier.vertex_count) is int and carrier.vertex_count == 3
    matrix = BinaryMatrix(((True, np.int8(0)), (Fraction(0), np.uint64(1))))
    assert matrix.bits == ((1, 0), (0, 1))
    assert all(type(b) is int for row in matrix.bits for b in row)


@pytest.mark.parametrize(
    "bits, message", [(((2, 0),), "entries must be 0 or 1"), (((1, 0), (1,)), "ragged rows")], ids=["entry 2", "ragged"]
)
def test_binary_matrix_refuses_other_entries_and_ragged_rows(bits, message):
    with pytest.raises(PreconditionError, match=message):
        BinaryMatrix(bits)


def test_row_add_preserves_family():
    demo = demo_binary_matrix()
    for i in range(demo.row_count):
        for j in range(i + 1, demo.row_count):
            assert row_add_isomorphism_check(demo, i, j)
    assert row_add_isomorphism_check(identity_matrix(2), 0, 1)


def test_row_add_requires_valid_pair():
    with pytest.raises(PreconditionError):
        row_add_isomorphism_check(identity_matrix(2), 1, 0)
    one_row = BinaryMatrix(((1, 0),))
    pairs = [(i, j) for i in range(one_row.row_count) for j in range(i + 1, one_row.row_count)]
    assert pairs == []  # vacuously nothing to check


def test_gf2_row_rank():
    assert gf2_row_rank(identity_matrix(3)) == 3
    assert gf2_row_rank(BinaryMatrix(((1, 1), (1, 1)))) == 1


def test_connected_graph_rank_and_tree_bases():
    for graph in [path_graph(3), star_graph(3), RootedGraph(3, ((0, 1), (0, 2), (1, 2)), 0)]:
        g = to_greedoid(graph)
        assert g.rank == graph.vertex_count - 1
        assert enumerate_bases(g) == sorted(spanning_trees_brute(graph))


def test_rooted_graph_bases_with_non_root_component():
    graph = RootedGraph(4, ((0, 1), (2, 3)), 0)
    assert enumerate_bases(to_greedoid(graph)) == sorted(spanning_trees_brute(graph))


def test_digraph_bases_are_arborescences():
    instances = [
        TAILED_DIGON,
        RootedDigraph(3, ((0, 1), (1, 2), (2, 0)), 0),
        RootedDigraph(3, ((0, 1), (0, 2), (1, 2), (2, 1)), 0),
        RootedDigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)), 0),
        RootedDigraph(3, ((0, 1), (2, 1)), 0),  # arc from outside the root component
    ]
    for digraph in instances:
        assert enumerate_bases(to_greedoid(digraph)) == sorted(arborescences_brute(digraph))


def test_binary_bases_match_full_nonsingular_submatrices():
    # For a full-row-rank matrix the bases are the column subsets whose full
    # square submatrix is nonsingular over GF(2), regardless of row order.
    matrix = demo_binary_matrix()
    r = matrix.row_count
    cols = matrix.column_bits()
    expected = []
    for mask in range(1 << matrix.col_count):
        if bin(mask).count("1") != r:
            continue
        basis = {}
        ok = True
        for c in range(matrix.col_count):
            if not mask >> c & 1:
                continue
            vec = cols[c]
            while vec:
                high = vec.bit_length() - 1
                if high in basis:
                    vec ^= basis[high]
                else:
                    basis[high] = vec
                    break
            if vec == 0:
                ok = False
                break
        if ok:
            expected.append(mask)
    assert enumerate_bases(to_greedoid(matrix)) == expected


def test_all_oracles_satisfy_axioms():
    for name, g in greedoid_instances():
        if g.size > 10:
            continue
        family = enumerate_feasible_sets(g)
        assert verify_family_axioms(g.size, family).ok, name


def test_graph_file_round_trip():
    graph = RootedGraph(3, ((0, 1), (1, 2)), 2)
    assert parse_graph_text(format_carrier(graph)) == graph
    digraph = RootedDigraph(3, ((0, 1), (1, 2)), 0)
    assert parse_graph_text(format_carrier(digraph)) == digraph
    unrooted = UnrootedGraph(3, ((0, 1), (1, 2)))
    assert parse_graph_text(format_carrier(unrooted)) == unrooted


def test_matrix_file_round_trip():
    matrix = demo_binary_matrix()
    assert parse_matrix_text(format_carrier(matrix)) == matrix
    assert parse_carrier_text(format_carrier(matrix)) == matrix


def test_mixed_edge_arc_rejected():
    with pytest.raises(ParseError):
        parse_graph_text("root 0\nedge 0 1\narc 1 2\n")


def test_arc_without_root_rejected():
    with pytest.raises(ParseError):
        parse_graph_text("arc 0 1\n")


def test_malformed_matrix_rejected():
    with pytest.raises(ParseError):
        parse_matrix_text("102\n")
    with pytest.raises(ParseError):
        parse_matrix_text("10\n1\n")
    with pytest.raises(ParseError, match="^empty matrix file$"):
        parse_matrix_text("# no rows\n\n")


def test_carrier_sniffing():
    assert isinstance(parse_carrier_text("root 0\nedge 0 1\n"), RootedGraph)
    assert isinstance(parse_carrier_text("root 0\narc 0 1\n"), RootedDigraph)
    assert isinstance(parse_carrier_text("11\n01\n"), BinaryMatrix)
    assert isinstance(parse_carrier_text("edge 0 1\n"), UnrootedGraph)


def test_high_vertex_ids_cost_what_low_ones_cost():
    """The tree oracles and the subtree count work on the vertices the pairs
    touch, so a star rooted at vertex 10^6 is as quick as one rooted at 0."""
    far, leaves = 10**6, range(1, 9)
    for kind in (RootedGraph, RootedDigraph):
        high = kind(far + 9, tuple((far, far + i) for i in leaves), far)
        low = kind(9, tuple((0, i) for i in leaves), 0)
        start = time.perf_counter()
        assert tutte_eval(high, 2, 3) == tutte_eval(low, 2, 3)
        assert tutte_polynomial(to_greedoid(high)) == tutte_polynomial(to_greedoid(low))
        assert time.perf_counter() - start < 1.0  # a forest of 10^6 entries per call takes seconds
    high = UnrootedGraph(far + 9, tuple((far, far + i) for i in leaves))
    low = UnrootedGraph(9, tuple((0, i) for i in leaves))
    typed = count_subtrees_typed(low)
    typed[(0, 0)] += far  # the untouched vertices are one-vertex subtrees
    assert count_subtrees_typed(high) == typed
    assert unrooted_tutte_polynomial(high) == unrooted_tutte_polynomial(low)
