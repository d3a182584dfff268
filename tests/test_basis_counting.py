import itertools
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    GF2,
    GF3,
    RATIONALS,
    Field,
    SimpleGraph,
    UnrootedGraph,
    build_gadget_matrix,
    count_bases,
    count_feasible_templates,
    count_perfect_matchings,
    count_subtrees,
    enumerate_feasible_templates,
    matrix_rank,
    predicted_bases_per_template,
    recover_perfect_matchings,
    template_of_basis,
)
from greedoid_tutte.basis_counting import (
    LETTERS,
    Template,
    _edge_options,
    template_counts_by_bidirected,
    template_is_feasible,
)
from greedoid_tutte import basis_counting
from greedoid_tutte.carriers import format_carrier, parse_carrier_text
from greedoid_tutte.errors import (
    ElementOutOfRangeError,
    GroundSetTooLargeError,
    NotABasisError,
    NotSimpleError,
    OddVertexCountError,
    PreconditionError,
)

K2 = SimpleGraph(2, ((0, 1),))
PATH3 = SimpleGraph(4, ((0, 1), (1, 2), (2, 3)))
C3 = SimpleGraph(3, ((0, 1), (1, 2), (0, 2)))
C4 = SimpleGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))

ALL_FIELDS = (GF2, GF3, RATIONALS)


def test_simple_graph_validation():
    with pytest.raises(NotSimpleError):
        SimpleGraph(2, ((0, 0),))
    with pytest.raises(NotSimpleError):
        SimpleGraph(2, ((0, 1), (1, 0)))
    with pytest.raises(NotSimpleError):
        SimpleGraph(3, ((0, 1),))


def test_simple_graph_is_an_unrooted_graph():
    """Its vertices are read and range-checked as an UnrootedGraph's, and it
    goes wherever an UnrootedGraph goes."""
    assert isinstance(C4, UnrootedGraph)
    plain = UnrootedGraph(C4.vertex_count, C4.edges)
    assert parse_carrier_text(format_carrier(C4)) == plain
    assert count_subtrees(C4) == count_subtrees(plain) == 16  # 4 vertices, 4 paths of each length 1 to 3
    with pytest.raises(ElementOutOfRangeError, match=re.escape("edge (0, 2) outside vertex range")):
        SimpleGraph(2, ((0, 1), (0, 2)))


def test_field_validation():
    with pytest.raises(PreconditionError):
        Field(4)
    assert Field(7).char == 7
    assert str(RATIONALS) == "rationals"


def test_gadget_dimensions():
    gm = build_gadget_matrix(K2, 1)
    assert (len(gm.row_labels), len(gm.col_labels)) == (4, 7)
    triangle = build_gadget_matrix(C3, 1)
    assert (len(triangle.row_labels), len(triangle.col_labels)) == (9, 18)
    for graph, k in [(K2, 2), (PATH3, 1), (C4, 1)]:
        gm = build_gadget_matrix(graph, k)
        n, m = graph.vertex_count, graph.edge_count
        assert len(gm.row_labels) == n + m + m * k
        assert len(gm.col_labels) == n + m + 4 * m * k
        assert len(gm.ground_columns()) == 4 * m * k
        assert gm.target_rank == n + m * k


def test_gadget_block_pattern():
    gm = build_gadget_matrix(K2, 1)
    rows = {lbl: r for r, lbl in enumerate(gm.row_labels)}
    pick = lambda lbl: tuple(gm.column(lbl)[rows[key]] for key in (("v", 0), ("v", 1), ("f", 0, 0)))
    assert pick(("w", 0, 0)) == (0, 0, 1)
    assert pick(("x", 0, 0)) == (1, 0, 1)
    assert pick(("y", 0, 0)) == (0, 1, 1)
    assert pick(("z", 0, 0)) == (1, 1, 1)
    assert pick(("v", 0)) == (1, 0, 0)
    assert pick(("v", 1)) == (0, 1, 0)
    assert pick(("e", 0)) == (1, 1, 0)
    # edge rows are entirely zero
    e_row = rows[("e", 0)]
    assert all(col[e_row] == 0 for col in gm.columns)


def test_ground_rank_target():
    for graph, k in [(K2, 1), (K2, 2), (PATH3, 1), (C4, 1)]:
        gm = build_gadget_matrix(graph, k)
        for field in ALL_FIELDS:
            assert matrix_rank(gm.ground_columns(), field) == gm.target_rank
            assert matrix_rank(gm.columns, field) == gm.target_rank


def _seeded_simple_graphs(seed: int, count: int, max_vertices: int) -> list[SimpleGraph]:
    """``count`` seeded simple graphs on 2 to ``max_vertices`` vertices, none isolated."""
    rng, graphs = random.Random(seed), []
    while len(graphs) < count:
        pairs = list(itertools.combinations(range(n := rng.randint(2, max_vertices)), 2))
        edges = rng.sample(pairs, rng.randint(1, len(pairs)))
        if len({v for edge in edges for v in edge}) == n:
            graphs.append(SimpleGraph(n, tuple(edges)))
    return graphs


def test_gadget_layout_on_seeded_graphs():
    """On 16 seeded graphs of up to 7 vertices at k = 1..3: each letter column holds exactly
    the rows of its 3x7 block, vertex columns are units, edge columns hold both ends, every e
    row is zero, the ground columns are the letter columns of the full matrix in ground-label
    order, and gadgets built from equal inputs are equal and hash alike."""
    for graph in _seeded_simple_graphs(34, 16, 7):
        n, m = graph.vertex_count, graph.edge_count
        for k in (1, 2, 3):
            gm = build_gadget_matrix(graph, k)
            support = lambda lbl: {gm.row_labels[r] for r, x in enumerate(gm.column(lbl)) if x}
            assert all(set(col) <= {0, 1} and len(col) == n + m + m * k for col in gm.columns)
            for v in range(n):
                assert support(("v", v)) == {("v", v)}
            for i, (a, b) in enumerate(graph.edges):
                assert support(("e", i)) == {("v", a), ("v", b)}
                assert not any(col[gm.row_labels.index(("e", i))] for col in gm.columns)
                for j in range(k):
                    assert gm.row_labels.index(("f", i, j)) == n + m + i * k + j
                    for letter, ends in zip(LETTERS, ((), (a,), (b,), (a, b))):
                        assert support((letter, i, j)) == {("f", i, j), *(("v", u) for u in ends)}
            letters = [(lbl, col) for lbl, col in zip(gm.col_labels, gm.columns) if lbl[0] in LETTERS]
            assert len(letters) == 4 * m * k
            assert (gm.ground_labels(), gm.ground_columns()) == tuple(map(tuple, zip(*letters)))
            twin = build_gadget_matrix(SimpleGraph(n, graph.edges), k)
            assert twin == gm and hash(twin) == hash(gm)


@pytest.mark.parametrize("label", [("v", 5), ("q", 0, 0), ("w", 0, 1)], ids=repr)
def test_unknown_gadget_labels_are_refused_by_name(label):
    """A vertex out of range, an unknown letter and a copy index >= k raised a bare ValueError."""
    with pytest.raises(PreconditionError, match=re.escape(repr(label))):
        build_gadget_matrix(K2, 1).column(label)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_recovery_builds_only_letter_columns(monkeypatch, field):
    """No gadget the recovery builds makes its vertex or edge columns, its labels or its full matrix."""
    built, original = [], basis_counting.build_gadget_matrix
    monkeypatch.setattr(basis_counting, "build_gadget_matrix", lambda *args: built.append(original(*args)) or built[-1])
    assert recover_perfect_matchings(C4, field).recovered == 2
    assert built and not any({"row_labels", "col_labels", "columns"} & vars(gm).keys() for gm in built)


def test_count_bases_k2():
    gm1 = build_gadget_matrix(K2, 1)
    assert count_bases(gm1.ground_columns(), GF2) == 4
    assert count_bases(gm1.ground_columns(), RATIONALS) == 4
    assert count_bases(gm1.ground_columns(), GF3) == 4
    gm2 = build_gadget_matrix(K2, 2)
    assert count_bases(gm2.ground_columns(), GF2) == 56
    assert count_bases(gm2.ground_columns(), GF3) == 58
    assert count_bases(gm2.ground_columns(), RATIONALS) == 58


def test_count_bases_against_direct_rank_filter():
    gm = build_gadget_matrix(K2, 2)
    cols = gm.ground_columns()
    r = gm.target_rank
    for field in ALL_FIELDS:
        direct = sum(
            1
            for combo in itertools.combinations(range(len(cols)), r)
            if matrix_rank([cols[i] for i in combo], field) == r
        )
        assert count_bases(cols, field) == direct


def test_count_bases_beyond_int64():
    # 2^32 * 2^32 wraps to 0 in int64; over GF(p) with p > 2^32 the residue
    # products wrap, and two equal columns looked independent
    assert count_bases([(2**32, 0), (0, 2**32)], RATIONALS, 2) == 1
    assert count_bases([(2**40, 3, 1), (5, 2**40, 0), (2**40 + 5, 2**40 + 3, 1)], RATIONALS, 3) == 0
    big = Field(4294967311)
    assert count_bases([(big.char - 1, 1), (big.char - 1, 1)], big, 2) == 0
    cols = [(big.char - 1, 1), (1, big.char - 2), (2, 2)]
    direct = sum(1 for pair in itertools.combinations(cols, 2) if matrix_rank(pair, big) == 2)
    assert count_bases(cols, big, 2) == direct


def test_templates_k2():
    for char_two in (True, False):
        counts = template_counts_by_bidirected(enumerate_feasible_templates(K2, char_two))
        assert counts == {1: 1}


def test_templates_c4_matchings():
    for char_two in (True, False):
        counts = template_counts_by_bidirected(enumerate_feasible_templates(C4, char_two))
        assert counts[2] == 2


def test_template_edge_budget():
    # Feasible templates cover each vertex's indegree exactly once, so
    # 2 * bidirected + directed + undirected = n.
    for graph in (PATH3, C4):
        for char_two in (True, False):
            for template in enumerate_feasible_templates(graph, char_two):
                b = template.bidirected_count
                r = sum(1 for s in template.states if s and s.kind == "directed")
                u = sum(1 for s in template.states if s and s.kind == "undirected")
                assert 2 * b + r + u == graph.vertex_count


def test_wz_parity_decides_circuit_pair_independence():
    # For a circuit of the base graph, pick per edge either the wz or the xy
    # pair from one copy block: the union is independent over a field of
    # characteristic other than two exactly when the number of wz pairs is
    # odd, and then the circuit's vertex columns fall inside its closure.
    for graph in (C3, C4):
        gm = build_gadget_matrix(graph, 1)
        circuit = range(graph.edge_count)
        for field in (GF3, RATIONALS):
            for pattern in itertools.product(("wz", "xy"), repeat=graph.edge_count):
                cols = []
                for i, pair in zip(circuit, pattern):
                    cols.append(gm.column((pair[0], i, 0)))
                    cols.append(gm.column((pair[1], i, 0)))
                rank = matrix_rank(cols, field)
                odd = pattern.count("wz") % 2 == 1
                if odd:
                    assert rank == 2 * graph.edge_count
                    for v in range(graph.vertex_count):
                        assert matrix_rank(cols + [gm.column(("v", v))], field) == rank
                else:
                    assert rank == 2 * graph.edge_count - 1


def _conditions_hold(gm, field, chosen, char_two) -> bool:
    """The four basis conditions, checked from scratch."""
    graph, k = gm.graph, gm.copies
    ground = gm.ground_labels()
    cols = gm.ground_columns()
    per_edge: dict[int, list[int]] = {i: [] for i in range(graph.edge_count)}
    per_copy: dict[tuple[int, int], int] = {}
    for t in chosen:
        letter, i, j = ground[t]
        per_edge[i].append(t)
        per_copy[(i, j)] = per_copy.get((i, j), 0) + 1
    for i in range(graph.edge_count):
        block = [cols[t] for t in per_edge[i]]
        if matrix_rank(block, field) != len(block):
            return False
    for i in range(graph.edge_count):
        for j in range(k):
            if per_copy.get((i, j), 0) < 1:
                return False
    states = _classify(gm, field, chosen)
    if states is None:
        return False
    template = Template(tuple(states))
    return template_is_feasible(graph, template, char_two)


def _classify(gm, field, chosen):
    """Template of an arbitrary condition-1/2 subset (None when undefined)."""
    graph, k = gm.graph, gm.copies
    ground = gm.ground_labels()
    cols = gm.ground_columns()
    states = []
    for i, (a, b) in enumerate(graph.edges):
        block = [t for t in chosen if ground[t][1] == i]
        size = len(block)
        if size == k:
            states.append(None)
            continue
        if size == k + 2:
            states.append(_edge_state("bidirected", None, None))
            continue
        if size != k + 1:
            return None
        by_copy: dict[int, list[str]] = {}
        for t in block:
            letter, _, j = ground[t]
            by_copy.setdefault(j, []).append(letter)
        doubled = [j for j, letters in by_copy.items() if len(letters) == 2]
        if len(doubled) != 1:
            return None
        label = "".join(sorted(by_copy[doubled[0]], key="wxyz".index))
        block_cols = [cols[t] for t in block]
        base_rank = matrix_rank(block_cols, field)
        has_a = matrix_rank(block_cols + [gm.column(("v", a))], field) == base_rank
        has_b = matrix_rank(block_cols + [gm.column(("v", b))], field) == base_rank
        if has_a and has_b:
            return None
        if has_a:
            states.append(_edge_state("directed", a, label))
        elif has_b:
            states.append(_edge_state("directed", b, label))
        else:
            states.append(_edge_state("undirected", None, label))
    return states


def _edge_state(kind, head, label):
    from greedoid_tutte.basis_counting import EdgeState

    return EdgeState(kind, head, label)


@pytest.mark.parametrize("graph,k", [(K2, 1), (K2, 2), (C3, 1)])
def test_basis_characterization_sweep(graph, k):
    gm = build_gadget_matrix(graph, k)
    cols = gm.ground_columns()
    n_cols = len(cols)
    r = gm.target_rank
    for field in ALL_FIELDS:
        char_two = field.is_char_two
        for mask in range(1 << n_cols):
            chosen = [t for t in range(n_cols) if mask >> t & 1]
            is_basis = len(chosen) == r and matrix_rank([cols[t] for t in chosen], field) == r
            assert is_basis == _conditions_hold(gm, field, chosen, char_two), (field, chosen)


def test_basis_characterization_sweep_path3_sampled():
    # Full 2^12 sweep over GF(2) and GF(3) for the three-edge path at k = 1.
    gm = build_gadget_matrix(PATH3, 1)
    cols = gm.ground_columns()
    r = gm.target_rank
    for field in (GF2, GF3):
        char_two = field.is_char_two
        for mask in range(1 << len(cols)):
            chosen = [t for t in range(len(cols)) if mask >> t & 1]
            is_basis = len(chosen) == r and matrix_rank([cols[t] for t in chosen], field) == r
            assert is_basis == _conditions_hold(gm, field, chosen, char_two)


def test_template_of_basis_fibers_match_prediction():
    for graph, k in [(K2, 1), (K2, 2), (SimpleGraph(3, ((0, 1), (1, 2))), 1), (PATH3, 1)]:
        gm = build_gadget_matrix(graph, k)
        cols = gm.ground_columns()
        r = gm.target_rank
        for field in ALL_FIELDS:
            char_two = field.is_char_two
            feasible = enumerate_feasible_templates(graph, char_two)
            fibers: dict[Template, int] = {}
            for combo in itertools.combinations(range(len(cols)), r):
                if matrix_rank([cols[t] for t in combo], field) != r:
                    continue
                template = template_of_basis(gm, field, combo)
                assert template in feasible
                fibers[template] = fibers.get(template, 0) + 1
            for template, size in fibers.items():
                predicted = predicted_bases_per_template(
                    graph.vertex_count, graph.edge_count, k, template.bidirected_count, char_two
                )
                assert size == predicted
            assert set(fibers) == set(feasible)  # every feasible template holds a basis
            total = sum(fibers.values())
            assert total == count_bases(cols, field, r)


def test_template_of_basis_k2_examples():
    gm = build_gadget_matrix(K2, 1)
    # ground columns in label order w, x, y, z
    bidirected = template_of_basis(gm, GF2, (1, 2, 3))  # {x, y, z}
    assert bidirected.states[0].kind == "bidirected"
    other = template_of_basis(gm, GF2, (0, 1, 2))  # {w, x, y}
    assert other.states[0].kind == "bidirected"
    with pytest.raises(NotABasisError):
        template_of_basis(gm, GF2, (0, 1))
    with pytest.raises(NotABasisError):
        template_of_basis(gm, RATIONALS, (0, 1, 5))


def test_partition_property_small_cases():
    path2 = SimpleGraph(3, ((0, 1), (1, 2)))
    cases = [(K2, 1), (K2, 2), (path2, 1), (path2, 2), (PATH3, 1)]
    for graph, k in cases:
        gm = build_gadget_matrix(graph, k)
        for field in ALL_FIELDS:
            counts = template_counts_by_bidirected(
                enumerate_feasible_templates(graph, field.is_char_two)
            )
            predicted = sum(
                predicted_bases_per_template(graph.vertex_count, graph.edge_count, k, b, field.is_char_two)
                * c
                for b, c in counts.items()
            )
            assert count_bases(gm.ground_columns(), field, gm.target_rank) == predicted


def test_predicted_counts_k2_examples():
    assert predicted_bases_per_template(2, 1, 1, 1, True) == 4
    assert predicted_bases_per_template(2, 1, 2, 1, True) == 56
    assert predicted_bases_per_template(2, 1, 1, 1, False) == 4


def test_negative_template_parameters_are_refused():
    """A negative vertex, edge or bidirected count raised a bare TypeError from Fraction."""
    for args in ((-1, 1, 1, 0), (2, -1, 1, 0), (2, 1, 1, -1)):
        with pytest.raises(PreconditionError, match="template parameters must be non-negative"):
            predicted_bases_per_template(*args, True)


def test_count_perfect_matchings():
    assert count_perfect_matchings(K2) == 1
    assert count_perfect_matchings(C4) == 2
    assert count_perfect_matchings(C3) == 0
    assert count_perfect_matchings(PATH3) == 1


class _Admitted(Exception):
    pass


def test_perfect_matching_count_is_bounded_before_it_recurses(monkeypatch):
    """K16 is refused at once: 120 edges times 15!! leaves is about 2^27 edge scans.  K14 (about
    2^23) is admitted, and a 60-vertex path takes 59 scans to count its one matching.  A path of
    2,002 vertices, past Python's recursion limit, counts 1 as well."""
    k16 = SimpleGraph(16, tuple(itertools.combinations(range(16), 2)))
    start = time.perf_counter()
    with pytest.raises(GroundSetTooLargeError, match=re.escape("2^27 edge scans")):
        count_perfect_matchings(k16)
    assert time.perf_counter() - start < 1
    for n in (60, 2002):
        assert count_perfect_matchings(SimpleGraph(n, tuple((i, i + 1) for i in range(n - 1)))) == 1
    check = basis_counting._check_work

    def admit(*args):
        check(*args)
        raise _Admitted

    monkeypatch.setattr(basis_counting, "_check_work", admit)
    with pytest.raises(_Admitted):
        count_perfect_matchings(SimpleGraph(14, tuple(itertools.combinations(range(14), 2))))


def test_perfect_matching_count_matches_edge_subsets():
    """On 30 seeded simple graphs of up to 8 vertices, the count equals the number of n/2-edge
    subsets that cover every vertex."""
    for graph in _seeded_simple_graphs(35, 30, 8):
        n = graph.vertex_count
        covers = (len({v for edge in sub for v in edge}) == n for sub in itertools.combinations(graph.edges, n // 2))
        assert count_perfect_matchings(graph) == (sum(covers) if n % 2 == 0 else 0), graph


def test_recover_perfect_matchings_k2():
    for field in ALL_FIELDS:
        report = recover_perfect_matchings(K2, field)
        assert report.b_values[0] == 4
        assert report.t_values == (0, 1)
        assert report.match
        assert report.b_sources == ("enumerated", "enumerated")


def test_recover_requires_even_vertices():
    with pytest.raises(OddVertexCountError):
        recover_perfect_matchings(C3, GF2)


def test_template_search_is_bounded(monkeypatch):
    """8^7 templates exceed the default bound: raise before checking any."""
    seven = SimpleGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)))

    def never(*args):
        raise AssertionError("template checked before the bound")

    monkeypatch.setattr(basis_counting, "template_is_feasible", never)
    with pytest.raises(GroundSetTooLargeError):
        enumerate_feasible_templates(seven, True)
    with pytest.raises(GroundSetTooLargeError):
        recover_perfect_matchings(seven, GF2)
    with pytest.raises(GroundSetTooLargeError):
        enumerate_feasible_templates(C4, False, max_elements=11)


def test_count_bases_negative_size():
    with pytest.raises(PreconditionError):
        count_bases([(1, 0), (0, 1)], GF2, -1)
    with pytest.raises(PreconditionError):
        count_bases([], RATIONALS, -3)


def _reference_rank(vectors, p: int) -> int:
    """Rank by Gauss-Jordan elimination with each vector as a row, mod p or over Fraction (p = 0)."""
    rows = [[v % p if p else Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] * pow(rows[rank][c], -1, p) if p else rows[r][c] / rows[rank][c]
                rows[r] = [(a - f * b) % p if p else a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def integer_columns(draw):
    """Up to 8 columns of at most 4 rows; zero columns, repeats and entries >= 2^32 are common."""
    rows = draw(st.integers(0, 4))
    entry = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(lambda v: v * 2**32 + 1), st.just(2**40))
    column = st.tuples(*[entry] * rows)
    columns = draw(st.lists(column, max_size=6))
    if columns and draw(st.booleans()):
        columns.append(draw(st.sampled_from(columns)))
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), (0,) * rows)
    return columns


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(integer_columns())
def test_count_bases_matches_combinations(columns):
    """The span-state DP against a plain count of full-rank column subsets."""
    for field in (GF2, GF3, Field(4294967311), RATIONALS):
        rank = _reference_rank(columns, field.char)
        assert matrix_rank(columns, field) == rank
        for size in range(rank + 2):
            direct = sum(
                1 for combo in itertools.combinations(columns, size) if _reference_rank(combo, field.char) == size
            )
            assert count_bases(columns, field, size) == direct, (str(field), size)
        assert count_bases(columns, field) == count_bases(columns, field, rank)


def test_count_bases_beyond_subset_enumeration():
    """C4 at k = 2 (32 columns) and path-3 at k = 3 (36 columns) equal the per-template closed form."""
    for graph, k in [(C4, 2), (PATH3, 3)]:
        gm = build_gadget_matrix(graph, k)
        for field in (GF2, GF3):
            counts = template_counts_by_bidirected(enumerate_feasible_templates(graph, field.is_char_two))
            predicted = sum(
                predicted_bases_per_template(graph.vertex_count, graph.edge_count, k, b, field.is_char_two) * c
                for b, c in counts.items()
            )
            assert count_bases(gm.ground_columns(), field, gm.target_rank) == predicted, (k, str(field))


def test_predicted_bases_match_the_product_of_fraction_powers():
    """The one-fraction closed form against the product it replaces."""
    for k in range(1, 7):
        for n in range(11):
            for m in range(n + 1):
                for b in range(n // 2 + 1):
                    for char_two in (True, False):
                        per_bidirected = Fraction(4, k) + 12 if char_two else Fraction(3, k) + 13
                        expected = Fraction(4) ** (k * m) * Fraction(k, 4) ** n * per_bidirected**b
                        assert predicted_bases_per_template(n, m, k, b, char_two) == expected


def test_count_bases_state_bound_raises_first(monkeypatch):
    """An over-budget count raises before the first DP step."""

    def never(*args):
        raise AssertionError("DP step taken before the bound")

    monkeypatch.setattr(basis_counting, "_step", never)
    columns = build_gadget_matrix(C4, 2).ground_columns()
    with pytest.raises(GroundSetTooLargeError):
        count_bases(columns, RATIONALS)
    with pytest.raises(GroundSetTooLargeError):
        count_bases(columns, GF2, max_subsets=10)
    assert count_bases([], GF3) == 1


def test_state_bound_error_names_states_and_max_subsets():
    with pytest.raises(GroundSetTooLargeError) as info:
        count_bases(build_gadget_matrix(C4, 2).ground_columns(), RATIONALS)
    message = str(info.value)
    assert "DP states in one layer" in message and "max_subsets" in message
    assert "max_elements" not in message
    assert (info.value.size, info.value.bound) == (32, 10_000_000)


def _product_filter(graph, char_two):
    options = [_edge_options(a, b) for a, b in graph.edges]
    candidates = (Template(tuple(combo)) for combo in itertools.product(*options))
    return [t for t in candidates if template_is_feasible(graph, t, char_two)]


def test_pruned_template_search_matches_product_filter():
    rng = random.Random(20)
    graphs = [K2, SimpleGraph(3, ((0, 1), (1, 2))), PATH3, C4]
    while len(graphs) < 24:
        edges = rng.sample(list(itertools.combinations(range(6), 2)), 4)
        if len({v for e in edges for v in e}) == 6:
            graphs.append(SimpleGraph(6, tuple(edges)))
    for graph in graphs:
        for char_two in (True, False):
            assert enumerate_feasible_templates(graph, char_two) == _product_filter(graph, char_two), graph


def test_state_bound_covers_every_layer(monkeypatch):
    """The bound checked against max_subsets is at least the largest DP layer."""
    layers = []
    step = basis_counting._step

    def counting_step(layer, *args):
        layers.append(sum(len(by_size) for by_size in layer.values()))
        return step(layer, *args)

    monkeypatch.setattr(basis_counting, "_step", counting_step)
    rng = random.Random(7)
    cases = [build_gadget_matrix(graph, k).ground_columns() for graph, k in [(K2, 2), (PATH3, 2), (C4, 1)]]
    cases += [[tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(9)] for _ in range(20)]
    for columns in cases:
        for field in (GF2, GF3, Field(4294967311), RATIONALS):
            for size in (None, 2):
                layers.clear()
                count_bases(columns, field, size)
                with pytest.raises(GroundSetTooLargeError):
                    count_bases(columns, field, size, max_subsets=max(layers) - 1)


def _feasible_by_definition(graph, template, char_two) -> bool:
    """An orientation of the undirected edges giving every vertex indegree
    exactly one, and every circuit of undirected edges allowed by the field:
    none over GF(2), an odd number of wz labels otherwise."""
    heads, undirected = [], []
    for (a, b), state in zip(graph.edges, template.states):
        if state is None:
            continue
        if state.kind == "bidirected":
            heads += [a, b]
        elif state.kind == "directed":
            heads.append(state.head)
        else:
            undirected.append((a, b, state.label))
    for subset in itertools.chain.from_iterable(
        itertools.combinations(undirected, size) for size in range(1, len(undirected) + 1)
    ):
        degree: dict[int, int] = {}
        for a, b, _ in subset:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        seen, frontier = set(), [min(degree)]
        while frontier:
            v = frontier.pop()
            if v not in seen:
                seen.add(v)
                frontier += [b if a == v else a for a, b, _ in subset if v in (a, b)]
        is_circuit = set(degree.values()) == {2} and len(seen) == len(degree)
        if is_circuit and (char_two or sum(label == "wz" for *_, label in subset) % 2 == 0):
            return False
    return any(
        sorted(heads + [pair[pick] for pair, pick in zip(undirected, picks)]) == list(range(graph.vertex_count))
        for picks in itertools.product((0, 1), repeat=len(undirected))
    )


@st.composite
def simple_graphs(draw):
    """Simple graphs with 2 to 6 edges on at most 6 vertices, relabelled to cover 0..n-1."""
    pairs = list(itertools.combinations(range(draw(st.integers(3, 6))), 2))
    size = draw(st.integers(2, min(6, len(pairs))))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=size, max_size=size, unique=True))
    label = {v: i for i, v in enumerate(sorted({v for pair in edges for v in pair}))}
    return SimpleGraph(len(label), tuple((label[a], label[b]) for a, b in edges))


def _indegree_one_template(graph, data) -> Template:
    """A template from one incoming edge picked per vertex: an edge picked by
    both ends is bidirected, by one end directed into it or undirected, by
    none absent.  Every vertex then gets indegree one, so only the circuit
    condition can fail; half the templates make every such edge undirected,
    so that circuits without a head are common."""
    picks = [data.draw(st.sampled_from([e for e, pair in enumerate(graph.edges) if v in pair])) for v in range(graph.vertex_count)]
    kinds = ("undirected",) if data.draw(st.booleans()) else ("directed", "undirected")
    states = []
    for e, (a, b) in enumerate(graph.edges):
        ends = [v for v in (a, b) if picks[v] == e]
        if len(ends) == 1:
            single = [s for s in _edge_options(a, b)[2:] if s.kind in kinds and s.head in (ends[0], None)]
            states.append(data.draw(st.sampled_from(single)))
        else:
            states.append(_edge_state("bidirected", None, None) if ends else None)
    return Template(tuple(states))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(simple_graphs(), st.data())
def test_feasibility_rule_matches_definition(graph, data):
    """The union-find rule against the orientation search and circuit parity,
    on uniform random templates and on templates with indegree one at every
    vertex; and the feasible templates against count_bases at k = 1."""
    options = [_edge_options(a, b) for a, b in graph.edges]
    templates = [Template(tuple(data.draw(st.sampled_from(opts)) for opts in options)) for _ in range(20)]
    templates += [_indegree_one_template(graph, data) for _ in range(20)]
    for template in templates:
        for char_two in (True, False):
            assert template_is_feasible(graph, template, char_two) == _feasible_by_definition(graph, template, char_two)
    gm = build_gadget_matrix(graph, 1)
    n, m = graph.vertex_count, graph.edge_count
    for field in (GF2, GF3):
        char_two = field.is_char_two
        counts = template_counts_by_bidirected(enumerate_feasible_templates(graph, char_two))
        predicted = sum(predicted_bases_per_template(n, m, 1, b, char_two) * c for b, c in counts.items())
        assert count_bases(gm.ground_columns(), field, gm.target_rank) == predicted, str(field)


@pytest.mark.parametrize("field", [GF2, RATIONALS], ids=str)
def test_ragged_columns_are_refused(field):
    """Columns of unequal length raise instead of having their tails dropped."""
    with pytest.raises(PreconditionError, match="same length"):
        matrix_rank([(1, 0), (1, 0, 1)], field)
    with pytest.raises(PreconditionError, match="same length"):
        count_bases([(1, 0, 1), (0, 1)], field)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(simple_graphs())
def test_kind_count_matches_template_listing(graph):
    """Counting by edge kind, labels in closed form, against the listed templates;
    the graphs drawn have 3 to 6 vertices, odd counts and circuits included."""
    for char_two in (True, False):
        listed = template_counts_by_bidirected(enumerate_feasible_templates(graph, char_two))
        assert count_feasible_templates(graph, char_two) == listed, (graph, char_two)


PATH_EDGE = SimpleGraph(6, ((0, 1), (1, 2), (2, 3), (4, 5)))
TWO_PATHS = SimpleGraph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))
STAR_EDGE = SimpleGraph(6, ((0, 1), (0, 2), (0, 3), (4, 5)))

# (graph, field) -> (b_values, t_values), as recovered through the template listing
RECOVERED = [
    (K2, GF2, (4, 56), (0, 1)),
    (K2, GF3, (4, 58), (0, 1)),
    (K2, RATIONALS, (4, 58), (0, 1)),
    (PATH3, GF2, (256, 222208, 67829760), (0, 48, 1)),
    (PATH3, GF3, (256, 232000, 71995392), (0, 48, 1)),
    (PATH3, RATIONALS, (256, 232000, 71995392), (0, 48, 1)),
    (C4, GF2, (4064, 14581760, 18025021440), (480, 192, 2)),
    (C4, GF3, (4072, 15124480, 18940428288), (488, 192, 2)),
    (C4, RATIONALS, (4072, 15124480, 18940428288), (488, 192, 2)),
    (PATH_EDGE, GF2, (1024, 12443648, 32558284800, 44276817854464), (0, 0, 48, 1)),
    (PATH_EDGE, GF3, (1024, 13456000, 36285677568, 50142065459200), (0, 0, 48, 1)),
    (PATH_EDGE, RATIONALS, (1024, 13456000, 36285677568, 50142065459200), (0, 0, 48, 1)),
    (TWO_PATHS, GF2, (1024, 12845056, 33973862400, 46454366273536), (0, 0, 64, 0)),
    (TWO_PATHS, GF3, (1024, 13778944, 37456183296, 51969104281600), (0, 0, 64, 0)),
    (TWO_PATHS, RATIONALS, (1024, 13778944, 37456183296, 51969104281600), (0, 0, 64, 0)),
    (STAR_EDGE, GF2, (768, 9633792, 25480396800, 34840774705152), (0, 0, 48, 0)),
    (STAR_EDGE, GF3, (768, 10334208, 28092137472, 38976828211200), (0, 0, 48, 0)),
    (STAR_EDGE, RATIONALS, (768, 10334208, 28092137472, 38976828211200), (0, 0, 48, 0)),
]


@pytest.mark.parametrize("graph,field,b_values,t_values", RECOVERED)
def test_recovery_values_pinned(graph, field, b_values, t_values):
    report = recover_perfect_matchings(graph, field)
    assert (report.b_values, report.t_values) == (b_values, t_values)
    assert report.match


def test_kind_count_is_bounded_first(monkeypatch):
    """The recovery refuses 7 edges (21 elements) before any leaf, lift or basis count."""
    seven = SimpleGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)))

    def never(*args):
        raise AssertionError("work done before the bound")

    for name in ("build_gadget_matrix", "count_bases", "_headless_roots"):
        monkeypatch.setattr(basis_counting, name, never)
    with pytest.raises(GroundSetTooLargeError):
        count_feasible_templates(seven, True)
    with pytest.raises(GroundSetTooLargeError):
        count_feasible_templates(C4, False, max_elements=11)
    with pytest.raises(GroundSetTooLargeError):
        recover_perfect_matchings(seven, GF2)


def test_recovery_interpolates_the_template_polynomial(monkeypatch):
    """b_k / c_k is the template polynomial at x_k = (13k + 3) / k over GF(3):
    one Vandermonde solve, and no general linear solve."""
    calls = []
    original = basis_counting.vandermonde_solve
    monkeypatch.setattr(basis_counting, "vandermonde_solve", lambda *args: calls.append(args) or original(*args))
    report = recover_perfect_matchings(C4, GF3)
    assert report.match and report.recovered == 2
    assert [nodes for nodes, _ in calls] == [[Fraction(13 * k + 3, k) for k in (1, 2, 3)]]
    assert not hasattr(basis_counting, "bareiss_solve")


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, "1"], ids=repr)
@pytest.mark.parametrize("count", [matrix_rank, count_bases], ids=lambda f: f.__name__)
def test_non_integer_entries_are_refused(count, entry):
    """An entry that int() would truncate or parse is refused by name: read
    as integers, the columns (1/2, 0), (0, 1/3) had rank 0 over the rationals."""
    for field in ALL_FIELDS:
        with pytest.raises(PreconditionError, match=re.escape(repr(entry))):
            count([(entry, 0), (0, Fraction(1, 3))], field)


def test_integer_entries_of_other_types_are_read_as_ints():
    """Bools, numpy integers and Fractions of denominator 1 are integers."""
    columns = [(1, 0, 2), (0, 1, 1), (1, 1, 3), (0, 0, 0)]
    typed = [(True, np.int64(0), Fraction(2)), (False, np.uint8(1), 1), (Fraction(1), True, np.int32(3)), (0, 0, 0)]
    for field in ALL_FIELDS:
        assert matrix_rank(typed, field) == matrix_rank(columns, field)
        for size in range(4):
            assert count_bases(typed, field, size) == count_bases(columns, field, size)


@pytest.mark.parametrize("entry", [0.9, "1", Fraction(1, 2)], ids=repr)
def test_non_integer_vertices_and_characteristics_are_refused(entry):
    """int() read the edge (0, 0.9) as a loop, and the characteristic 2.0 as
    a prime, which count_bases then failed on with a bare TypeError."""
    with pytest.raises(PreconditionError, match=re.escape(f"{entry!r} is not an integer")):
        SimpleGraph(3, ((0, 1), (1, entry)))
    with pytest.raises(PreconditionError, match=re.escape(f"{entry!r} is not an integer")):
        SimpleGraph(entry, ((0, 1),))
    for char in (entry, 2.0, 3.0):
        with pytest.raises(PreconditionError, match=re.escape(f"{char!r} is not an integer")):
            Field(char)


def test_integer_vertices_and_characteristics_of_other_types_are_read_as_ints():
    graph = SimpleGraph(np.int64(3), ((False, True), (np.uint8(2), Fraction(1))))
    assert graph.edges == ((0, 1), (1, 2)) and type(graph.vertex_count) is int
    assert all(type(v) is int for edge in graph.edges for v in edge)
    for char, field in ((np.int64(2), GF2), (Fraction(3), GF3), (False, RATIONALS)):
        assert Field(char) == field and type(Field(char).char) is int
    gm = build_gadget_matrix(K2, 1)
    columns, rank = gm.ground_columns(), gm.target_rank
    assert count_bases(columns, Field(np.int64(2)), rank) == count_bases(columns, GF2, rank)


@st.composite
def wide_columns(draw):
    """6 to 10 rows and 4 to 12 columns of entries in -3..3; zero and repeated columns are common."""
    rows, n = draw(st.integers(6, 10)), draw(st.integers(4, 12))
    columns = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * rows), min_size=n, max_size=n))
    if draw(st.booleans()):
        columns[draw(st.integers(0, n - 1))] = draw(st.sampled_from(columns))
    if draw(st.booleans()):
        columns[draw(st.integers(0, n - 1))] = (0,) * rows
    return columns


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(wide_columns())
def test_gf2_counts_match_combinations_on_wide_matrices(columns):
    """The one-int rows over GF(2) against a plain count of full-rank column subsets."""
    rank = _reference_rank(columns, 2)
    assert matrix_rank(columns, GF2) == rank
    for size in range(rank + 2):
        direct = sum(1 for combo in itertools.combinations(columns, size) if _reference_rank(combo, 2) == size)
        assert count_bases(columns, GF2, size) == direct, size


def test_gadget_counts_match_the_kind_count():
    """C4 at k = 3 (48 columns) against the closed form over the templates counted by kind."""
    gm = build_gadget_matrix(C4, 3)
    for field in (GF2, GF3):
        counts = count_feasible_templates(C4, field.is_char_two)
        predicted = sum(predicted_bases_per_template(4, 4, 3, b, field.is_char_two) * c for b, c in counts.items())
        assert count_bases(gm.ground_columns(), field, gm.target_rank) == predicted, str(field)


def test_subset_shortcut_refuses_exactly_as_the_state_bound():
    """With 2^n on either side of max_subsets, count_bases refuses exactly when
    the proven bound exceeds max_subsets."""
    rng = random.Random(24)
    for _ in range(30):
        n = rng.randint(0, 12)
        columns = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(n)]
        for field in ALL_FIELDS:
            p = field.char
            coords, pivots = basis_counting._suffix_coordinates(basis_counting._field_columns(columns, p), p)
            for size in (None, 2):
                bound = basis_counting._state_bound(coords, pivots, len(pivots) if size is None else size, p)
                for limit in {2**n - 1, 2**n, 2**n + 1, bound - 1, bound}:
                    if bound > limit:
                        with pytest.raises(GroundSetTooLargeError):
                            count_bases(columns, field, size, max_subsets=limit)
                    else:
                        count_bases(columns, field, size, max_subsets=limit)


def test_state_bound_is_skipped_when_every_subset_fits(monkeypatch):
    """The 16 columns of C4 at k = 1 have 2^16 subsets: at max_subsets = 2^16
    no layer can be over budget, so the bound is never computed."""

    def never(*args):
        raise AssertionError("state bound computed")

    monkeypatch.setattr(basis_counting, "_state_bound", never)
    columns = build_gadget_matrix(C4, 1).ground_columns()
    for field, bases in ((GF2, 4064), (GF3, 4072), (RATIONALS, 4072)):
        assert count_bases(columns, field, max_subsets=2**16) == bases
        assert count_bases(columns, field) == bases
        with pytest.raises(AssertionError, match="state bound computed"):
            count_bases(columns, field, max_subsets=2**16 - 1)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(wide_columns())
def test_gf3_counts_match_combinations_on_wide_matrices(columns):
    """The two-plane rows over GF(3) against a plain count of full-rank column subsets."""
    rank = _reference_rank(columns, 3)
    assert matrix_rank(columns, GF3) == rank
    for size in range(rank + 2):
        direct = sum(1 for combo in itertools.combinations(columns, size) if _reference_rank(combo, 3) == size)
        assert count_bases(columns, GF3, size) == direct, size


def _reference_echelon(vectors, p: int) -> list[tuple]:
    """Reduced row echelon rows of span(vectors) mod p: monic, led by their
    first nonzero entry, zero at each other's leads and ordered by lead."""
    rows = []
    for vec in vectors:
        vec = [v % p for v in vec]
        for row in rows:
            lead = next(t for t, v in enumerate(row) if v)
            vec = [(a - vec[lead] * b) % p for a, b in zip(vec, row)]
        if any(vec):
            lead = next(t for t, v in enumerate(vec) if v)
            vec = [v * pow(vec[lead], -1, p) % p for v in vec]
            rows = [[(a - row[lead] * b) % p for a, b in zip(row, vec)] for row in rows] + [vec]
    return sorted((tuple(row) for row in rows), key=lambda row: next(t for t, v in enumerate(row) if v))


def test_gf3_rows_are_canonical_in_every_insertion_order():
    """The DP keys on the rows of a span, so over GF(3) the same vectors
    inserted in any order give the same two-plane rows: the reduced row
    echelon form, plane by plane."""
    rng = random.Random(29)
    for _ in range(60):
        width = rng.randint(1, 9)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(width)) for _ in range(rng.randint(1, 8))]
        vectors += rng.sample(vectors, min(2, len(vectors)))  # repeats lie in the span
        want = basis_counting._pack(_reference_echelon(vectors, 3), 3)
        for _ in range(4):
            rng.shuffle(vectors)
            rows = ()
            for vec in basis_counting._pack([[v % 3 for v in vec] for vec in vectors], 3):
                rows = basis_counting._insert(rows, vec, 3) or rows
            assert rows == tuple(want), vectors


def _grid(rows: int, cols: int) -> SimpleGraph:
    """The rows x cols grid graph, its edges in sorted order."""
    edges = []
    for v in range(rows * cols):
        if v % cols < cols - 1:
            edges.append((v, v + 1))
        if v < (rows - 1) * cols:
            edges.append((v, v + cols))
    return SimpleGraph(rows * cols, tuple(sorted(edges)))


@pytest.mark.parametrize(
    "rows, gf3, gf2",
    [
        (3, 3_184_527_959_654_400, 3_177_322_047_864_832),
        (4, 7_500_528_077_611_953_291_264, 7_479_326_970_503_170_621_440),
    ],
)
def test_grid_gadget_counts_pinned(rows, gf3, gf2):
    """The k = 1 gadgets of the 3x4 and 4x4 grids (68 and 96 columns) over GF(3) and GF(2)."""
    gm = build_gadget_matrix(_grid(rows, 4), 1)
    assert count_bases(gm.ground_columns(), GF3, gm.target_rank) == gf3
    assert count_bases(gm.ground_columns(), GF2, gm.target_rank) == gf2


def test_field_decides_primality_by_miller_rabin():
    """Every characteristic below 10^4 agrees with a sieve; strong pseudoprimes
    to many bases are refused; a 61-bit prime is accepted at once; and from
    psi_13 on, where the 13 bases prove nothing, every characteristic is refused."""
    sieve = [False, False] + [True] * (10**4 - 2)
    for d in range(2, 100):
        sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
    for n in range(1, 10**4):
        if sieve[n]:
            assert Field(n).char == n
        else:
            with pytest.raises(PreconditionError, match="is not prime"):
                Field(n)
    start = time.perf_counter()
    assert Field(2**61 - 1).char == 2**61 - 1
    assert time.perf_counter() - start < 0.5
    assert Field(4294967311).char == 4294967311
    # a Carmichael number, strong pseudoprimes to base 2, to 2 .. 7, to 2 .. 31 and to 2 .. 37,
    # and 3 * 768614336404564651
    for n in (561, 2047, 3215031751, 3825123056546413051, 318665857834031151167461, 2**61 + 1):
        with pytest.raises(PreconditionError, match="is not prime"):
            Field(n)
    # psi_13 itself passes all 13 bases; 2^89 - 1 is prime but past the bound
    for n in (3_317_044_064_679_887_385_961_981, 2**89 - 1, 10**400):
        with pytest.raises(PreconditionError, match="decided below 3317044064679887385961981 only"):
            Field(n)


def test_integer_parameters_are_refused_by_name():
    """A subset size, basis index, copy count or template parameter that is
    not an integer is refused by name: size 2.5 counted 0 subsets, index
    i + 0.5 was read as i, and copies or k of 1.5 raised a bare TypeError."""
    gm = build_gadget_matrix(K2, 1)
    columns = gm.ground_columns()
    basis = next(c for c in itertools.combinations(range(4), 3) if matrix_rank([columns[i] for i in c], GF2) == 3)
    for call, value in (
        (lambda: count_bases(columns, GF2, size=2.5), 2.5),
        (lambda: template_of_basis(gm, GF2, [i + 0.5 for i in basis]), basis[0] + 0.5),
        (lambda: build_gadget_matrix(K2, 1.5), 1.5),
        (lambda: predicted_bases_per_template(4, 4, 1.5, 0, True), 1.5),
    ):
        with pytest.raises(PreconditionError, match=re.escape(f"{value!r} is not an integer")):
            call()
    assert count_bases(columns, GF2, size=np.int64(3)) == count_bases(columns, GF2, size=3)
    assert template_of_basis(gm, GF2, [np.int64(i) for i in basis]) == template_of_basis(gm, GF2, basis)
    assert build_gadget_matrix(K2, Fraction(2)) == build_gadget_matrix(K2, 2)
    assert predicted_bases_per_template(4, 4, np.int64(2), True, False) == predicted_bases_per_template(4, 4, 2, 1, False)


def _reference_tuple_rows(vectors, p: int) -> tuple:
    """Canonical rows of span(vectors) as the counter keys them: the reduced
    row echelon rows mod p, or over the rationals those rows scaled to
    primitive integer vectors with a positive lead."""
    if p:
        return tuple(_reference_echelon(vectors, p))
    rows = []
    for vec in vectors:
        vec = [Fraction(v) for v in vec]
        for row in rows:
            lead = next(t for t, v in enumerate(row) if v)
            vec = [a - vec[lead] * b for a, b in zip(vec, row)]
        if any(vec):
            lead = next(t for t, v in enumerate(vec) if v)
            vec = [v / vec[lead] for v in vec]
            rows = [[a - row[lead] * b for a, b in zip(row, vec)] for row in rows] + [vec]
    scaled = []
    for row in sorted(rows, key=lambda row: next(t for t, v in enumerate(row) if v)):
        common = math.lcm(*(v.denominator for v in row))
        ints = [int(v * common) for v in row]
        scaled.append(tuple(v // math.gcd(*ints) for v in ints))
    return tuple(scaled)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(wide_columns())
def test_tuple_row_counts_match_combinations_on_wide_matrices(columns):
    """The int-tuple rows of the rationals and of a prime past 2^32: the
    canonical rows of the span of each prefix of the columns, and counts
    against a plain count of full-rank column subsets.  Over the rationals
    the reference ranks are taken mod 2^61 - 1, which is exact here: every
    minor of at most 10 rows with entries in -3..3 is below
    (3 sqrt(10))^10 < 6 * 10^9 in size (Hadamard), so it vanishes mod
    2^61 - 1 only if it is 0."""
    for field, ref in ((RATIONALS, 2**61 - 1), (Field(4294967311), 4294967311)):
        rows = ()
        for i, vec in enumerate(basis_counting._field_columns(columns, field.char)):
            rows = basis_counting._insert(rows, vec, field.char) or rows
            assert rows == _reference_tuple_rows(columns[: i + 1], field.char), (str(field), i)
        rank = _reference_rank(columns, ref)
        assert matrix_rank(columns, field) == rank
        for size in range(rank + 2):
            direct = sum(1 for combo in itertools.combinations(columns, size) if _reference_rank(combo, ref) == size)
            assert count_bases(columns, field, size) == direct, (str(field), size)


def test_template_sums_equal_the_fraction_formula():
    """Each b_k the recovery sums over templates, in integers, equals the
    closed form summed in Fractions over the templates counted by kind, on
    20 seeded simple graphs with 4 to 8 vertices and at most 6 edges."""
    rng = random.Random(30)
    graphs = []
    while len(graphs) < 20:
        n = rng.choice((4, 6, 8))
        edges = rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(n // 2, 6))
        if len({v for edge in edges for v in edge}) == n:
            graphs.append(SimpleGraph(n, tuple(edges)))
    summed = 0
    for graph in graphs:
        n, m = graph.vertex_count, graph.edge_count
        for field in (GF2, GF3):
            char_two = field.is_char_two
            counts = count_feasible_templates(graph, char_two)
            report = recover_perfect_matchings(graph, field)
            for k, (b_k, source) in enumerate(zip(report.b_values, report.b_sources), 1):
                if source == "template-sum":
                    summed += 1
                    assert b_k == sum(predicted_bases_per_template(n, m, k, j, char_two) * t for j, t in counts.items())
            assert report.match, (graph, str(field))
    assert summed >= 40
