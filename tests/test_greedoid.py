import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    Greedoid,
    closure,
    demo_binary_matrix,
    elements_of,
    enumerate_bases,
    enumerate_feasible_sets,
    is_feasible,
    mask_of,
    parallel_classes,
    path_graph,
    rank_of,
    star_graph,
    thicken,
    to_greedoid,
    verify_family_axioms,
    verify_rank_axioms,
)
from greedoid_tutte.basis_counting import Field
from greedoid_tutte.constructions import predicted_thickening
from greedoid_tutte.exact import ExactMatrix
from greedoid_tutte.greedoid import ParallelClasses, rank_size_profile, subset_ranks, _check_work
from greedoid_tutte.errors import ElementOutOfRangeError, GroundSetTooLargeError, PreconditionError
from greedoid_tutte.polynomials import BivariatePoly, LaurentPoly

from catalogues import LOOP_GRAPH, TRIANGLE, brute_rank, greedoid_instances

DEMO = to_greedoid(demo_binary_matrix())


def test_demo_feasibility_examples():
    # Ground set {1,2,3,4} in 1-based terms; elements are 0-based here.
    assert is_feasible(DEMO, mask_of([0, 2]))  # {1,3}
    assert not is_feasible(DEMO, mask_of([1]))  # {2}
    assert is_feasible(DEMO, 0)


def test_demo_rank_examples():
    assert rank_of(DEMO, mask_of([0, 1, 2])) == 3  # {1,2,3}
    assert rank_of(DEMO, mask_of([1, 2])) == 0  # {2,3}
    assert rank_of(DEMO, 0) == 0


def test_demo_bases():
    bases = enumerate_bases(DEMO)
    assert [elements_of(b) for b in bases] == [(0, 1, 2), (0, 1, 3), (1, 2, 3)]


def test_star_has_single_basis():
    g = to_greedoid(star_graph(3))
    assert enumerate_bases(g) == [mask_of([0, 1, 2])]


def test_loops_only_greedoid_basis_is_empty():
    g = Greedoid(2, lambda mask: mask == 0)
    assert enumerate_bases(g) == [0]


def test_out_of_range_subset():
    with pytest.raises(ElementOutOfRangeError):
        is_feasible(DEMO, 1 << 10)


def test_closure_on_path():
    g = to_greedoid(path_graph(2))
    assert closure(g, mask_of([0])) == mask_of([0])
    assert closure(g, mask_of([1])) == mask_of([1])
    assert closure(g, g.full_mask) == g.full_mask


def test_closure_properties_exhaustive():
    for name, g in greedoid_instances():
        if g.size > 10:
            continue
        ranks = subset_ranks(g)
        for subset in range(1 << g.size):
            closed = closure(g, subset)
            assert closed & subset == subset, name  # extensive
            assert ranks[closed] == ranks[subset], name  # rank-preserving
            assert closure(g, closed) == closed, name  # idempotent


def test_rank_stable_elements_absorb_jointly():
    # If adding any element of B alone preserves the rank of A, then adding
    # all of B does.
    for name, g in [("triangle", to_greedoid(TRIANGLE)), ("demo", DEMO)]:
        n = g.size
        ranks = subset_ranks(g)
        for a in range(1 << n):
            stable = [e for e in range(n) if ranks[a | (1 << e)] == ranks[a]]
            for size in range(len(stable) + 1):
                for combo in itertools.combinations(stable, size):
                    b = mask_of(combo)
                    assert ranks[a | b] == ranks[a], name


def test_greedy_rank_equals_brute_force_everywhere():
    for name, g in greedoid_instances():
        if g.size > 10:
            continue
        for subset in range(1 << g.size):
            assert rank_of(g, subset) == brute_rank(g, subset), name


def test_subset_ranks_equals_greedy():
    for name, g in greedoid_instances():
        if g.size > 10:
            continue
        ranks = subset_ranks(g)
        for subset in range(1 << g.size):
            assert int(ranks[subset]) == rank_of(g, subset), name


def test_feasibility_iff_rank_equals_size():
    for name, g in greedoid_instances():
        if g.size > 10:
            continue
        for subset in range(1 << g.size):
            assert is_feasible(g, subset) == (rank_of(g, subset) == bin(subset).count("1")), name


def test_profile_counts_all_subsets():
    for name, g in greedoid_instances():
        profile = rank_size_profile(g)
        assert sum(profile.values()) == 1 << g.size, name


def test_parallel_classes_thickened_edge():
    g = to_greedoid(thicken(star_graph(1), 2))
    result = parallel_classes(g)
    assert result.classes == ((0, 1),)
    assert result.loop_class is None


def test_parallel_classes_path():
    result = parallel_classes(to_greedoid(path_graph(2)))
    assert result.classes == ((0,), (1,))


def test_parallel_classes_loop_flagged():
    result = parallel_classes(to_greedoid(LOOP_GRAPH))
    assert result.loop_class == (1,)
    assert (1,) in result.classes


def test_parallel_relation_is_partition_and_loops_cluster():
    for name, g in greedoid_instances():
        if g.size > 10:
            continue
        result = parallel_classes(g)
        flattened = sorted(e for cls in result.classes for e in cls)
        assert flattened == list(range(g.size)), name
        if result.loop_class:
            assert result.loop_class in result.classes, name


def test_thickened_copies_are_parallel():
    for carrier, k in [(star_graph(2), 2), (path_graph(2), 3), (demo_binary_matrix(), 2)]:
        g = to_greedoid(thicken(carrier, k))
        result = parallel_classes(g)
        membership = {}
        for idx, cls in enumerate(result.classes):
            for e in cls:
                membership[e] = idx
        base_size = g.size // k
        for e in range(base_size):
            copies = [e * k + i for i in range(k)]
            assert len({membership[c] for c in copies}) == 1


def test_verify_family_axioms_demo():
    family = enumerate_feasible_sets(DEMO)
    assert verify_family_axioms(DEMO.size, family).ok


def test_verify_family_axioms_gap_witness():
    report = verify_family_axioms(2, [0, mask_of([0, 1])])
    assert not report.ok
    assert report.violations[0].axiom == "G2"
    assert report.violations[0].witness == (((0, 1), ()))


def test_verify_family_axioms_missing_empty_set():
    report = verify_family_axioms(1, [mask_of([0])])
    assert any(v.axiom == "G1" for v in report.violations)


def test_verify_rank_axioms_on_real_tables():
    for name, g in greedoid_instances():
        if g.size > 10:
            continue
        assert verify_rank_axioms(g.size, subset_ranks(g)).ok, name


def test_verify_rank_axioms_violations():
    # GR1: rank above cardinality.
    table = np.zeros(4, dtype=np.int64)
    table[0] = 1
    report = verify_rank_axioms(2, table)
    assert any(v.axiom == "GR1" for v in report.violations)
    # GR2: rank drops when a superset is taken.
    table = np.array([1, 0, 1, 1], dtype=np.int64)
    report = verify_rank_axioms(2, table)
    assert any(v.axiom in ("GR1", "GR2") for v in report.violations)
    # GR3: two rank-preserving elements jump together.
    table = np.array([0, 0, 0, 1], dtype=np.int64)
    report = verify_rank_axioms(2, table)
    assert any(v.axiom == "GR3" for v in report.violations)


def test_axiom_checkers_stop_at_twenty_witnesses_in_axiom_order():
    """Each checker returns the first 20 witnesses of its axioms in order,
    by size of the larger set, then the smaller; by e, then f; by mask."""
    full = tuple(range(5))
    # no empty set; {3, 4} and every 3-set extend none of {0}, {1}, {2}: 1 + 3 + 30 violations
    family = [mask_of([e]) for e in range(3)] + [mask_of([3, 4])]
    family += [mask_of(c) for c in itertools.combinations(full, 3)]
    report = verify_family_axioms(5, family)
    bigs = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4)]  # by mask
    expected = [("G1", ())] + [("G2", ((3, 4), (s,))) for s in range(3)]
    expected += [("G2", (big, (s,))) for big in bigs for s in range(3)][:16]
    assert [(v.axiom, v.witness) for v in report.violations] == expected

    # rank 1 on singletons but 0 on pairs, and 6 on the whole set: GR1 once, and GR2 for
    # each element added to another's singleton, 20 times
    table = np.array([int(m.bit_count() in (1, 3, 4)) for m in range(32)])
    table[31] = 6
    report = verify_rank_axioms(5, table)
    expected = [("GR1", (full,))] + [("GR2", ((f,), e)) for e in full for f in full if f != e][:19]
    assert [(v.axiom, v.witness) for v in report.violations] == expected

    # rank 0 up to singletons and 1 above, and 6 on the whole set: GR1 once, and GR3 for
    # each pair e < f at the empty set and at the other three elements, 20 times
    table = np.array([int(m.bit_count() > 1) for m in range(32)])
    table[31] = 6
    report = verify_rank_axioms(5, table)
    expected = [("GR1", (full,))] + [
        ("GR3", (m, e, f)) for e, f in itertools.combinations(full, 2) for m in ((), tuple(sorted({*full} - {e, f})))
    ][:19]
    assert [(v.axiom, v.witness) for v in report.violations] == expected


def test_enumeration_bound_guard():
    g = Greedoid(21, lambda mask: mask == 0)
    with pytest.raises(GroundSetTooLargeError):
        enumerate_feasible_sets(g)
    assert enumerate_feasible_sets(g, max_elements=21) == [0]


def test_work_check_names_only_the_figures_past_the_limit():
    _check_work(5, [(2**26, "steps at the limit")])
    with pytest.raises(GroundSetTooLargeError) as refused:
        _check_work(5, [(2**30, "steps by one engine"), (2**10, "bits"), (3**30, "products by another")])
    assert str(refused.value) == (
        "these 5 elements take about 2^30 steps by one engine, and about 2^47 products by another, "
        "past the limit of 2^26"
    )


def test_family_axioms_refuse_too_many_pairs_before_checking():
    """All 2^16 subsets of 16 elements: about 2^30 pairs of different sizes."""
    with pytest.raises(GroundSetTooLargeError, match="2\\^30 pairs of feasible sets"):
        verify_family_axioms(16, range(1 << 16))
    assert verify_family_axioms(10, range(1 << 10)).ok


def test_rank_table_passes_hold_no_copy_of_the_table():
    """Both passes read a 16-edge path's 64 KiB rank table through views, so
    neither peaks at 8 times the table's bytes."""
    g = to_greedoid(path_graph(16))
    ranks = subset_ranks(g)
    for call in (lambda: verify_rank_axioms(16, ranks), lambda: parallel_classes(g)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * ranks.nbytes, call


@st.composite
def rank_tables(draw):
    """A family (with the empty set) on at most 6 elements, and its rank table with a few
    entries replaced by any integer from -2 to 7."""
    n = draw(st.integers(0, 6))
    family = draw(st.sets(st.integers(0, (1 << n) - 1))) | {0}
    table = [max(f.bit_count() for f in family if f & ~a == 0) for a in range(1 << n)]
    for a in draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4)):
        table[a] = draw(st.integers(-2, 7))
    return n, family, table


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rank_tables())
def test_rank_table_passes_match_a_loop_over_every_mask(case):
    """The witnesses, in order, and the parallel classes and loops, against one loop over every mask."""
    n, family, table = case
    masks = range(1 << n)
    expected = [("GR1", (elements_of(a),)) for a in masks if not 0 <= table[a] <= a.bit_count()]
    expected += [("GR2", (elements_of(a), e)) for e in range(n) for a in masks if table[a | 1 << e] < table[a]]
    expected += [
        ("GR3", (elements_of(a), e, f))
        for e, f in itertools.combinations(range(n), 2)
        for a in masks
        if not a >> e & 1 and not a >> f & 1
        and table[a | 1 << e] == table[a | 1 << f] == table[a] != table[a | 1 << e | 1 << f]
    ]
    report = verify_rank_axioms(n, np.array(table))
    assert [(v.axiom, v.witness) for v in report.violations] == expected[:20]

    g = Greedoid(n, family.__contains__)
    ranks = subset_ranks(g).tolist()

    def parallel(e, f):
        return all(ranks[a | 1 << e] == ranks[a | 1 << f] == ranks[a | 1 << e | 1 << f] for a in masks)

    classes: list[tuple[int, ...]] = []
    for f in range(n):  # f joins every class with an element parallel to it
        joined = [c for c in classes if any(parallel(e, f) for e in c)]
        classes = [c for c in classes if c not in joined] + [tuple(sorted({f, *(e for c in joined for e in c)}))]
    used = 0
    for a in enumerate_feasible_sets(g):
        used |= a
    loops = tuple(e for e in range(n) if not used >> e & 1) or None
    assert parallel_classes(g) == ParallelClasses(tuple(sorted(classes)), loops)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: Greedoid(-1, lambda m: True), id="negative-size"),
        pytest.param(lambda: Greedoid(2, lambda m: m != 0), id="infeasible-empty-set"),
        pytest.param(lambda: rank_size_profile(Greedoid(2, lambda m: True), 20, (1,)), id="class-sizes"),
        pytest.param(lambda: ExactMatrix([[1, 2], [3]]), id="ragged-rows"),
        pytest.param(lambda: ExactMatrix([[1, 2]]) @ ExactMatrix([[1, 2]]), id="matmul-dimensions"),
        pytest.param(lambda: ExactMatrix([[1, 2]]).apply([1]), id="apply-dimensions"),
        pytest.param(lambda: BivariatePoly.x() ** -1, id="negative-power"),
        pytest.param(lambda: BivariatePoly.monomial(-1, 0), id="negative-exponent"),
        pytest.param(lambda: LaurentPoly.monomial(-1).compose_shift(1), id="laurent-shift"),
        pytest.param(lambda: predicted_thickening(BivariatePoly.x(), 1, 2, mode="other"), id="thickening-mode"),
        pytest.param(lambda: Field(10**400), id="huge-characteristic"),
    ],
)
def test_bad_arguments_raise_precondition_errors(call):
    with pytest.raises(PreconditionError):
        call()


@pytest.mark.parametrize(
    "size, table, message",
    [
        (3, np.zeros(4), r"a rank table on a ground set of size 3 has 2\^3 entries, not 4"),
        (1, np.zeros(4), r"a rank table on a ground set of size 1 has 2\^1 entries, not 4"),
        (-1, np.zeros(4), "ground set size must be non-negative"),
    ],
)
def test_rank_table_of_the_wrong_size_is_refused_before_any_reshape(size, table, message):
    with pytest.raises(PreconditionError, match=message):
        verify_rank_axioms(size, table)
