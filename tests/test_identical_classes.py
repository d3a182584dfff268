"""Profiles computed over classes of identical elements agree with brute force."""

import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    BinaryMatrix,
    H0X,
    H0Y,
    HAlpha,
    LaurentPoly,
    LineY,
    RootedDigraph,
    RootedGraph,
    characteristic_polynomial,
    directed_path,
    identity_matrix,
    path_graph,
    predicted_thickening,
    predicted_thickening_eval,
    reliability_identity,
    spanning_tree_count,
    thicken,
    to_greedoid,
    tutte_eval,
    tutte_polynomial,
    tutte_restrict,
)
from greedoid_tutte import greedoid as greedoid_module
from greedoid_tutte import tutte as tutte_module
from greedoid_tutte.carriers import (
    carrier_elements,
    digraph_is_root_connected,
    format_carrier,
    merge_identical_elements,
    with_elements,
)
from greedoid_tutte.cli import main
from greedoid_tutte.errors import GroundSetTooLargeError
from greedoid_tutte.greedoid import rank_size_profile

from catalogues import seeded_rooted_graph

MAX_ELEMENTS = 12
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def rooted_multigraphs(draw, directed: bool, max_size: int = MAX_ELEMENTS):
    """Up to 12 edges or arcs on at most 4 vertices, so loops, repeats and
    opposite orientations of one pair are all common."""
    nv = draw(st.integers(1, 4))
    vertex = st.integers(0, nv - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=max_size))
    kind = RootedDigraph if directed else RootedGraph
    return kind(nv, tuple(pairs), draw(vertex))


@st.composite
def binary_matrices(draw, max_size: int = MAX_ELEMENTS):
    """Up to 12 columns of at most 3 rows, so equal columns are common."""
    rows = draw(st.integers(1, 3))
    column = st.tuples(*[st.integers(0, 1)] * rows)
    columns = draw(st.lists(column, min_size=1, max_size=max_size))
    return BinaryMatrix(tuple(zip(*columns)))


@PROPERTY
@given(st.one_of(rooted_multigraphs(False), rooted_multigraphs(True), binary_matrices()))
def test_class_profile_matches_brute_force(carrier):
    assert tutte_polynomial(carrier) == tutte_polynomial(to_greedoid(carrier))


def test_merge_identical_elements():
    graph = RootedGraph(3, ((0, 1), (1, 0), (1, 2), (2, 2), (2, 2), (0, 1)), 0)
    core, sizes = merge_identical_elements(graph)
    assert core == RootedGraph(3, ((0, 1), (1, 2), (2, 2)), 0)
    assert sizes == (3, 1, 2)
    digraph = RootedDigraph(2, ((0, 1), (1, 0), (0, 1)), 0)
    core, sizes = merge_identical_elements(digraph)
    assert core == RootedDigraph(2, ((0, 1), (1, 0)), 0)
    assert sizes == (2, 1)
    matrix = BinaryMatrix(((1, 0, 1), (0, 1, 0)))
    core, sizes = merge_identical_elements(matrix)
    assert core == BinaryMatrix(((1, 0), (0, 1)))
    assert sizes == (2, 1)
    simple = path_graph(3)
    assert merge_identical_elements(simple) == (simple, (1, 1, 1))


def test_thickening_bound_counts_every_element():
    thick = thicken(path_graph(3), 7)
    assert merge_identical_elements(thick)[1] == (7, 7, 7)
    with pytest.raises(GroundSetTooLargeError):
        tutte_polynomial(thick)
    assert tutte_eval(thick, 2, 2, max_elements=21) == 2**21


def test_one_large_class_profile():
    """1000 parallel edges at the root: the empty set has rank 0 and every
    other subset rank 1, so C(1000, k) subsets of k > 0 edges have surplus k - 1."""
    profile = rank_size_profile(to_greedoid(path_graph(1)), 1000, (1000,))
    assert profile == {(1, 0): 1, **{(0, k - 1): comb(1000, k) for k in range(1, 1001)}}


def test_all_repeated_core_counts_in_small_tables():
    """A star of 16 edges at the root, each a class of 2: the counts of core
    subsets by (deficit, singletons met, larger classes met) take 17 * 2^16
    entries, about 9 MiB, and no table grows with the product of rank and
    class count."""
    core = 16
    star = RootedGraph(core + 1, tuple((0, v) for v in range(1, core + 1)), 0)
    tracemalloc.start()
    try:
        profile = rank_size_profile(to_greedoid(star), 2 * core, (2,) * core)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # j classes met, each by (1+z)^2 - 1 = 2z + z^2: rank j and surplus s
    assert profile == {
        (core - j, s): comb(core, j) * comb(j, s) * 2 ** (j - s) for j in range(core + 1) for s in range(j + 1)
    }
    assert peak < 32 * 2**20


@PROPERTY
@given(
    st.one_of(rooted_multigraphs(False, 4), rooted_multigraphs(True, 4), binary_matrices(4)),
    st.integers(2, 4),
)
def test_thickened_profile_matches_brute_force(carrier, k):
    """A k-thickening's own profile, made by the engines run on the
    thickening itself, as when the carrier it thins to is refused, agrees
    with enumeration; its answers read the thinned carrier's profile."""
    thick = thicken(carrier, k)
    assert tutte_module._profile(thick, 16).counts == rank_size_profile(to_greedoid(thick), 16)


@pytest.fixture
def enumerations(monkeypatch):
    """The core size and class sizes of each enumeration behind a carrier profile, from an empty cache."""
    calls = []
    original = tutte_module.rank_size_profile

    def counted(greedoid, *rest):
        calls.append((greedoid.size, tuple(rest[-1])))
        return original(greedoid, *rest)

    monkeypatch.setattr(tutte_module, "rank_size_profile", counted)
    tutte_module._carrier_profile.cache_clear()
    return calls


@pytest.fixture
def engine_runs(monkeypatch):
    """The engine, core size and class sizes of each profile computed for a carrier, from an empty cache."""
    calls = []

    def counted(name, sizes_of):
        original = getattr(tutte_module, name)

        def wrapper(*args):
            sizes = tuple(sizes_of(*args))
            calls.append((name, len(sizes), sizes))
            return original(*args)

        monkeypatch.setattr(tutte_module, name, wrapper)

    counted("rank_size_profile", lambda greedoid, size, sizes: sizes)
    counted("vertex_subset_profile", lambda carrier, reached: merge_identical_elements(carrier)[1])
    counted("span_state_profile", lambda core, sizes, rank: sizes)
    tutte_module._carrier_profile.cache_clear()
    return calls


def test_one_enumeration_per_core(engine_runs):
    """Each 3-element core takes its family engine once: 3 products, or N(3) = 16 spans."""
    for base in (path_graph(3), identity_matrix(3)):  # both of rank 3
        for k in range(1, 8):
            expected = predicted_thickening(tutte_polynomial(base), 3, k)
            assert tutte_polynomial(thicken(base, k), max_elements=21) == expected
    assert engine_runs == [("vertex_subset_profile", 3, (1, 1, 1)), ("span_state_profile", 3, (1, 1, 1))]


def test_mixed_class_sizes_keep_the_class_route(engine_runs):
    thick = thicken(RootedGraph(3, ((0, 1), (1, 0), (1, 2)), 0), 2)  # classes of 4 and 2
    assert tutte_polynomial(thick) == tutte_polynomial(to_greedoid(thick))
    assert engine_runs == [("vertex_subset_profile", 2, (2, 1))]
    coprime = RootedGraph(3, ((0, 1), (1, 0), (0, 1), (1, 2), (2, 1)), 0)  # classes of 3 and 2
    assert tutte_polynomial(coprime) == tutte_polynomial(to_greedoid(coprime))
    assert engine_runs == [("vertex_subset_profile", 2, (2, 1)), ("vertex_subset_profile", 2, (3, 2))]


def test_class_table_past_the_limit_takes_the_vertex_engine(enumerations):
    """A 9-cycle with 3 chords, its 12 edges taken 20 or 21 times: 2^12 steps
    by enumeration are fewer than the vertex-subset engine's 3^8 products,
    but the enumeration's class products take about 2^26.9 bits."""
    pairs = [(i, (i + 1) % 9) for i in range(9)] + [(0, 4), (2, 6), (3, 7)]
    graph = RootedGraph(9, tuple(p for j, p in enumerate(pairs) for _ in range(20 + j % 2)), 0)
    assert tutte_eval(graph, 2, 2, max_elements=246) == 2**246
    assert tutte_eval(graph, 1, 1, max_elements=246) == spanning_tree_count(graph)
    assert enumerations == []


def test_thickened_path_beyond_the_vertex_engine():
    """At 400 elements the vertex-subset engine would take about 2^26 bits;
    the 200-element core's profile fits, and so does its expansion, about
    (200 + 1)(400 + 1)^2 = 2^24.9 bits."""
    thick = thicken(path_graph(200), 2)
    assert tutte_eval(thick, 2, 2, max_elements=400) == 2**400
    assert tutte_eval(thick, 1, 1, max_elements=400) == spanning_tree_count(thick) == 2**200


def test_thickening_refused_by_its_own_figures():
    """The 2-thickened 340-path's expansion would take 341 * 681^2 = 2^27.2
    bits; the 2-thickened K18's fits, but its core takes 3^17 products.  Both
    are refused by the carrier's own figures, not the core's."""
    with pytest.raises(GroundSetTooLargeError) as refused:
        tutte_eval(thicken(path_graph(340), 2), 2, 2, max_elements=680)
    assert str(refused.value) == (
        "these 680 elements take about 2^340 steps by enumeration, and about 2^28 bits"
        " by the vertex-subset engine, past the limit of 2^26"
    )
    complete = RootedGraph(18, tuple((i, j) for i in range(18) for j in range(i + 1, 18)), 0)
    with pytest.raises(GroundSetTooLargeError) as refused:
        tutte_eval(thicken(complete, 2), 2, 2, max_elements=306)
    assert str(refused.value) == (
        "these 306 elements take about 2^153 steps by enumeration, and about 2^26 products"
        " by the vertex-subset engine, past the limit of 2^26"
    )


@st.composite
def repeating_carriers(draw):
    """A graph, digraph or matrix of at most 4 elements whose first element
    is repeated, so most of its thickenings thin to a carrier that is not
    their core."""
    kinds = st.one_of(rooted_multigraphs(False, 3), rooted_multigraphs(True, 3), binary_matrices(3))
    carrier = draw(kinds.filter(lambda c: c.edge_count))
    elements = carrier_elements(carrier)
    return with_elements(carrier, elements + elements[:1])


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def thickened_points(draw):
    """k and (a, b): b = -1 with k even, b = 1, b = 0, a = 1, or any rationals."""
    k = draw(st.integers(2, 3))
    case = draw(st.sampled_from(("b=-1", "b=1", "b=0", "a=1", "any")))
    a, b = draw(RATIONALS), draw(RATIONALS)
    if case == "b=-1":
        k, b = 2, Fraction(-1)
    elif case == "a=1":
        a = Fraction(1)
    elif case != "any":
        b = Fraction(case[-1])
    return k, a, b


@PROPERTY
@given(repeating_carriers(), thickened_points())
def test_point_route_matches_enumeration(carrier, point):
    k, a, b = point
    thick = thicken(carrier, k)
    assert tutte_module._thinned(thick)[1] % k == 0
    assert tutte_eval(thick, a, b, 16) == tutte_eval(to_greedoid(thick), a, b, 16)


def test_point_queries_expand_no_profile(monkeypatch):
    """reduce's top query on the 12-vertex, 40-edge base: 2080 elements, read
    off the base's profile with no expansion."""
    base = seeded_rooted_graph(12, 40, 7)
    tutte_module._carrier_profile.cache_clear()

    def refused(*args):
        raise AssertionError("a point query expanded a profile")

    monkeypatch.setattr(tutte_module, "expand", refused)
    value = tutte_eval(thicken(base, 52), 3, Fraction(3, 2), max_elements=2080)
    assert value == predicted_thickening_eval(tutte_polynomial(base, 40), 11, 52, 3, Fraction(3, 2))


ONE_Y_POINTS = [(2, 3), (Fraction(-1, 2), 1), (3, 0), (Fraction(1, 3), -1), (1, Fraction(3, 2))]


@settings(PROPERTY, max_examples=60)
@given(st.one_of(rooted_multigraphs(False, 3), rooted_multigraphs(True, 3), binary_matrices(3)), st.integers(2, 4))
def test_answers_at_one_y_read_the_base_profile(carrier, g):
    """Points, the lines y = c and y = 1 and the characteristic polynomial of
    a g-thickening are sums at one y over its base's profile: none thickens a
    profile or makes the thickening's own, and each equals the enumerated
    greedoid's."""
    thick = thicken(carrier, g)
    reference = to_greedoid(thick)

    def refused(*args):
        raise AssertionError("an answer at one y thickened a profile")

    tutte_module._carrier_profile.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tutte_module, "expand", refused)
        for a, b in ONE_Y_POINTS:
            assert tutte_eval(thick, a, b, 12) == tutte_eval(reference, a, b, 12)
        for curve in (H0Y(), LineY(2), LineY(-1), LineY(Fraction(-1, 2))):
            assert tutte_restrict(thick, curve, 12) == tutte_restrict(reference, curve, 12)
        assert characteristic_polynomial(thick, 12) == characteristic_polynomial(reference, 12)
    assert tutte_module._carrier_profile.cache_info().currsize == 1  # the base's profile, and not the thickening's
    # at y = 0 the weight q is 1 and y^g - 1 is -1, so the sum is the base's own
    assert characteristic_polynomial(thick, 12) == characteristic_polynomial(carrier)


def test_answers_at_one_y_on_the_thickened_long_path():
    """The 4-thickened 200-edge path: 800 elements, past the vertex-subset
    engine's bits, but every answer at one y reads the path's own profile.
    T(x, 1) is the sum over the paths of r edges from the root of 4^r
    (x-1)^(200-r), one term per choice of copies; T(2, 2) is 2^800; and on
    y = -1 the weight q = 1 - 1 + 1 - 1 is 0, so only the empty set counts."""
    thick = thicken(path_graph(200), 4)
    tutte_module._carrier_profile.cache_clear()
    start = time.perf_counter()
    assert tutte_restrict(thick, H0Y(), max_elements=800).evaluate(2) == (4**201 - 1) // 3
    assert tutte_restrict(thick, LineY(2), max_elements=800).evaluate(1) == 2**800
    assert tutte_restrict(thick, LineY(-1), max_elements=800) == LaurentPoly({200: Fraction(1)})
    assert characteristic_polynomial(thick, max_elements=800) == characteristic_polynomial(path_graph(200), 200)
    assert time.perf_counter() - start < 5



@settings(PROPERTY, max_examples=60)
@given(st.one_of(rooted_multigraphs(False, 3), rooted_multigraphs(True, 3), binary_matrices(3)), st.integers(2, 4))
def test_every_answer_reads_the_base_profile(carrier, g):
    """The polynomial, the line x = 1 and the hyperbolas of a g-thickening
    are read off its base's profile with weights in g, and equal the
    enumerated greedoid's; so does the reliability sum, read off x = 1.  No
    profile of the thickening's own is made."""
    thick = thicken(carrier, g)
    reference = to_greedoid(thick)
    tutte_module._carrier_profile.cache_clear()
    assert tutte_polynomial(thick, 12) == tutte_polynomial(reference, 12)
    for curve in (H0X(), HAlpha(2), HAlpha(Fraction(-1, 3)), HAlpha(1)):
        assert tutte_restrict(thick, curve, 12) == tutte_restrict(reference, curve, 12)
    if isinstance(thick, RootedDigraph) and digraph_is_root_connected(thick):
        for p in (Fraction(1, 3), Fraction(1, 2)):
            direct, reconstructed = reliability_identity(thick, p, 12)
            assert direct == reconstructed
    assert tutte_module._carrier_profile.cache_info().currsize == 1  # the base's profile, and not the thickening's


def test_every_curve_on_the_thickened_long_path():
    """The 4-thickened 200-edge path: T(1, y) is (1 + y + y^2 + y^3)^200,
    each edge's class met by a nonempty part of its four copies, and on
    (x-1)(y-1) = 1 the restriction is z^-200 (1 + z)^800, the closed form
    (a-1)^(rank - n) a^n at a = 1 + 1/z.  The polynomial itself is still
    refused by the expansion's figure, 201 * 801^2 = 2^26.9 bits."""
    thick = thicken(path_graph(200), 4)
    tutte_module._carrier_profile.cache_clear()
    start = time.perf_counter()
    power = [1]
    for _ in range(200):
        power = [sum(power[max(0, j - 3) : j + 1]) for j in range(len(power) + 3)]
    assert tutte_restrict(thick, H0X(), max_elements=800) == LaurentPoly(dict(enumerate(power)))
    closed = LaurentPoly({j - 200: Fraction(comb(800, j)) for j in range(801)})
    assert tutte_restrict(thick, HAlpha(1), max_elements=800) == closed
    with pytest.raises(GroundSetTooLargeError):
        tutte_polynomial(thick, max_elements=800)
    assert time.perf_counter() - start < 5


def test_reliability_of_a_thickened_long_path():
    """400 arcs: the reliability sum reads the spanning sets off x = 1,
    from the 200-arc path's profile alone, and agrees with the
    reconstruction: each pair of arcs survives unless both are deleted."""
    tutte_module._carrier_profile.cache_clear()
    direct, reconstructed = reliability_identity(thicken(directed_path(200), 2), Fraction(1, 3), 400)
    assert direct == reconstructed == (1 - Fraction(1, 9)) ** 200
    assert tutte_module._carrier_profile.cache_info().currsize == 1


def test_class_table_refused_before_the_rank_table(monkeypatch, tmp_path, capsys):
    """The 10-vertex, 30-edge base thickened 14 times, plus one more copy of
    a single edge: 421 elements in 22 classes of gcd 1.  The vertex-subset
    engine's 76.9M bits are past the limit; class enumeration's 2^22 steps
    fit, but its class products take (421 + 1)(2^22 + 2^21 * 421) = 2^38.4 bits."""
    base = seeded_rooted_graph(10, 30, 7)
    single = next(e for e in base.edges if base.edges.count(e) + base.edges.count(e[::-1]) == 1)
    carrier = with_elements(base, thicken(base, 14).edges + (single,))
    assert carrier.edge_count == 421 and len(merge_identical_elements(carrier)[1]) == 22

    def refused(*args):
        raise AssertionError("the rank table was made")

    monkeypatch.setattr(greedoid_module, "subset_ranks", refused)
    tutte_module._carrier_profile.cache_clear()
    with pytest.raises(GroundSetTooLargeError, match=r"about 2\^38 bits by class enumeration"):
        tutte_eval(carrier, 3, Fraction(3, 2), max_elements=10**9)
    path = tmp_path / "g421.graph"
    path.write_text(format_carrier(carrier))
    assert main(["eval", str(path), "--x", "3", "--y", "3/2", "--max-elements", "421"]) == 4
    assert "2^38 bits by class enumeration" in capsys.readouterr().err

