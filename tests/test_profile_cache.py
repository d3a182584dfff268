"""One subset profile per carrier or greedoid, shared by every Tutte query."""

import dataclasses
import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    H0X,
    H0Y,
    BinaryMatrix,
    Greedoid,
    HAlpha,
    LineY,
    RootedDigraph,
    RootedGraph,
    SubsetProfile,
    characteristic_polynomial,
    hyperbola_restriction,
    line_y_restriction,
    path_graph,
    thicken,
    to_greedoid,
    tutte_eval,
    tutte_polynomial,
    tutte_restrict,
)
from greedoid_tutte import greedoid as greedoid_module
from greedoid_tutte import tutte as tutte_module
from greedoid_tutte.errors import GroundSetTooLargeError

MAX_ELEMENTS = 10
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
POINTS = ((Fraction(2), Fraction(3)), (Fraction(-1), Fraction(1, 2)), (Fraction(3), Fraction(3, 2)))
ALPHA, C = Fraction(2, 3), Fraction(-1, 2)
CURVES = (HAlpha(ALPHA), H0X(), H0Y(), LineY(C))


def nine_queries(source):
    """The queries a profile-queries op asks about one carrier."""
    return (
        tutte_polynomial(source),
        [tutte_eval(source, a, b) for a, b in POINTS],
        [tutte_restrict(source, curve) for curve in CURVES],
        characteristic_polynomial(source),
    )


@st.composite
def carriers(draw):
    """Rooted (di)graphs on at most 4 vertices and binary matrices of at most
    3 rows, up to 10 elements, so repeated elements are common."""
    kind = draw(st.sampled_from(("graph", "digraph", "binary")))
    if kind == "binary":
        rows = draw(st.integers(1, 3))
        column = st.tuples(*[st.integers(0, 1)] * rows)
        columns = draw(st.lists(column, min_size=1, max_size=MAX_ELEMENTS))
        return BinaryMatrix(tuple(zip(*columns)))
    nv = draw(st.integers(1, 4))
    vertex = st.integers(0, nv - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=MAX_ELEMENTS))
    family = RootedGraph if kind == "graph" else RootedDigraph
    return family(nv, tuple(pairs), draw(vertex))


@pytest.fixture
def profile_count(monkeypatch):
    """The engine and element count of each profile computed, starting from an empty carrier cache."""
    calls = []

    def counted(module, name, size_of):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, size_of(args[0])))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(tutte_module, "rank_size_profile", lambda greedoid: greedoid.size)
    counted(greedoid_module, "rank_size_profile", lambda greedoid: greedoid.size)
    counted(tutte_module, "vertex_subset_profile", lambda carrier: carrier.edge_count)
    tutte_module._carrier_profile.cache_clear()
    return calls


def test_bound_checked_before_the_cache():
    carrier = thicken(path_graph(3), 2)
    greedoid = to_greedoid(carrier)
    for source in (carrier, greedoid):
        tutte_polynomial(source)
        bound = carrier.edge_count - 1
        with pytest.raises(GroundSetTooLargeError):
            tutte_polynomial(source, bound)
        with pytest.raises(GroundSetTooLargeError):
            tutte_eval(source, 2, 3, bound)
        with pytest.raises(GroundSetTooLargeError):
            tutte_restrict(source, H0X(), bound)
        with pytest.raises(GroundSetTooLargeError):
            characteristic_polynomial(source, bound)


def test_profile_is_read_only():
    counts = {(0, 0): 1}
    profile = SubsetProfile(counts, 0, 0)
    counts[(0, 0)] = 5
    assert profile.counts == {(0, 0): 1}
    for source in (to_greedoid(path_graph(2)).profile(), tutte_module._profile(path_graph(2), 2)):
        with pytest.raises(TypeError):
            source.counts[(0, 0)] = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            source.rank = 0
    assert tutte_polynomial(path_graph(2)) == tutte_polynomial(to_greedoid(path_graph(2)))


def test_greedoid_keeps_its_rank_and_profile():
    """A second rank read or profile() call asks the oracle nothing, and the
    bound is still checked on every call."""
    calls = 0

    def oracle(mask):
        nonlocal calls
        calls += 1
        return mask.bit_count() <= 2

    def calls_for(*reads):
        nonlocal calls
        greedoid = Greedoid(4, oracle)
        calls = 0
        for read in reads:
            read(greedoid)
        return calls

    rank, profile = (lambda g: g.rank), (lambda g: g.profile())
    assert calls_for(rank, rank) == calls_for(rank) > 0
    assert calls_for(profile, profile) == calls_for(profile) > 0
    assert calls_for(rank, profile, rank, profile) == calls_for(profile)
    greedoid = Greedoid(4, oracle)
    kept = greedoid.profile()
    with pytest.raises(GroundSetTooLargeError):
        greedoid.profile(max_elements=greedoid.size - 1)
    assert greedoid.profile(max_elements=greedoid.size) is kept
    assert list(inspect.signature(Greedoid).parameters) == ["size", "feasible_mask", "name"]


def test_distinct_greedoids_never_share_a_profile():
    free = Greedoid(3, lambda mask: True)
    one = Greedoid(3, lambda mask: mask & (mask - 1) == 0)  # the empty set and singletons
    assert tutte_polynomial(free) == tutte_polynomial(to_greedoid(RootedGraph(4, ((0, 1), (0, 2), (0, 3)), 0)))
    assert tutte_eval(free, 2, 2) == tutte_eval(one, 2, 2) == 8
    assert free.profile() is not one.profile()
    assert free.profile().rank == 3 and one.profile().rank == 1
    assert tutte_eval(free, 1, 1) == 1
    assert tutte_eval(one, 1, 1) == 3


def test_one_profile_per_source(profile_count):
    carrier = thicken(path_graph(3), 2)
    nine_queries(carrier)
    nine_queries(dataclasses.replace(carrier))  # an equal carrier shares the entry
    assert profile_count == [("vertex_subset_profile", 3)]  # one profile, of the 3-element core
    greedoid = to_greedoid(carrier)
    nine_queries(greedoid)
    nine_queries(greedoid)
    assert profile_count == [("vertex_subset_profile", 3), ("rank_size_profile", 6)]


@PROPERTY
@given(carriers())
def test_warm_cache_matches_fresh_greedoid(carrier):
    first = nine_queries(carrier)
    assert nine_queries(carrier) == first
    assert nine_queries(to_greedoid(carrier)) == first
    poly, values, (halpha, _, _, line), _ = first
    assert values == [poly.evaluate(a, b) for a, b in POINTS]
    assert halpha == hyperbola_restriction(poly, ALPHA)
    assert line == line_y_restriction(poly, C)


def test_classes_merged_once_per_profile(monkeypatch):
    """A profile made from scratch merges its carrier's classes once: the
    thinning and the carrier's own route share one merge."""
    merged = []
    merge = tutte_module.merge_identical_elements
    monkeypatch.setattr(tutte_module, "merge_identical_elements", lambda c: merged.append(c) or merge(c))
    tutte_module._carrier_profile.cache_clear()
    tutte_module._thinned.cache_clear()
    graph = RootedGraph(3, ((0, 1), (0, 1), (1, 2), (2, 0)), 0)  # classes of 2, 1 and 1, so g = 1, and no leaf
    matrix = BinaryMatrix(((1, 1, 0, 1), (0, 1, 1, 1)))  # no repeated column, so g = 1
    for carrier in (graph, matrix):
        nine_queries(carrier)
        nine_queries(carrier)
        assert merged.pop() == carrier and not merged
    thick = thicken(path_graph(3), 2)  # its answers read the profile of the path it thins to
    nine_queries(thick)
    assert merged[0] == thick and len(merged) == 2 and merged[1].edge_count == 3
