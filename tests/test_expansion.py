"""The profile-to-answer layer: the packed Taylor shifts of the expansion and
of the two lines x = 1 and y = 1, against the binomial shift."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    H0X,
    H0Y,
    BinaryMatrix,
    RootedDigraph,
    RootedGraph,
    path_graph,
    spanning_tree_count,
    thicken,
    tutte_polynomial,
    tutte_restrict,
)
from greedoid_tutte import greedoid as greedoid_module
from greedoid_tutte import tutte as tutte_module
from greedoid_tutte.greedoid import expand
from greedoid_tutte.polynomials import LaurentPoly
from greedoid_tutte.primitives import binomial_shift, shift_minus_one, signed_fields

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def reference_expand(counts):
    """One binomial shift in y per deficit, then one in x per power of y; zero coefficients dropped."""
    by_deficit: dict[int, dict[int, int]] = {}
    for (d, s), count in counts.items():
        by_deficit.setdefault(d, {})[s] = count
    by_y: dict[int, dict[int, int]] = {}
    for d, row in by_deficit.items():
        for j, c in enumerate(binomial_shift(row, -1)):
            by_y.setdefault(j, {})[d] = c
    return {(i, j): c for j, col in by_y.items() for i, c in enumerate(binomial_shift(col, -1)) if c}


COUNTS = st.one_of(st.integers(1, 50), st.integers(1, 2**300))
DEFICIT = st.integers(0, 9)
SURPLUS = st.integers(0, 40)  # past 16, the columns fold in more than one block


@st.composite
def count_maps(draw):
    """Counts on one row, one column, rows with gaps between them, or anywhere."""
    shape = draw(st.sampled_from(("row", "column", "gaps", "any")))
    if shape == "row":
        d = draw(DEFICIT)
        keys = st.builds(lambda s: (d, s), SURPLUS)
    elif shape == "column":
        s = draw(SURPLUS)
        keys = st.builds(lambda d: (d, s), DEFICIT)
    elif shape == "gaps":
        keys = st.tuples(st.sampled_from((0, 3, 7)), SURPLUS)
    else:
        keys = st.tuples(DEFICIT, SURPLUS)
    return draw(st.dictionaries(keys, COUNTS, max_size=12))


@PROPERTY
@given(count_maps())
def test_expand_matches_two_binomial_shifts(counts):
    expanded = expand(counts)
    assert expanded == reference_expand(counts)
    assert all(type(c) is int and c for c in expanded.values())


@PROPERTY
@given(st.lists(st.integers(-(2**300), 2**300), max_size=12))
def test_line_shift_matches_the_binomial_shift(coeffs):
    assert shift_minus_one(coeffs) == binomial_shift(dict(enumerate(coeffs)), -1)


@st.composite
def signed_packings(draw):
    """A width and up to 40 ints each of absolute value below 2^(width - 1)."""
    width = draw(st.integers(2, 40))
    bound = 2 ** (width - 1)
    return width, draw(st.lists(st.integers(1 - bound, bound - 1), max_size=40))


@PROPERTY
@given(signed_packings())
def test_signed_fields_read_back_signed_packing(case):
    width, values = case
    packed = sum(v << k * width for k, v in enumerate(values))
    assert signed_fields(packed, width, len(values)) == values


def _line_sums(poly, axis):
    sums: dict[int, Fraction] = {}
    for key, c in poly.terms.items():
        sums[key[axis]] = sums.get(key[axis], 0) + c
    return LaurentPoly(sums)


@st.composite
def small_carriers(draw):
    """Graphs and digraphs of up to 8 edges on at most 4 vertices, or binary matrices of up to 8 columns."""
    kind = draw(st.sampled_from((RootedGraph, RootedDigraph, BinaryMatrix)))
    if kind is BinaryMatrix:
        rows = draw(st.integers(1, 3))
        columns = draw(st.lists(st.tuples(*[st.integers(0, 1)] * rows), min_size=1, max_size=8))
        return BinaryMatrix(tuple(zip(*columns)))
    nv = draw(st.integers(1, 4))
    vertex = st.integers(0, nv - 1)
    return kind(nv, tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=8))), draw(vertex))


def test_lines_read_the_profile_without_its_expansion(monkeypatch):
    """T(1, y) of the 4-thickened 100-edge path is (1 + y + y^2 + y^3)^100 (each
    of its classes met by a nonempty part of its four copies), and T(x, 1) is
    the sum of 4^r (x-1)^(100-r) over its feasible sets, the paths from the root."""

    def refused(*args):
        raise AssertionError("a line restriction expanded the profile")

    monkeypatch.setattr(greedoid_module, "expand", refused)
    tutte_module._carrier_profile.cache_clear()
    thick = thicken(path_graph(100), 4)
    power = [1]
    for _ in range(100):
        power = [sum(power[max(0, j - 3) : j + 1]) for j in range(len(power) + 3)]
    assert tutte_restrict(thick, H0X(), max_elements=400) == LaurentPoly(dict(enumerate(power)))
    feasible = binomial_shift({100 - r: 4**r for r in range(101)}, -1)
    assert tutte_restrict(thick, H0Y(), max_elements=400) == LaurentPoly(dict(enumerate(feasible)))


@settings(PROPERTY, max_examples=100)
@given(small_carriers())
def test_lines_are_the_line_sums_of_the_polynomial(carrier):
    poly = tutte_polynomial(carrier)
    assert tutte_restrict(carrier, H0X()) == _line_sums(poly, 1)
    assert tutte_restrict(carrier, H0Y()) == _line_sums(poly, 0)


def test_thickened_path_polynomial_at_scale():
    """240 elements: the 60-edge path's profile, expanded with weights in g = 4."""
    thick = thicken(path_graph(60), 4)
    poly = tutte_polynomial(thick, max_elements=240)
    assert poly.evaluate(2, 2) == 2**240
    assert poly.evaluate(1, 1) == spanning_tree_count(thick) == 4**60
