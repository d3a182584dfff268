"""The router's choices on both sides of the crossover between class
enumeration and each family engine, at the calibrated costs, each profile
checked against subset enumeration of the carrier's greedoid."""

from fractions import Fraction
from math import comb

import pytest

from greedoid_tutte import (
    BinaryMatrix,
    HAlpha,
    LaurentPoly,
    RootedDigraph,
    RootedGraph,
    directed_path,
    directed_star,
    identity_matrix,
    path_graph,
    star_graph,
    thicken,
    to_greedoid,
    tutte_eval,
    tutte_polynomial,
    tutte_restrict,
)
from greedoid_tutte import tutte as tutte_module
from greedoid_tutte.carriers import carrier_rank
from greedoid_tutte.constructions import attach_digraphs, attach_graphs
from greedoid_tutte.tutte import spanning_tree_count

from catalogues import seeded_rooted_digraph, seeded_rooted_graph, seeded_simple_carrier
from test_span_profile import random_matrix, weight_three

ENGINES = ("rank_size_profile", "vertex_subset_profile", "span_state_profile")


@pytest.fixture
def engines(monkeypatch):
    """Name the engine behind each carrier profile, starting from an empty cache."""
    calls = []
    for name in ENGINES:
        engine = getattr(tutte_module, name)
        monkeypatch.setattr(tutte_module, name, lambda *a, f=engine, n=name: calls.append(n) or f(*a))
    tutte_module._carrier_profile.cache_clear()
    return calls


def cycle(n: int) -> RootedGraph:
    return RootedGraph(n, tuple((i, (i + 1) % n) for i in range(n)), 0)


ROUTES = [
    # family engine: a few products or spans against enumeration's fixed cost per call
    ("path-3", path_graph(3), "vertex_subset_profile"),  # 3 products against 50 + 0.75 * 2^3 us
    ("star-3", star_graph(3), "vertex_subset_profile"),
    ("spider-3", RootedGraph(4, ((0, 1), (1, 2), (1, 3)), 0), "vertex_subset_profile"),
    ("dpath-3", directed_path(3), "vertex_subset_profile"),
    ("dstar-3", directed_star(3), "vertex_subset_profile"),
    ("dspider-3", RootedDigraph(4, ((0, 1), (1, 2), (1, 3)), 0), "vertex_subset_profile"),
    ("path-2", path_graph(2), "vertex_subset_profile"),  # 2 products against 2^2 subsets
    ("identity-3", identity_matrix(3), "span_state_profile"),  # N(3) = 16 spans against 2^3 subsets
    ("upper-3", BinaryMatrix(((1, 1, 0), (0, 1, 1), (0, 0, 1), (1, 0, 1))), "span_state_profile"),
    ("C4", cycle(4), "vertex_subset_profile"),  # 3^3 products against 2^4 subsets
    ("C6", cycle(6), "vertex_subset_profile"),  # 3^5 products, 36 us, against 98 us
    ("identity-6", identity_matrix(6), "span_state_profile"),  # 2^9 spans, 77 us, against 48 us + the call's 50
    ("weight-3-6x12", weight_three(6, 12), "span_state_profile"),  # N(6) = 2825 spans, 424 us, against 3122 us
    # a matrix has one engine, at most 2^classes spans whatever enumeration would cost
    ("identity-8", identity_matrix(8), "span_state_profile"),  # 2^8 spans
    ("random-7x9", random_matrix(7, 9, 5), "span_state_profile"),  # rank 7, 8 classes: 2^8 spans
    ("random-12x14", random_matrix(12, 14, 1), "span_state_profile"),  # rank 12, 14 classes: 2^14 spans
    # enumeration: a long cycle has few feasible sets, a square matrix too many spans
    ("C10", cycle(10), "rank_size_profile"),  # 3^9 products, 2952 us, against 818 us
    ("C12", cycle(12), "rank_size_profile"),
    ("C14", cycle(14), "rank_size_profile"),  # 3^13 products against 2^14 subsets
    ("identity-12", identity_matrix(12), "span_state_profile"),  # at most 2^12 spans: every matrix takes the span engine
]


@pytest.mark.parametrize("carrier, engine", [route[1:] for route in ROUTES], ids=[route[0] for route in ROUTES])
def test_route_matches_enumeration(engines, carrier, engine):
    assert tutte_polynomial(carrier, max_elements=14) == tutte_polynomial(to_greedoid(carrier), max_elements=14)
    assert engines == [engine]


def test_class_table_past_the_limit_takes_the_vertex_engine(engines):
    """The 246-element carrier of 12 classes: enumeration's class products
    take about 2^26.9 bits, so the vertex engine runs whatever it costs.  Its
    2^246 subsets cannot be enumerated, so the profile is checked at the
    points (2, 2) and (1, 1)."""
    pairs = [(i, (i + 1) % 9) for i in range(9)] + [(0, 4), (2, 6), (3, 7)]
    graph = RootedGraph(9, tuple(p for j, p in enumerate(pairs) for _ in range(20 + j % 2)), 0)
    assert tutte_eval(graph, 2, 2, max_elements=246) == 2**246
    assert tutte_eval(graph, 1, 1, max_elements=246) == spanning_tree_count(graph)
    assert engines == ["vertex_subset_profile"]


H1_CARRIERS = [
    # the carrier, its element bound and the lift of its route: 1 for its own profile
    ("own graph", seeded_rooted_graph(12, 40, 7), 40, 1),
    ("own digraph", seeded_rooted_digraph(12, 40, 7), 40, 1),
    ("own matrix", random_matrix(9, 27, 5), 27, 1),
    ("thickening", thicken(path_graph(200), 4), 800, 4),
    ("leaf graph", attach_graphs(seeded_simple_carrier(12, 40, 7), star_graph(3)), 73, (11, 3, 0)),
    ("leaf digraph", attach_digraphs(seeded_simple_carrier(12, 40, 7, True), directed_star(3)), 73, (11, 3, 0)),
]


@pytest.mark.parametrize(
    "carrier, max_elements, lift", [case[1:] for case in H1_CARRIERS], ids=[case[0] for case in H1_CARRIERS]
)
def test_hyperbola_one_on_every_route(carrier, max_elements, lift):
    """On (x-1)(y-1) = 1 each subset A weighs z^(|A| - R) at x = 1 + 1/z,
    y = 1 + z, so the restriction is z^-R (1 + z)^m whatever the carrier's
    shape, on its own route, the thickening route and the leaf route alike."""
    assert tutte_module._base_route(carrier, max_elements)[1] == lift
    size, rank = carrier.edge_count, carrier_rank(carrier)
    closed = LaurentPoly({j - rank: Fraction(comb(size, j)) for j in range(size + 1)})
    assert tutte_restrict(carrier, HAlpha(1), max_elements) == closed
