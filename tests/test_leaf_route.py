"""A carrier with k pendant leaves at every non-root vertex is profiled from
its core's profile, and the star attachments of the reductions run no engine
of their own."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    LineY,
    RootedDigraph,
    RootedGraph,
    brute_force_oracle,
    directed_path,
    directed_star,
    identity_matrix,
    interpolate_line_y_minus1,
    path_graph,
    predicted_attachment,
    spanning_tree_count,
    star_graph,
    thicken,
    to_greedoid,
    tutte_eval,
    tutte_polynomial,
    tutte_restrict,
)
from greedoid_tutte import tutte as tutte_module
from greedoid_tutte.carriers import carrier_rank, format_carrier
from greedoid_tutte.cli import main
from greedoid_tutte.constructions import attach_digraphs, attach_graphs
from greedoid_tutte.errors import GroundSetTooLargeError
from greedoid_tutte.greedoid import deficit_rows, rank_size_profile

from catalogues import seeded_rooted_digraph, seeded_rooted_graph, seeded_simple_carrier

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
ENGINES = ("rank_size_profile", "vertex_subset_profile", "span_state_profile")
FLAWS = ("reversed leaf arc", "isolated edge", "loop at a leaf", "repeated leaf element")
# drawn with the flaws, as often as each, but a repeated core element is no flaw
EXTRAS = FLAWS + ("repeated core element",)


@st.composite
def leafy_carriers(draw):
    """A core of at most 4 vertices and 3 elements, where loops, repeats and
    vertices the root does not reach are common, with k = 1..3 leaves hung
    from each non-root vertex and 0..2 from the root.  The core's vertices
    keep their order among the carrier's, and the elements come in any
    order.  In a third of the draws one flaw is added, or a copy of a core
    element, which is no flaw: the core keeps it.

    Returns the carrier, the core the route must strip it to when it must
    fire, and whether it must.  It must when the draw is sound (some leaf,
    and every non-root vertex of the core touched by two or more elements:
    k >= 2, or some element of the core) and has no flaw, and must not when
    it is sound with a flaw, or not sound with none.  A flaw on a draw that
    is not sound may turn a vertex with one leaf and no other element into
    a leaf of its own leaf, a split the route may take, so that case is
    left open (None).
    """
    directed = draw(st.booleans())
    nv = draw(st.integers(1, 4))
    vertex = st.integers(0, nv - 1)
    core_pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    root = draw(vertex)
    k, k_root = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    total = nv + k * (nv - 1) + k_root
    kept = sorted(draw(st.sets(st.integers(0, total - 1), min_size=nv, max_size=nv)))  # core vertex -> label
    spare = iter(v for v in range(total) if v not in kept)
    leaves = [(kept[v], next(spare)) for v in range(nv) for _ in range(k_root if v == root else k)]
    items = [((kept[u], kept[v]), False) for u, v in core_pairs] + [(leaf, True) for leaf in leaves]
    flaw = draw(st.sampled_from(EXTRAS)) if draw(st.integers(0, 2)) == 0 else None
    if flaw == "reversed leaf arc" and leaves:
        directed = True
        i = draw(st.integers(len(core_pairs), len(items) - 1))
        items[i] = (items[i][0][::-1], False)
    elif flaw == "isolated edge":
        items.append(((total, total + 1), False))
        total += 2
    elif flaw == "loop at a leaf" and leaves:
        leaf = draw(st.sampled_from(leaves))[1]
        items.append(((leaf, leaf), False))
    elif flaw == "repeated leaf element" and leaves:
        items.append((draw(st.sampled_from(leaves)), True))
    else:
        if flaw == "repeated core element" and core_pairs:
            items.append(items[draw(st.integers(0, len(core_pairs) - 1))])
        flaw = None
    items = draw(st.permutations(items))
    kind = RootedDigraph if directed else RootedGraph
    carrier = kind(total, tuple(pair for pair, _ in items), kept[root])
    touched = {v for pair in core_pairs for v in pair}
    sound = len(leaves) > 0 and all(k > 1 or v in touched for v in range(nv) if v != root)
    fires = sound if flaw is None else False if sound else None
    core = None
    if fires:
        core = kind(nv, tuple((kept.index(u), kept.index(v)) for (u, v), leaf in items if not leaf), root)
    return carrier, core, fires


@PROPERTY
@given(leafy_carriers())
def test_leaf_route_matches_enumeration(case):
    carrier, core, fires = case
    leaves = tutte_module._thinned(carrier)[4]
    if fires is not None:
        assert (leaves is not None) == fires
    if fires:
        assert leaves[0] == core
    reference = to_greedoid(carrier)
    profile, g = tutte_module._route(carrier, 16)
    if g == 1:
        expected = rank_size_profile(reference, 16)
        assert dict(profile.counts) == expected
        assert profile.rows == deficit_rows(expected)
        assert (profile.size, profile.rank) == (carrier.edge_count, carrier_rank(carrier))
    assert tutte_restrict(carrier, LineY(-1), 16) == tutte_restrict(reference, LineY(-1), 16)
    assert tutte_eval(carrier, 3, Fraction(1, 2), 16) == tutte_eval(reference, 3, Fraction(1, 2), 16)
    assert tutte_polynomial(carrier, 16) == tutte_polynomial(reference, 16)


@pytest.mark.parametrize(
    "base",
    [
        seeded_simple_carrier(8, 16, 7),
        seeded_simple_carrier(8, 16, 7, True),
        seeded_rooted_graph(8, 20, 7),
        seeded_rooted_digraph(8, 20, 7),
    ],
    ids=["graph", "digraph", "repeated graph", "repeated digraph"],
)
def test_star_attachments_run_no_engine(base, monkeypatch):
    """Each attachment G ~ S_k strips back to G, whose profile is kept, and
    equals the attachment identity's prediction, whether or not G has
    repeated elements."""
    directed = isinstance(base, RootedDigraph)
    attach, star = (attach_digraphs, directed_star) if directed else (attach_graphs, star_graph)
    tutte_module._carrier_profile.cache_clear()
    base_poly, rank = tutte_polynomial(base), carrier_rank(base)
    stars = [tutte_polynomial(to_greedoid(star(k))) for k in range(5)]
    for name in ENGINES:
        monkeypatch.setattr(tutte_module, name, lambda *args: pytest.fail("an engine ran"))
    for k in range(1, 5):
        attached = attach(base, star(k))
        prediction = predicted_attachment(base_poly, stars[k], rank, k, k)
        for a, b in ((3, -1), (2, Fraction(3, 2)), (Fraction(1, 2), 3)):
            assert tutte_eval(attached, a, b, attached.edge_count) == prediction.evaluate(a, b)
    assert tutte_module._carrier_profile.cache_info().currsize == 1  # the base's


@pytest.mark.parametrize("directed", [False, True], ids=["graph", "digraph"])
def test_line_y_minus_one_at_scale(directed):
    """The simple 12-vertex, 40-element base: its star attachments, up to
    161 elements, each read the base's one profile."""
    base = seeded_simple_carrier(12, 40, 7, directed)
    tutte_module._carrier_profile.cache_clear()
    start = time.perf_counter()
    oracle = brute_force_oracle("digraph" if directed else "graph", 3, -1, max_elements=161)
    line = interpolate_line_y_minus1(oracle, base, max_elements=161)
    assert time.perf_counter() - start < 5
    assert oracle.calls == 12
    assert line == tutte_restrict(base, LineY(-1), max_elements=40)


@pytest.mark.parametrize("kind", [seeded_rooted_graph, seeded_rooted_digraph], ids=["graph", "digraph"])
def test_line_y_minus_one_at_scale_with_repeated_elements(kind, monkeypatch):
    """The seeded 12-vertex, 40-element base with repeated elements: its
    star attachments, up to 161 elements, each read the base's one profile
    and run no engine."""
    base = kind(12, 40, 7)
    tutte_module._carrier_profile.cache_clear()
    expected = tutte_restrict(base, LineY(-1), max_elements=40)
    for name in ENGINES:
        monkeypatch.setattr(tutte_module, name, lambda *args: pytest.fail("an engine ran"))
    start = time.perf_counter()
    oracle = brute_force_oracle("digraph" if kind is seeded_rooted_digraph else "graph", 3, -1, max_elements=161)
    line = interpolate_line_y_minus1(oracle, base, max_elements=161)
    assert time.perf_counter() - start < 5
    assert oracle.calls == 12
    assert line == expected


def test_leafy_carrier_past_the_bits_figure_takes_its_own_route():
    """410 parallel edges and one leaf: 411 elements, whose own profile would
    take 2^26.07 bits by the vertex-subset engine, so the leaf route is not
    taken, and class enumeration over its two classes answers."""
    carrier = RootedGraph(3, ((0, 1),) * 410 + ((1, 2),), 0)
    assert tutte_module._thinned(carrier)[4] is not None  # it has a leaf split
    assert tutte_eval(carrier, 2, 2, max_elements=411) == 2**411
    assert tutte_eval(carrier, 1, 1, max_elements=411) == 410 == spanning_tree_count(carrier)


def test_star_attachment_past_the_bits_figure(tmp_path, capsys):
    """The 30-edge path with 11 leaves at each non-root vertex: 360
    elements, whose profile would take (360 + 361 + 1) * 361^2 = 2^26.5
    bits, is refused by that figure, though its core is a 30-edge path."""
    carrier = attach_graphs(path_graph(30), star_graph(11))
    assert carrier.edge_count == carrier_rank(carrier) == 360
    with pytest.raises(GroundSetTooLargeError, match=r"about 2\^26 bits by the vertex-subset engine"):
        tutte_eval(carrier, 3, -1, max_elements=360)
    path = tmp_path / "leafy.graph"
    path.write_text(format_carrier(carrier))
    assert main(["eval", str(path), "--x", "3", "--y", "-1", "--max-elements", "360"]) == 4
    assert "bits by the vertex-subset engine" in capsys.readouterr().err


@pytest.mark.parametrize("base", [path_graph(3), directed_path(2), directed_star(2), identity_matrix(3)])
def test_thickenings_build_one_carrier(base):
    """Every class of a thickening of a carrier with distinct elements has
    g elements, so the carrier it thins to is its core, built once."""
    for k in range(2, 5):
        thin, g, core, _, _ = tutte_module._thinned(thicken(base, k))
        assert thin is core and g == k and thin == base
