"""The benchmark's three workloads.

Each workload supplies four functions:

* ``generate(rng)`` draws one op's input as plain data plus the text the
  library's file formats use;
* ``prepare(gt, spec)`` parses that text with the library and builds what
  the op needs (this is set-up work, not timed per op);
* ``run(gt, item)`` is the op itself, the only code inside the timed region;
* ``check(gt, item, result)`` returns ``None`` or a description of the first
  wrong output, using :mod:`checks` for every expected value.

``ops_per_second`` is the nominal rate on the host the sizes were tuned on;
a run of S seconds works through ``round(S * ops_per_second)`` seeded ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checks

F = Fraction
EVAL_VALUES = tuple(F(v) for v in ("-2", "-1", "0", "1/2", "2", "3", "-1/3", "5/2"))
HYPERBOLA_T = tuple(F(v) for v in ("2", "3", "1/2", "-1/2", "3/2", "-3"))
ALPHAS = tuple(F(v) for v in ("1", "2", "-1", "1/2", "3", "-2"))
# Line y = -1 star attachments: a = 1/2 and a = 1 make the nodes collide and
# a = 0 reroutes through a pre-attached path, past the element bound.
YMINUS1_A = tuple(F(v) for v in ("2", "3", "-1", "3/2", "-2", "1/3"))
CURVE_A = tuple(F(v) for v in ("-1", "0", "1/2", "2", "3", "5/2"))
CURVE_B = tuple(F(v) for v in ("-2", "-1/2", "1/2", "2", "3", "3/2"))
# A 3-element, rank-3 carrier thickened up to k = 3 + 3 + 1 = 7 times.
REDUCE_MAX_ELEMENTS = 22


@dataclass(frozen=True)
class Workload:
    name: str
    ops_per_second: float
    generate: Callable[[random.Random], Any]
    prepare: Callable[[Any, Any], Any]
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], str | None]


# ---------------------------------------------------------------------------
# seeded carriers, as plain data and as text


def _relabel(rng: random.Random, vertex_count: int, pairs):
    perm = list(range(vertex_count))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in pairs]
    rng.shuffle(out)
    return perm, out


def simple_graph(rng: random.Random, vertex_count: int, edge_count: int, min_degree: int):
    """Connected simple graph with every degree at least ``min_degree``."""
    while True:
        pairs = {(rng.randrange(v), v) for v in range(1, vertex_count)}
        while len(pairs) < edge_count:
            u, v = sorted(rng.sample(range(vertex_count), 2))
            pairs.add((u, v))
        degree = [0] * vertex_count
        for u, v in pairs:
            degree[u] += 1
            degree[v] += 1
        if min(degree) >= min_degree:
            return sorted(pairs)


def rooted_graph(rng: random.Random, vertex_count: int, edge_count: int, min_degree: int):
    pairs = simple_graph(rng, vertex_count, edge_count, min_degree)
    perm, edges = _relabel(rng, vertex_count, pairs)
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    return vertex_count, tuple(edges), perm[rng.randrange(vertex_count)]


def rooted_digraph(
    rng: random.Random, vertex_count: int, edge_count: int, min_degree: int, bidirected: int
):
    """Simple graph oriented away from vertex 0 in breadth-first order, with
    ``bidirected`` of its edges also present in the reverse direction."""
    pairs = simple_graph(rng, vertex_count, edge_count, min_degree)
    adjacent: dict[int, list[int]] = {}
    for u, v in pairs:
        adjacent.setdefault(u, []).append(v)
        adjacent.setdefault(v, []).append(u)
    order = {0: 0}
    queue = [0]
    for u in queue:
        for v in sorted(adjacent[u]):
            if v not in order:
                order[v] = len(order)
                queue.append(v)
    arcs = [(u, v) if order[u] < order[v] else (v, u) for u, v in pairs]
    arcs += [(v, u) for u, v in rng.sample(arcs, bidirected)]
    perm, arcs = _relabel(rng, vertex_count, arcs)
    return vertex_count, tuple(arcs), perm[0]


def weight_matrix(rng: random.Random, rows: int, cols: int, weight: int):
    """Distinct columns, each with exactly ``weight`` ones."""
    supports: set[tuple[int, ...]] = set()
    while len(supports) < cols:
        supports.add(tuple(sorted(rng.sample(range(rows), weight))))
    ordered = sorted(supports)
    rng.shuffle(ordered)
    return tuple(tuple(int(r in s) for s in ordered) for r in range(rows))


def small_tree(rng: random.Random, directed: bool):
    """Random recursive tree on 4 vertices: a 3-element carrier of rank 3."""
    pairs = [(rng.randrange(v), v) for v in range(1, 4)]
    perm, pairs = _relabel(rng, 4, pairs)
    if directed:
        return 4, tuple(pairs), perm[0]
    pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]
    return 4, tuple(pairs), perm[rng.randrange(4)]


def small_matrix(rng: random.Random):
    """3 columns whose top 3 rows are nonsingular over GF(2), then 0-1 extra rows."""
    while True:
        rows = tuple(tuple(rng.randrange(2) for _ in range(3)) for _ in range(3))
        if checks.binary_feasible(rows, (0, 1, 2)):
            extra = tuple(tuple(rng.randrange(2) for _ in range(3)) for _ in range(rng.randrange(2)))
            return rows + extra


def graph_text(kind: str, data) -> str:
    if kind == "binary":
        return "".join("".join(map(str, row)) + "\n" for row in data)
    vertex_count, pairs, root = data
    word = "arc" if kind == "digraph" else "edge"
    lines = [] if root is None else [f"root {root}"]
    return "\n".join(lines + [f"{word} {u} {v}" for u, v in pairs]) + "\n"


def _parse(gt, kind: str, text: str):
    carrier = gt.carriers.parse_carrier_text(text)
    expected = {"graph": gt.RootedGraph, "digraph": gt.RootedDigraph, "binary": gt.BinaryMatrix}[kind]
    if not isinstance(carrier, expected):
        raise TypeError(f"{kind} text parsed as {type(carrier).__name__}")
    return carrier


def _same(got, expected: dict) -> bool:
    return dict(got.terms) == expected


# ---------------------------------------------------------------------------
# profile-queries: the query set a user sends about one carrier


# (vertices, edges, minimum degree[, arcs also reversed]) and (rows, columns,
# ones per column).  A minimum degree keeps the feasible-set count, and so the
# op's cost, within a few percent from seed to seed.
PROFILE_SIZES = {"graph": (7, 12, 3), "digraph": (8, 13, 3, 2), "binary": (6, 12, 3)}


def generate_profile(rng: random.Random):
    carriers = {
        "graph": rooted_graph(rng, *PROFILE_SIZES["graph"]),
        "digraph": rooted_digraph(rng, *PROFILE_SIZES["digraph"]),
        "binary": weight_matrix(rng, *PROFILE_SIZES["binary"]),
    }
    spec = []
    for kind, data in carriers.items():
        t = rng.choice(HYPERBOLA_T)
        points = [(rng.choice(EVAL_VALUES), rng.choice(EVAL_VALUES)) for _ in range(2)]
        points.append((1 + t, 1 + 1 / t))
        spec.append(
            {
                "kind": kind,
                "data": data,
                "text": graph_text(kind, data),
                "points": points,
                "alpha": rng.choice(ALPHAS),
                "c": rng.choice(EVAL_VALUES),
            }
        )
    return spec


def prepare_profile(gt, spec):
    return [
        dict(
            query,
            carrier=_parse(gt, query["kind"], query["text"]),
            curves=(gt.HAlpha(query["alpha"]), gt.H0X(), gt.H0Y(), gt.LineY(query["c"])),
        )
        for query in spec
    ]


def run_profile(gt, item):
    out = []
    for query in item:
        carrier = query["carrier"]
        out.append(
            (
                gt.tutte_polynomial(carrier),
                [gt.tutte_eval(carrier, a, b) for a, b in query["points"]],
                [gt.tutte_restrict(carrier, curve) for curve in query["curves"]],
                gt.characteristic_polynomial(carrier),
            )
        )
    return out


def check_profile(gt, item, result):
    for query, (poly, values, restrictions, charpoly) in zip(item, result):
        kind, data = query["kind"], query["data"]
        where = f"{kind} {query['text']!r}"
        terms = dict(poly.terms)
        n = checks.element_count(kind, data)
        if kind == "binary":
            rank, bases = checks.binary_rank_and_bases(data)
        else:
            rank, bases = checks.full_rank(kind, data), checks.basis_count(kind, data)
        if checks.evaluate(terms, 2, 2) != 2**n:
            return f"T(2,2) != 2^{n} for {where}"
        if checks.evaluate(terms, 1, 1) != bases:
            return f"T(1,1) != {bases} bases for {where}"
        for (a, b), value in zip(query["points"], values):
            if value != checks.evaluate(terms, a, b):
                return f"tutte_eval({a}, {b}) disagrees with the polynomial for {where}"
        a, _ = query["points"][-1]
        if values[-1] != checks.hyperbola_value(n, rank, a):
            return f"value on (x-1)(y-1)=1 is not (a-1)^(r-n) a^n for {where}"
        expected = (
            checks.restrict_halpha(terms, query["alpha"]),
            checks.restrict_x1(terms),
            checks.restrict_y1(terms),
            checks.restrict_line_y(terms, query["c"]),
        )
        for curve, got, want in zip(query["curves"], restrictions, expected):
            if not _same(got, want):
                return f"tutte_restrict({curve}) disagrees with the polynomial for {where}"
        if not _same(charpoly, checks.characteristic(terms, rank)):
            return f"characteristic polynomial disagrees with the polynomial for {where}"
    return None


# ---------------------------------------------------------------------------
# reduce-curve: interpolation from thickenings and star attachments


def generate_reduce(rng: random.Random):
    carriers = {
        "graph": small_tree(rng, directed=False),
        "digraph": small_tree(rng, directed=True),
        "binary": small_matrix(rng),
    }
    spec = []
    for kind, data in carriers.items():
        b = rng.choice(CURVE_B)
        a = F(1) if rng.random() < 0.25 else rng.choice(CURVE_A)
        spec.append(
            {
                "kind": kind,
                "data": data,
                "text": graph_text(kind, data),
                "point": (a, b),
                "yminus1_a": None if kind == "binary" else rng.choice(YMINUS1_A),
            }
        )
    return spec


def prepare_reduce(gt, spec):
    out = []
    for query in spec:
        a, b = query["point"]
        curve = gt.H0X() if a == 1 else gt.HAlpha((a - 1) * (b - 1))
        out.append(dict(query, carrier=_parse(gt, query["kind"], query["text"]), curve=curve))
    return out


def run_reduce(gt, item):
    out = []
    for query in item:
        family, carrier = query["kind"], query["carrier"]
        oracle = gt.brute_force_oracle(family, *query["point"], max_elements=REDUCE_MAX_ELEMENTS)
        curve = gt.interpolate_curve(oracle, carrier, max_elements=REDUCE_MAX_ELEMENTS)
        line = None
        if query["yminus1_a"] is not None:
            oracle = gt.brute_force_oracle(
                family, query["yminus1_a"], -1, max_elements=REDUCE_MAX_ELEMENTS
            )
            line = gt.interpolate_line_y_minus1(oracle, carrier, max_elements=REDUCE_MAX_ELEMENTS)
        out.append((curve, line))
    return out


def check_reduce(gt, item, result):
    for query, (curve, line) in zip(item, result):
        kind, data = query["kind"], query["data"]
        where = f"{kind} {query['text']!r} at {query['point']}"
        poly = checks.brute_force_polynomial(kind, data)
        a, b = query["point"]
        want = checks.restrict_x1(poly) if a == 1 else checks.restrict_halpha(poly, (a - 1) * (b - 1))
        if not _same(gt.tutte_restrict(query["carrier"], query["curve"]), want):
            return f"direct restriction disagrees with the brute-force polynomial for {where}"
        if not _same(curve, want):
            return f"interpolated restriction disagrees with the brute-force polynomial for {where}"
        if line is not None:
            want = checks.restrict_line_y(poly, -1)
            if not _same(gt.tutte_restrict(query["carrier"], gt.LineY(-1)), want):
                return f"direct y = -1 restriction disagrees with brute force for {where}"
            if not _same(line, want):
                return f"star-attachment y = -1 restriction disagrees with brute force for {where}"
    return None


# ---------------------------------------------------------------------------
# basis-count: perfect matchings recovered from basis counts of the lifts


BASIS_SHAPE = (6, 4)  # vertices, edges: C(16, 10) k = 1 subsets, 8^4 templates
FIELD_CHARS = (2, 3, 0)


def generate_basis(rng: random.Random):
    vertex_count, edge_count = BASIS_SHAPE
    while True:
        pairs = set()
        while len(pairs) < edge_count:
            pairs.add(tuple(sorted(rng.sample(range(vertex_count), 2))))
        if {v for p in pairs for v in p} == set(range(vertex_count)):
            break
    _, edges = _relabel(rng, vertex_count, sorted(pairs))
    data = (vertex_count, tuple(edges), None)
    return {"data": data, "text": graph_text("graph", data)}


def prepare_basis(gt, spec):
    parsed = gt.carriers.parse_carrier_text(spec["text"])
    graph = gt.SimpleGraph(parsed.vertex_count, parsed.edges)
    gadget = gt.build_gadget_matrix(graph, 1)
    return dict(spec, graph=graph, columns=gadget.ground_columns(), rank=gadget.target_rank)


def run_basis(gt, item):
    fields = {2: gt.GF2, 3: gt.GF3, 0: gt.RATIONALS}
    return [gt.recover_perfect_matchings(item["graph"], fields[c]) for c in FIELD_CHARS]


def check_basis(gt, item, result):
    vertex_count, edges, _ = item["data"]
    matchings = checks.perfect_matchings(vertex_count, edges)
    for char, report in zip(FIELD_CHARS, result):
        where = f"char {char} on {item['text']!r}"
        if report.recovered != matchings:
            return f"recovered {report.recovered} perfect matchings, expected {matchings}, {where}"
        if report.b_sources[0] != "enumerated":
            return f"k = 1 basis count was not enumerated, {where}"
        want = checks.count_column_bases(item["columns"], item["rank"], char)
        if report.b_values[0] != want:
            return f"k = 1 basis count {report.b_values[0]}, expected {want}, {where}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("profile-queries", 2.0, generate_profile, prepare_profile, run_profile, check_profile),
        Workload("reduce-curve", 3.0, generate_reduce, prepare_reduce, run_reduce, check_reduce),
        Workload("basis-count", 3.5, generate_basis, prepare_basis, run_basis, check_basis),
    )
}
