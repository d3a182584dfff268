"""Matroid basis counting over a structured matrix family.

A simple graph G is lifted into a 0/1 matrix whose columns, read as a
matroid over a chosen field, have their bases classified by "templates" of
G: spanning subgraphs whose edges are absent, bidirected, directed with a
two-letter label, or undirected with a two-letter label.  The number of
bases per feasible template is a closed form in the lift parameter k and
the template's number of bidirected edges, so counting bases for several k
and solving the resulting linear system recovers the number of feasible
templates with n/2 bidirected edges: the perfect matchings of G.

The feasible templates are counted by bidirected edges in a search over the
5 kinds of each edge (absent, bidirected, directed into either end,
undirected), with the labels counted in closed form
(:func:`count_feasible_templates`); the listing of every feasible template
(:func:`enumerate_feasible_templates`) is the reference the count is tested
against.

The matrix construction, per edge e_i = v_a v_b (a < b) and copy j, places
the 3x7 block

        v_a  v_b  e_i  w_ij  x_ij  y_ij  z_ij
  v_a    1    0    1    0     1     0     1
  v_b    0    1    1    0     0     1     1
  f_ij   0    0    0    1     1     1     1

into an otherwise-zero matrix with rows ("v", i), ("e", i), then ("f", i, j),
and columns ("v", i), ("e", i), then ("w"|"x"|"y"|"z", i, j) for each edge
and copy.  The matroid actually counted lives on the letter columns only.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, prod

from .carriers import UnrootedGraph
from .errors import (
    GroundSetTooLargeError,
    NotABasisError,
    NotSimpleError,
    OddVertexCountError,
    PreconditionError,
)
from .exact import vandermonde_solve
from .greedoid import DEFAULT_MAX_ELEMENTS, _check_bound, _check_work
from .primitives import as_integer, find, gaussian_binomial

LETTERS = ("w", "x", "y", "z")
# count_bases' default bound on one layer's states; n columns with 2^n within it need no state bound
_MAX_SUBSETS = 10_000_000


@dataclass(frozen=True)
class SimpleGraph(UnrootedGraph):
    """Unrooted graph without loops, parallel edges or isolated vertices; edges stored with a < b."""

    def __post_init__(self):
        super().__post_init__()
        pairs = []
        for u, v in self.edges:
            if u == v:
                raise NotSimpleError(f"loop at vertex {u}")
            pairs.append((min(u, v), max(u, v)))
        if len(set(pairs)) != len(pairs):
            raise NotSimpleError("parallel edges are not allowed")
        covered = {u for p in pairs for u in p}
        if covered != set(range(self.vertex_count)):
            raise NotSimpleError("isolated vertices are not allowed")
        object.__setattr__(self, "edges", tuple(pairs))


@dataclass(frozen=True)
class Field:
    """GF(2), GF(p) for an odd prime, or the rationals (char 0)."""

    char: int

    def __post_init__(self):
        object.__setattr__(self, "char", as_integer(self.char, "field characteristic"))
        if self.char == 0:
            return
        if self.char < 2 or not _is_prime(self.char):
            raise PreconditionError(f"{self.char} is not prime")

    @property
    def is_char_two(self) -> bool:
        return self.char == 2

    def __str__(self):
        return "rationals" if self.char == 0 else f"GF({self.char})"


def _is_prime(n: int) -> bool:
    """Whether n >= 2 is prime, by Miller-Rabin with the 13 primes 2 .. 41 as
    bases, which no composite below psi_13 = 3,317,044,064,679,887,385,961,981
    passes (Sorenson and Webster, Math. Comp. 86, 2017).  From psi_13 on no
    answer is proven, so n is refused."""
    bound = 3_317_044_064_679_887_385_961_981
    if n >= bound:
        raise PreconditionError(
            f"cannot prove a characteristic of {n.bit_length()} bits prime: primality is decided below {bound} only"
        )
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n in bases or any(n % b == 0 for b in bases):
        return n in bases
    odd, halvings = n - 1, 0
    while not odd & 1:
        odd, halvings = odd >> 1, halvings + 1
    for b in bases:
        x = pow(b, odd, n)
        if x == 1:
            continue
        for _ in range(halvings):  # for a prime n, b^(odd * 2^j) = -1 for some j < halvings
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


GF2 = Field(2)
GF3 = Field(3)
RATIONALS = Field(0)


# ---------------------------------------------------------------------------
# matrix construction


@dataclass(frozen=True)
class GadgetMatrix:
    """The lift of ``graph`` with ``copies`` letter blocks per edge, laid out as the module docstring says.

    Row f_ij sits at n + m + i·k + j.  :meth:`ground_columns` builds the letter columns alone; the labels
    and the full matrix, read only for closures, are made on first read and kept.
    """

    graph: SimpleGraph
    copies: int

    def __post_init__(self):
        object.__setattr__(self, "copies", as_integer(self.copies, "copy count"))
        if self.copies < 1:
            raise PreconditionError("need at least one copy block per edge")

    @property
    def target_rank(self) -> int:
        return self.graph.vertex_count + self.graph.edge_count * self.copies

    def ground_labels(self) -> tuple:
        return tuple((c, i, j) for i in range(self.graph.edge_count) for j in range(self.copies) for c in LETTERS)

    def ground_columns(self) -> tuple[tuple[int, ...], ...]:
        """The 4mk letter columns in :meth:`ground_labels` order: the 3x7 block's w, x, y, z."""
        n, m, k = self.graph.vertex_count, self.graph.edge_count, self.copies
        out = []
        for i, (a, b) in enumerate(self.graph.edges):
            for f in range(n + m + i * k, n + m + i * k + k):
                w = [0] * (n + m + m * k)
                w[f] = 1
                x, y, z = w.copy(), w.copy(), w.copy()
                x[a] = y[b] = z[a] = z[b] = 1
                out += (tuple(w), tuple(x), tuple(y), tuple(z))
        return tuple(out)

    @cached_property
    def row_labels(self) -> tuple:
        n, m = self.graph.vertex_count, self.graph.edge_count
        return (*self.col_labels[: n + m], *(("f", i, j) for i in range(m) for j in range(self.copies)))

    @cached_property
    def col_labels(self) -> tuple:
        n, m = self.graph.vertex_count, self.graph.edge_count
        return (*(("v", i) for i in range(n)), *(("e", i) for i in range(m)), *self.ground_labels())

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Unit vertex columns, edge columns holding both ends, then the letter columns; every e row is zero."""
        height = len(self.row_labels)
        ends = [(v,) for v in range(self.graph.vertex_count)] + list(self.graph.edges)
        return (*(tuple(int(r in e) for r in range(height)) for e in ends), *self.ground_columns())

    def column(self, label) -> tuple[int, ...]:
        try:
            return self.columns[self.col_labels.index(label)]
        except ValueError:
            raise PreconditionError(f"{label!r} is not a column of this gadget") from None


def build_gadget_matrix(graph: SimpleGraph, copies: int) -> GadgetMatrix:
    return GadgetMatrix(graph, copies)


# ---------------------------------------------------------------------------
# rank and basis counting over a field


def _field_columns(columns, p: int) -> list[tuple]:
    """The columns as int tuples reduced mod p, refused unless every entry is
    an integer and all columns have one length."""
    if p:
        cols = [tuple([as_integer(v, "matrix entry") % p for v in col]) for col in columns]
    else:
        cols = [tuple([as_integer(v, "matrix entry") for v in col]) for col in columns]
    if len({len(col) for col in cols}) > 1:
        raise PreconditionError("columns must all have the same length")
    return cols


def matrix_rank(columns, field: Field) -> int:
    """Rank of the given column vectors over the field."""
    p, rows = field.char, ()
    for col in _pack(_field_columns(columns, p), p):
        rows = _insert(rows, col, p) or rows
    return len(rows)


def _pack(vectors, p: int) -> list:
    """Vectors with entries reduced mod p as rows of the field's type: over
    GF(2) one int, bit t holding entry t; over GF(3) two bit planes (pos, neg),
    bit t of pos set when entry t is 1 and of neg when it is 2; int tuples
    otherwise."""
    if p != 2 and p != 3:
        return list(vectors)
    out = []
    for vec in vectors:
        pos = neg = 0
        for t, v in enumerate(vec):
            if v == 1:
                pos |= 1 << t
            elif v:
                neg |= 1 << t
        out.append(pos if p == 2 else (pos, neg))
    return out


def _transpose(rows, width: int, p: int) -> list:
    """The ``width`` columns of rows of the field's type, as rows of that type."""
    if p != 2 and p != 3:
        return list(zip(*rows)) if rows else [()] * width
    pos, neg = [0] * width, [0] * width
    for r, row in enumerate(rows):
        for plane, bits in ((pos, row),) if p == 2 else ((pos, row[0]), (neg, row[1])):
            while bits:
                low = bits & -bits
                plane[low.bit_length() - 1] |= 1 << r
                bits ^= low
    return pos if p == 2 else list(zip(pos, neg))


def _eliminate(vec: tuple, row: tuple, lead: int, p: int) -> tuple:
    """A nonzero multiple of ``vec`` minus one of ``row``, zero at ``lead``."""
    a, b = row[lead], vec[lead]
    if p:
        return tuple((a * x - b * y) % p for x, y in zip(vec, row))
    return tuple(x - b * y for x, y in zip(vec, row)) if a == 1 else tuple(a * x - b * y for x, y in zip(vec, row))


def _normalize(vec: tuple, p: int) -> tuple:
    """The multiple of a nonzero vector that is monic mod p, or primitive with a positive lead."""
    lead = next(filter(None, vec))
    if p:
        inv = pow(lead, -1, p)
        return tuple(x * inv % p for x in vec)
    g = gcd(*vec) if lead > 0 else -gcd(*vec)
    return vec if g == 1 else tuple(x // g for x in vec)


def _lead(row, p: int) -> int:
    """Index of the first nonzero coordinate of a nonzero row of the field's type."""
    if p == 2 or p == 3:
        low = row if p == 2 else row[0]  # a canonical GF(3) row is monic, so led in its first plane
        return (low & -low).bit_length() - 1
    return row.index(next(filter(None, row)))  # the first nonzero value first occurs there


def _insert(rows: tuple, vec, p: int) -> tuple | None:
    """Canonical rows of span(rows) + <vec>, or None when vec lies in span(rows).

    Canonical rows are normalized, zero at each other's leading index and
    ordered by it, so equal spans have equal rows.  ``vec`` is reduced mod p.
    Over GF(2) every row is one int, bit t holding coordinate t, led by its
    lowest set bit: elimination is XOR, and the new row clears its lead
    from the others in one pass.  Over GF(3) every row is two bit planes
    (pos, neg), led by the lowest set bit of pos | neg and monic, so its
    lead lies in pos: negation swaps the planes, and x + y is
    t = (x.pos | y.neg) ^ (x.neg | y.pos), ((x.neg | y.neg) ^ t, (x.pos | y.pos) ^ t).
    Other fields take int tuples.
    """
    if p == 2:
        for row in rows:
            if vec & row & -row:  # vec holds the row's lead
                vec ^= row
        if not vec:
            return None
        lead, out = vec & -vec, []
        for at, row in enumerate(rows):
            if not row & lead - 1:  # this row and the rest are led past the new lead, so zero there
                return (*out, vec, *rows[at:])
            out.append(row ^ vec if row & lead else row)
        return (*out, vec)
    if p == 3:
        vp, vn = vec
        for rp, rn in rows:
            lead = rp & -rp
            if vp & lead:  # subtract the row: add its negation
                rp, rn = rn, rp
            elif not vn & lead:
                continue
            t = (vp | rn) ^ (vn | rp)
            vp, vn = (vn | rn) ^ t, (vp | rp) ^ t
        support = vp | vn
        if not support:
            return None
        lead = support & -support
        new, out = (vp, vn) if vp & lead else (vn, vp), []  # monic
        for at, row in enumerate(rows):
            rp, rn = row
            if not rp & lead - 1:  # this row and the rest are led past the new lead, so zero there
                return (*out, new, *rows[at:])
            if (rp | rn) & lead:  # add the new row's negation where the row holds 1, the new row where 2
                yp, yn = new[::-1] if rp & lead else new
                t = (rp | yn) ^ (rn | yp)
                row = (rn | yn) ^ t, (rp | yp) ^ t
            out.append(row)
        return (*out, new)
    leads = []
    for row in rows:
        leads.append(lead := row.index(next(filter(None, row))))
        if vec[lead]:
            vec = _eliminate(vec, row, lead, p)
    if not any(vec):
        return None
    new = _normalize(vec, p)
    lead = _lead(new, p)
    out = []
    for row in rows:
        if row[lead]:
            # ``new`` is zero at every lead, so the row keeps its lead; over GF(p) ``new`` is monic and so is the row
            row = _eliminate(row, new, lead, p) if p else _normalize(_eliminate(row, new, lead, p), p)
        out.append(row)
    out.insert(bisect_left(leads, lead), new)
    return tuple(out)


def _suffix_coordinates(cols: list[tuple], p: int) -> tuple[list, list[int]]:
    """Coordinates of each column, up to a scale per coordinate, in the basis B
    of columns picked greedily from the right, and B's indices in order:
    the columns of the canonical rows of the row space read right to left.
    Column j has no coordinate on B left of j, so the span U_i of the
    columns from i on is spanned by the coordinates of B from i on.  The
    coordinates are rows of the field's type (see :func:`_pack`).
    """
    n, rows = len(cols), ()
    for vec in _pack(zip(*cols[::-1]), p):  # the matrix rows, read right to left
        rows = _insert(rows, vec, p) or rows
    return _coordinates(rows, n, p), [n - 1 - _lead(row, p) for row in reversed(rows)]


def _coordinates(rows: tuple, n: int, p: int) -> list:
    """The coordinates of :func:`_suffix_coordinates`, from the canonical
    rows of the row space of ``n`` columns read right to left."""
    return _transpose(rows[::-1], n, p)[::-1]  # rows led right to left, so by pivot column left to right


def _state_bound(coords: list, pivots: list[int], need: int, p: int) -> int:
    """Upper bound on the states of any one layer of the span-state DP.

    After i columns S lies in a space of dimension w = r(first i) + r(rest) - r(all),
    and d = dim S <= |A| <= d + r(first i) - w and need - |A| <= r(rest) - d.
    Over GF(q) there are [w choose d]_q spaces S; over any field, distinct
    states come from distinct subsets of the first i columns.  The prefix
    ranks come from the columns' coordinates, an invertible image of them.
    """
    left, rows = [], ()  # the columns picked greedily from the left
    for j, coord in enumerate(coords):
        grown = _insert(rows, coord, p)
        if grown:
            rows = grown
            left.append(j)
    worst = 0
    for i in range(len(coords) + 1):
        rx, rr = sum(j < i for j in left), sum(b >= i for b in pivots)
        w = rx + rr - len(pivots)
        bound = sum(comb(i, a) for a in range(max(0, need - rr), min(need, rx) + 1))
        if p:  # Gaussian binomial [w choose d]_p times the sizes allowed with d
            spans = (
                gaussian_binomial(w, d, p)
                * max(0, min(need, d + rx - w) - max(d, need - rr + d) + 1)
                for d in range(w + 1)
            )
            bound = min(bound, sum(spans))
        worst = max(worst, bound)
    return worst


def _step(layer: dict, col, drop: int | None, need: int, rest: int, p: int) -> dict:
    """One column of the DP: ``layer`` maps S = span(A) ∩ U_i, as canonical
    rows, to the number of independent A by size.  ``col`` may join A iff
    it lies outside S; skipping it leaves S ∩ U_(i+1), taking it gives
    (S + <col>) ∩ U_(i+1).  If ``col`` is in B with coordinate ``drop``, the
    intersection removes the row led there, which can only be the first row
    since S has no entry before ``drop``.  A size that can no longer reach
    ``need`` with ``rest`` = dim U_(i+1) is dropped.
    """
    out: dict = {}
    for rows, by_size in layer.items():
        for shift, new in ((0, rows), (1, _insert(rows, col, p))):
            if new is None:
                continue
            # the first row is led at ``drop`` iff it is nonzero there; a GF(3) row is led in its first plane
            if new and drop is not None and (
                new[0] >> drop & 1 if p == 2 else new[0][0] >> drop & 1 if p == 3 else new[0][drop]
            ):
                new = new[1:]
            low, high = need - rest + len(new) - shift, need - shift
            for a, count in by_size.items():
                if low <= a <= high:
                    bucket = out.setdefault(new, {})
                    bucket[a + shift] = bucket.get(a + shift, 0) + count
    return out


def count_bases(
    columns, field: Field, size: int | None = None, max_subsets: int = _MAX_SUBSETS
) -> int:
    """Number of independent column subsets of the given size (default: rank).

    A dynamic programme over the columns after Hliněný (Combin. Probab.
    Comput. 15, 2006): after i columns the state of A is |A| and
    S = span(A) ∩ U_i, U_i the span of the columns not yet seen (see
    :func:`_step`).  S is a canonical echelon basis: rows of one int each
    over GF(2), of two bit planes (the coordinates equal to 1, and those
    equal to 2) over GF(3), monic int tuples mod any larger prime p and
    primitive integer tuples over the rationals, so counts are exact Python
    ints without numpy.
    ``max_subsets`` bounds the proven upper bound :func:`_state_bound` on the
    (state, size) pairs of one layer, checked before the first step.  No
    layer holds more than the 2^n subsets of the n columns, and neither does
    the bound, so it is only computed when 2^n exceeds ``max_subsets``.
    """
    if size is not None and (size := as_integer(size, "subset size")) < 0:
        raise PreconditionError(f"cannot count subsets of negative size {size}")
    p = field.char
    cols = _field_columns(columns, p)
    coords, pivots = _suffix_coordinates(cols, p)
    need = len(pivots) if size is None else size
    states = _state_bound(coords, pivots, need, p) if max_subsets < 1 << len(cols) else 0
    if states > max_subsets:
        raise GroundSetTooLargeError(
            len(cols),
            max_subsets,
            f"counting bases of {len(cols)} columns may need up to {states} DP states "
            f"in one layer but the bound is {max_subsets}; pass a larger max_subsets "
            "to override",
        )
    at, ahead = {b: j for j, b in enumerate(pivots)}, len(pivots)  # each pivot's coordinate; pivots from i on
    layer: dict = {(): {0: 1}}
    for i, col in enumerate(coords):
        drop = at.get(i)
        ahead -= drop is not None
        layer = _step(layer, col, drop, need, ahead, p)
    return layer.get((), {}).get(need, 0)


# ---------------------------------------------------------------------------
# templates


@dataclass(frozen=True)
class EdgeState:
    """State of one present edge: bidirected, directed-with-head, or undirected."""

    kind: str  # "bidirected" | "directed" | "undirected"
    head: int | None = None
    label: str | None = None


@dataclass(frozen=True)
class Template:
    """Per-edge states; None marks an absent edge."""

    states: tuple[EdgeState | None, ...]

    @property
    def bidirected_count(self) -> int:
        return sum(1 for s in self.states if s and s.kind == "bidirected")


def _edge_options(a: int, b: int) -> list[EdgeState | None]:
    return [
        None,
        EdgeState("bidirected"),
        EdgeState("directed", a, "wx"),
        EdgeState("directed", a, "yz"),
        EdgeState("directed", b, "wy"),
        EdgeState("directed", b, "xz"),
        EdgeState("undirected", None, "wz"),
        EdgeState("undirected", None, "xy"),
    ]


def _heads(state: EdgeState | None, a: int, b: int) -> tuple[int, ...]:
    """The vertices an edge state points into: both ends if bidirected, its head if directed."""
    kind = state and state.kind
    return (a, b) if kind == "bidirected" else (state.head,) if kind == "directed" else ()


def template_is_feasible(graph: SimpleGraph, template: Template, char_two: bool) -> bool:
    """Can the undirected edges be directed so that every vertex has indegree
    exactly one, with every undirected circuit allowed by the field?

    Let H be the heads (both ends of each bidirected edge, the head of each
    directed edge) and U the undirected edges.  The template is feasible
    exactly when (a) the heads are distinct, (b) every connected component C
    of (V, U), isolated vertices included, has |U(C)| + |H ∩ C| = |C|, and
    (c) over GF(2) no component lacks a head, over other fields the circuit
    of every headless component has an odd number of wz edges.

    (b) is necessary: each edge of U(C) points into one vertex of C, and
    exactly the vertices of C outside H need one.  Since C is connected,
    |U(C)| >= |C| - 1, so (b) leaves two cases, both of which can be
    oriented: a tree with one head, directed away from it, or a unicyclic
    component without a head, directed around its circuit and then out
    along the trees.  So (c) speaks of the headless components, and each
    has one circuit.  Its parity is read from the double cover on 2n
    vertices, where an xy edge ab joins a-b and a'-b' and a wz edge joins
    a-b' and a'-b: a vertex v of a headless component is joined to its twin
    v' = v + n exactly when the circuit has an odd number of wz edges.
    The heads as a bitmask decide (a), the components as bitmasks (b), and
    one union-find over 2n vertices (c).
    """
    n, states = graph.vertex_count, template.states
    heads = [h for (a, b), state in zip(graph.edges, states) for h in _heads(state, a, b)]
    undirected = [(a, b, s.label) for (a, b), s in zip(graph.edges, states) if s and s.kind == "undirected"]
    mask = sum(1 << h for h in heads)  # a repeated head carries, leaving fewer bits than heads
    headless = _headless_roots(n, mask, [(a, b) for a, b, _ in undirected]) if mask.bit_count() == len(heads) else None
    if headless is None:
        return False
    if char_two or not headless:
        return not headless
    cover = list(range(2 * n))
    for a, b, label in undirected:
        twist = n if label == "wz" else 0  # a wz edge crosses between the two copies
        cover[find(cover, a)] = find(cover, b + twist)
        cover[find(cover, a + n)] = find(cover, b + n - twist)
    return all(find(cover, v) == find(cover, v + n) for v in headless)


def _headless_roots(n: int, heads: int, undirected) -> list[int] | None:
    """Rules (a) and (b) of :func:`template_is_feasible` for distinct heads,
    as a bitmask, and undirected edges (a, b): the lowest vertex of each
    component of (V, U) without a head, or None when a rule fails.  Each
    component with an edge is a bitmask of its vertices and an edge count."""
    components: list[tuple[int, int]] = []
    for a, b in undirected:
        joined, edges, apart = 1 << a | 1 << b, 1, []
        for vertices, count in components:
            if vertices & joined:
                joined, edges = joined | vertices, edges + count
            else:
                apart.append((vertices, count))
        components = apart + [(joined, edges)]
    covered, headless = 0, []
    for vertices, edges in components:
        held = vertices & heads
        if edges + held.bit_count() != vertices.bit_count():
            return None
        if not held:
            headless.append((vertices & -vertices).bit_length() - 1)
        covered |= vertices
    return headless if covered | heads == (1 << n) - 1 else None  # every other vertex is a head


_WEIGHT = {None: 0, "bidirected": 2, "directed": 1, "undirected": 1}


def enumerate_feasible_templates(
    graph: SimpleGraph, char_two: bool, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> list[Template]:
    """All feasible templates, in the order of a brute force over per-edge states.

    Each edge has 8 = 2^3 states, so the search is bounded like a ground set
    of 3|E| elements, and its 8^|E| templates by ``_MAX_WORK``.  A depth-first
    search over the edges cuts a prefix in which a vertex is the head of two
    bidirected or directed edges, or whose weight (2 per bidirected, 1 per
    other present edge) can no longer total n; :func:`template_is_feasible`
    decides every complete template.
    """
    _check_bound(3 * graph.edge_count, max_elements)
    _check_work(3 * graph.edge_count, [(8**graph.edge_count, "templates")])
    n, m = graph.vertex_count, graph.edge_count
    options = [
        [(state, _heads(state, a, b), _WEIGHT[state and state.kind]) for state in _edge_options(a, b)]
        for a, b in graph.edges
    ]

    def extend(prefix: tuple, heads: frozenset, weight: int):
        if weight > n or weight + 2 * (m - len(prefix)) < n:
            return
        if len(prefix) == m:
            yield Template(prefix)
            return
        for state, new, step in options[len(prefix)]:
            if heads.isdisjoint(new):
                yield from extend(prefix + (state,), heads.union(new), weight + step)

    return [t for t in extend((), frozenset(), 0) if template_is_feasible(graph, t, char_two)]


def template_counts_by_bidirected(templates) -> dict[int, int]:
    counts: dict[int, int] = {}
    for t in templates:
        counts[t.bidirected_count] = counts.get(t.bidirected_count, 0) + 1
    return counts


def count_feasible_templates(
    graph: SimpleGraph, char_two: bool, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> dict[int, int]:
    """Feasible templates by bidirected count, equal to
    ``template_counts_by_bidirected(enumerate_feasible_templates(...))``.

    The search runs over the 5 kinds of each edge (absent, bidirected,
    directed into a, directed into b, undirected) with the prefix cuts of
    :func:`enumerate_feasible_templates`, and rules (a) and (b) of
    :func:`template_is_feasible`, which read only the kinds, decide each
    complete assignment once.  Its labels are then counted in closed form:
    each directed or undirected edge has 2, and rule (c) keeps exactly half
    the labelings of each headless component's circuit (those with an odd
    number of wz edges) over fields other than GF(2), and none over GF(2).
    So an assignment with d directed and u undirected edges and h headless
    components gives 2^(d + u - h) feasible templates, or 0 over GF(2)
    when h > 0.  Bounded as 3 elements per edge, and its 5^m kind
    assignments by ``_MAX_WORK``.
    """
    _check_bound(3 * graph.edge_count, max_elements)
    _check_work(3 * graph.edge_count, [(5**graph.edge_count, "kind assignments")])
    n, m = graph.vertex_count, graph.edge_count
    # per edge and kind: heads as a bitmask, weight, undirected edges added, bidirected and labelled edges
    kinds = [
        [
            (0, 0, (), 0, 0),
            (1 << a | 1 << b, 2, (), 1, 0),
            (1 << a, 1, (), 0, 1),
            (1 << b, 1, (), 0, 1),
            (0, 1, ((a, b),), 0, 1),
        ]
        for a, b in graph.edges
    ]
    counts: dict[int, int] = {}

    def extend(i: int, heads: int, weight: int, undirected: tuple, bidirected: int, labelled: int) -> None:
        if weight > n or weight + 2 * (m - i) < n:
            return
        if i == m:
            headless = _headless_roots(n, heads, undirected)
            if headless is not None and not (char_two and headless):
                counts[bidirected] = counts.get(bidirected, 0) + (1 << labelled - len(headless))
            return
        for new, step, pair, bi, lab in kinds[i]:
            if not heads & new:
                extend(i + 1, heads | new, weight + step, undirected + pair, bidirected + bi, labelled + lab)

    extend(0, 0, 0, (), 0, 0)
    return counts


def _closed_form(n: int, m: int, k: int, char_two: bool) -> tuple[int, Fraction]:
    """(4^n c_k, x_k): a feasible template with j bidirected edges has c_k x_k^j bases in the k-th lift."""
    return 4 ** (k * m) * k**n, Fraction(12 * k + 4 if char_two else 13 * k + 3, k)


def predicted_bases_per_template(n: int, m: int, k: int, bidirected: int, char_two: bool) -> Fraction:
    """Closed-form basis count of one feasible template with b bidirected edges."""
    n, m, k, bidirected = (as_integer(v, "template parameter") for v in (n, m, k, bidirected))
    if k < 1 or min(n, m, bidirected) < 0:
        raise PreconditionError("need k >= 1" if k < 1 else "template parameters must be non-negative")
    scale, x = _closed_form(n, m, k, char_two)
    return scale * x**bidirected / 4**n


def template_of_basis(gm: GadgetMatrix, field: Field, basis_indices) -> Template:
    """Classify a basis of the letter-column matroid by its template.

    ``basis_indices`` index the letter columns (the matroid ground set, in
    label order).  Per edge the intersection size with the edge's letter
    block decides absent/bidirected, and in the one-extra-element case the
    closure of the block in the full matrix decides the direction while the
    doubled copy's letters give the label.
    """
    ground = gm.ground_labels()
    chosen = sorted(as_integer(i, "ground column index") for i in basis_indices)
    if len(set(chosen)) != len(chosen) or any(not 0 <= i < len(ground) for i in chosen):
        raise NotABasisError("invalid ground column indices")
    ground_cols = gm.ground_columns()
    if len(chosen) != gm.target_rank or matrix_rank([ground_cols[i] for i in chosen], field) != gm.target_rank:
        raise NotABasisError("column set is not a basis")
    graph, k = gm.graph, gm.copies
    states: list[EdgeState | None] = []
    for i, (a, b) in enumerate(graph.edges):
        block = [t for t in chosen if ground[t][1] == i]
        size = len(block)
        if size in (k, k + 2):
            states.append(None if size == k else EdgeState("bidirected"))
            continue
        if size != k + 1:
            raise NotABasisError(f"edge {i} meets the basis in {size} columns")
        by_copy: dict[int, list[str]] = {}
        for t in block:
            letter, _, j = ground[t]
            by_copy.setdefault(j, []).append(letter)
        doubled = [j for j, letters in by_copy.items() if len(letters) == 2]
        if len(doubled) != 1:
            raise NotABasisError(f"edge {i} has no unique doubled copy")
        label = "".join(sorted(by_copy[doubled[0]], key=LETTERS.index))
        block_cols = [ground_cols[t] for t in block]
        base_rank = matrix_rank(block_cols, field)
        has_a, has_b = (matrix_rank(block_cols + [gm.column(("v", v))], field) == base_rank for v in (a, b))
        if has_a and has_b:
            raise NotABasisError(f"edge {i} closure captures both endpoints at size k+1")
        head = a if has_a else b if has_b else None
        states.append(EdgeState("undirected" if head is None else "directed", head, label))
    return Template(tuple(states))


# ---------------------------------------------------------------------------
# perfect matchings


def count_perfect_matchings(graph: SimpleGraph) -> int:
    """Brute-force perfect matching count, refused past ``_MAX_WORK`` edge scans before it searches.

    Each step branches over at most the d+(v) edges (v, u), u > v, of the least uncovered vertex
    v, and over at most the uncovered vertices but one.  Along one branch those v are distinct, so
    there are L = min(prod of max(1, d+(v)), (n - 1)!!) leaves; the figure is m·L, though each step
    scans only the d+(v) edges, from a list per vertex made once.  The vertices below v are all
    covered, so no edge (u, v), u < v, can cover v."""
    ups: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for v, u in graph.edges:  # each edge (v, u) is stored at v < u
        ups[v].append(1 << v | 1 << u)
    m = len(graph.edges)
    leaves = min(prod(len(pairs) for pairs in ups if pairs), prod(range(graph.vertex_count - 1, 0, -2)))
    _check_work(m, [(m * leaves, "edge scans")])
    matchings, stack = 0, [(1 << graph.vertex_count) - 1]  # the uncovered vertices, as a bitmask
    while stack:  # depth first on a list, so a long path does not meet Python's recursion limit
        uncovered = stack.pop()
        if not uncovered:
            matchings += 1
            continue
        v = (uncovered & -uncovered).bit_length() - 1
        stack += (uncovered ^ pair for pair in ups[v] if pair & uncovered == pair)
    return matchings


@dataclass(frozen=True)
class RecoveryReport:
    field: Field
    b_values: tuple[int, ...]
    b_sources: tuple[str, ...]
    t_values: tuple[int, ...]
    recovered: int
    direct: int

    @property
    def match(self) -> bool:
        return self.recovered == self.direct


def recover_perfect_matchings(
    graph: SimpleGraph, field: Field, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> RecoveryReport:
    """Recover the perfect matching count from basis counts of the lifts.

    Basis counts b_k for k = 1 .. n/2 + 1 are counted directly while the
    2^(4mk) subsets of the letter columns fit :func:`count_bases`' default
    bound, where it needs no state bound, and taken from the per-template
    closed form otherwise (legitimized by the partition property, which the
    tests establish on directly enumerable cases), with the template counts
    from :func:`count_feasible_templates`.  The closed form for a template
    with j bidirected edges is c_k x_k^j, so b_k = c_k sum over j of t_j
    x_k^j, and interpolating the template polynomial through the distinct
    nodes x_k then yields t_(n/2), the number of perfect matchings.  The
    template count is bounded as :func:`count_feasible_templates` sets out,
    before any search.
    """
    n, m = graph.vertex_count, graph.edge_count
    if n % 2:
        raise OddVertexCountError("perfect matching recovery needs an even vertex count")
    char_two = field.is_char_two
    t_true = count_feasible_templates(graph, char_two, max_elements)
    top = n // 2
    forms = [_closed_form(n, m, k, char_two) for k in range(1, top + 2)]
    b_values, sources = [], []
    for k, (scale, x) in enumerate(forms, 1):
        if 1 << 4 * m * k <= _MAX_SUBSETS:
            gm = build_gadget_matrix(graph, k)
            b_k = count_bases(gm.ground_columns(), field, gm.target_rank)
            sources.append("enumerated")
        else:
            # with x = a/q in lowest terms, b_k = c_k sum_j t_j x^j is one integer over 4^n q^top
            a, q = x.numerator, x.denominator
            total = scale * sum(t_true.get(j, 0) * a**j * q ** (top - j) for j in range(top + 1))
            b_k, left = divmod(total, 4**n * q**top)
            if left:
                raise AssertionError("template sum must be an integer")
            sources.append("template-sum")
        b_values.append(b_k)
    solution = vandermonde_solve([x for _, x in forms], [Fraction(b * 4**n, c) for b, (c, _) in zip(b_values, forms)])
    t_values = []
    for value in (solution.terms.get(j, Fraction(0)) for j in range(top + 1)):
        if value.denominator != 1 or value < 0:
            raise AssertionError("recovered template counts must be non-negative integers")
        t_values.append(int(value))
    return RecoveryReport(
        field=field,
        b_values=tuple(b_values),
        b_sources=tuple(sources),
        t_values=tuple(t_values),
        recovered=t_values[top],
        direct=count_perfect_matchings(graph),
    )
