"""Concrete carriers: rooted graphs, rooted digraphs and binary matrices.

Each carrier exposes a feasibility oracle over edge/column subsets and a
constructor for the corresponding greedoid:

* rooted graph: a subset is feasible when it is the edge set of a tree
  through the root (the root component of the spanning subgraph is a tree
  containing every chosen edge);
* rooted digraph: same with "arborescence rooted at r" in place of "tree";
* binary matrix: a column subset A is feasible when the top |A| rows of
  those columns form a nonsingular matrix over GF(2).

Edges and columns carry stable ids given by their list position; every
construction elsewhere in the package derives new ids deterministically
from (old id, copy index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .errors import (
    ElementOutOfRangeError,
    FullRowRankError,
    NotConnectedError,
    NotRootConnectedError,
    ParseError,
    PreconditionError,
)
from .greedoid import DEFAULT_MAX_ELEMENTS, Greedoid, enumerate_feasible_sets
from .primitives import as_integer, find, gf2_insert, gf2_pack, gf2_rank, join_edges, reach, renumber


def _check_vertices(carrier, attr: str, kind: str) -> None:
    """Store the carrier's vertex count, pairs and root, if any, as ints (see
    :func:`.primitives.as_integer`) and check that they lie in its vertex range."""
    pairs = tuple((as_integer(u, "vertex"), as_integer(v, "vertex")) for u, v in getattr(carrier, attr))
    object.__setattr__(carrier, attr, pairs)
    n = as_integer(carrier.vertex_count, "vertex count")
    object.__setattr__(carrier, "vertex_count", n)
    if hasattr(carrier, "root"):
        object.__setattr__(carrier, "root", as_integer(carrier.root, "root"))
        if not 0 <= carrier.root < n:
            raise ElementOutOfRangeError(f"root {carrier.root} outside vertex range")
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ElementOutOfRangeError(f"{kind} ({u}, {v}) outside vertex range")


@dataclass(frozen=True)
class RootedGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    root: int

    def __post_init__(self):
        _check_vertices(self, "edges", "edge")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class RootedDigraph:
    vertex_count: int
    arcs: tuple[tuple[int, int], ...]
    root: int

    def __post_init__(self):
        _check_vertices(self, "arcs", "arc")

    @property
    def edge_count(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class UnrootedGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_vertices(self, "edges", "edge")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BinaryMatrix:
    """0/1 matrix; columns are the greedoid elements."""

    bits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        table = tuple(tuple(as_integer(b, "matrix entry") for b in row) for row in self.bits)
        object.__setattr__(self, "bits", table)
        if table and any(len(row) != len(table[0]) for row in table):
            raise PreconditionError("ragged rows")
        if any(b not in (0, 1) for row in table for b in row):
            raise PreconditionError("entries must be 0 or 1")

    @property
    def row_count(self) -> int:
        return len(self.bits)

    @property
    def col_count(self) -> int:
        return len(self.bits[0]) if self.bits else 0

    @property
    def edge_count(self) -> int:
        return self.col_count

    def column_bits(self) -> tuple[int, ...]:
        """Column c as an int whose bit r is the entry in row r."""
        return tuple(gf2_pack(zip(*self.bits)))


Carrier = Union[RootedGraph, RootedDigraph, BinaryMatrix]


# ---------------------------------------------------------------------------
# feasibility oracles


def _root_tree(pairs, vertex_count: int, root: int, mask: int) -> list | None:
    """The chosen pairs in order when they form a tree through the root, else None.

    They must form a forest, and every chosen pair must lie in the root's
    tree of it: a circuit is fatal wherever it sits, since the root's
    component must be a tree and no edge may lie outside it.  Each call
    makes a forest over the vertices 0 .. vertex_count - 1, so the oracles
    renumber their pairs once (:func:`.primitives.renumber`) and the forest
    has one entry per vertex they touch, whatever the vertex ids.
    """
    parent = list(range(vertex_count))
    chosen = join_edges(parent, pairs, mask)
    if chosen is None:
        return None
    target = find(parent, root)
    return chosen if all(find(parent, u) == target for u, _ in chosen) else None


def branching_feasibility(graph: RootedGraph) -> Callable[[int], bool]:
    """Oracle: chosen edges form a tree through the root."""
    edges, vertices = renumber(graph.edges, graph.root)  # the root is vertex 0
    nv = len(vertices)
    return lambda mask: _root_tree(edges, nv, 0, mask) is not None


def directed_branching_feasibility(digraph: RootedDigraph) -> Callable[[int], bool]:
    """Oracle: chosen arcs form an arborescence rooted at the root.

    That is: they form a tree through the root (arcs read as edges), no
    vertex is the head of two chosen arcs, and the root is the head of none.
    An arborescence passes all three.  Conversely, a tree through r with k
    arcs has k + 1 vertices; the k heads are distinct and not r, so every
    other vertex is the head of exactly one arc.  Walking back along these
    arcs from any vertex never meets a vertex twice (the tree has no
    circuit), so it stops, and it can stop only at r, the one vertex without
    an arc in; so r reaches every vertex along the arcs.
    """
    arcs, vertices = renumber(digraph.arcs, digraph.root)  # the root is vertex 0
    nv = len(vertices)

    def oracle(mask: int) -> bool:
        chosen = _root_tree(arcs, nv, 0, mask)
        if chosen is None:
            return False
        heads = {v for _, v in chosen}
        return len(heads) == len(chosen) and 0 not in heads

    return oracle


def binary_feasibility(matrix: BinaryMatrix) -> Callable[[int], bool]:
    """Oracle: top-|A| rows of the chosen columns are nonsingular over GF(2).

    A subset larger than the row count is infeasible; the empty matrix counts
    as nonsingular.
    """
    col_bits = matrix.column_bits()
    rows = matrix.row_count

    def oracle(mask: int) -> bool:
        p = mask.bit_count()
        if p == 0:
            return True
        if p > rows:
            return False
        window = (1 << p) - 1
        basis: dict[int, int] = {}
        m = mask
        c = 0
        while m:
            if m & 1 and not gf2_insert(basis, col_bits[c] & window):
                return False
            m >>= 1
            c += 1
        return True

    return oracle


def branching_greedoid(graph: RootedGraph) -> Greedoid:
    return Greedoid(graph.edge_count, branching_feasibility(graph), name="branching")


def directed_branching_greedoid(digraph: RootedDigraph) -> Greedoid:
    return Greedoid(digraph.edge_count, directed_branching_feasibility(digraph), name="directed branching")


def binary_greedoid(matrix: BinaryMatrix) -> Greedoid:
    return Greedoid(matrix.col_count, binary_feasibility(matrix), name="binary")


def to_greedoid(carrier: Carrier | Greedoid) -> Greedoid:
    if isinstance(carrier, Greedoid):
        return carrier
    if isinstance(carrier, RootedGraph):
        return branching_greedoid(carrier)
    if isinstance(carrier, RootedDigraph):
        return directed_branching_greedoid(carrier)
    if isinstance(carrier, BinaryMatrix):
        return binary_greedoid(carrier)
    raise TypeError(f"not a carrier: {carrier!r}")


def carrier_elements(carrier: Carrier) -> tuple:
    """The elements of a carrier in id order: its edges, its arcs or its columns."""
    if isinstance(carrier, RootedGraph):
        return carrier.edges
    if isinstance(carrier, RootedDigraph):
        return carrier.arcs
    if isinstance(carrier, BinaryMatrix):
        return tuple(zip(*carrier.bits))
    raise TypeError(f"not a carrier: {carrier!r}")


def root_reach(carrier: RootedGraph | RootedDigraph) -> set[int]:
    """The vertices the root reaches along the carrier's edges, or along its arcs."""
    return reach(carrier.root, carrier_elements(carrier), isinstance(carrier, RootedDigraph))


def carrier_rank(carrier: Carrier) -> int:
    """Rank of the carrier's greedoid, in polynomial time.

    A graph or digraph has rank one less than the number of vertices the
    root reaches; a matrix, the largest k whose top k rows are independent
    over GF(2).
    """
    if not isinstance(carrier, BinaryMatrix):
        return len(root_reach(carrier)) - 1
    basis: dict[int, int] = {}
    rows = gf2_pack(carrier.bits)
    return next((k for k, row in enumerate(rows) if not gf2_insert(basis, row)), len(rows))


def with_elements(
    carrier: Carrier, elements, vertex_count: int | None = None, root: int | None = None
) -> Carrier:
    """A carrier of the same kind holding ``elements``, read as :func:`carrier_elements` gives them.

    A graph or digraph keeps its vertex count and root unless new ones are
    given; a matrix keeps its row count, also when it is left with no column.
    """
    if isinstance(carrier, BinaryMatrix):
        return BinaryMatrix(tuple(tuple(col[r] for col in elements) for r in range(carrier.row_count)))
    return type(carrier)(
        carrier.vertex_count if vertex_count is None else vertex_count,
        tuple(elements),
        carrier.root if root is None else root,
    )


def induced_carrier(carrier: RootedGraph | RootedDigraph, kept: Iterable[int]) -> RootedGraph | RootedDigraph:
    """The carrier on the vertices ``kept``, which hold the root, renumbered
    in increasing order, with the elements whose ends are both kept, in
    carrier order."""
    index = {v: i for i, v in enumerate(sorted(kept))}
    elements = [(index[u], index[v]) for u, v in carrier_elements(carrier) if u in index and v in index]
    return with_elements(carrier, elements, len(index), index[carrier.root])


def merge_identical_elements(carrier: Carrier) -> tuple[Carrier, tuple[int, ...]]:
    """The core carrier with one element per class of identical elements, and the class sizes.

    Identical elements are edges with the same unordered endpoint pair, arcs
    with the same (tail, head), or equal columns.  No feasible set holds two
    elements of one class and any member may stand for the others, so the
    rank of a subset depends only on which classes it meets.  Core element i
    is the first element of the i-th class in carrier order; a carrier
    without repeated elements is its own core.
    """
    items = keys = carrier_elements(carrier)
    if isinstance(carrier, RootedGraph):
        keys = [(min(u, v), max(u, v)) for u, v in items]
    sizes: dict = {}
    firsts = []
    for key, item in zip(keys, items):
        if key not in sizes:
            sizes[key] = 0
            firsts.append(item)
        sizes[key] += 1
    if len(firsts) == len(items):
        return carrier, (1,) * len(items)
    return with_elements(carrier, firsts), tuple(sizes.values())


# ---------------------------------------------------------------------------
# connectivity helpers


def graph_is_connected(graph: RootedGraph | UnrootedGraph) -> bool:
    if graph.vertex_count == 0:
        return True
    root = graph.root if isinstance(graph, RootedGraph) else 0
    return len(reach(root, graph.edges, False)) == graph.vertex_count


def digraph_is_root_connected(digraph: RootedDigraph) -> bool:
    return len(root_reach(digraph)) == digraph.vertex_count


def require_connected(graph: RootedGraph) -> None:
    if not graph_is_connected(graph):
        raise NotConnectedError("rooted graph is not connected")


def require_root_connected(digraph: RootedDigraph) -> None:
    if not digraph_is_root_connected(digraph):
        raise NotRootConnectedError("digraph is not root-connected")


def require_full_row_rank(matrix: BinaryMatrix) -> None:
    if gf2_row_rank(matrix) != matrix.row_count:
        raise FullRowRankError("matrix must have linearly independent rows")


def digraph_has_directed_cycle(digraph: RootedDigraph) -> bool:
    """Kahn's algorithm: the digraph is acyclic exactly when repeatedly
    removing vertices of in-degree zero removes every vertex."""
    indegree = [0] * digraph.vertex_count
    out: dict[int, list[int]] = {}
    for u, v in digraph.arcs:
        indegree[v] += 1
        out.setdefault(u, []).append(v)
    ready = [v for v, d in enumerate(indegree) if d == 0]
    removed = 0
    while ready:
        u = ready.pop()
        removed += 1
        for v in out.get(u, ()):
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return removed < digraph.vertex_count


def sink_count(digraph: RootedDigraph) -> int:
    """Non-isolated vertices with no outgoing arc."""
    has_out = set(u for u, _ in digraph.arcs)
    touched = set(u for u, _ in digraph.arcs) | set(v for _, v in digraph.arcs)
    return sum(1 for v in touched if v not in has_out)


# ---------------------------------------------------------------------------
# standard small families


def path_graph(k: int) -> RootedGraph:
    """Path with k edges, rooted at a leaf."""
    return RootedGraph(k + 1, tuple((i, i + 1) for i in range(k)), 0)


def star_graph(k: int) -> RootedGraph:
    """Star with k edges, rooted at the center."""
    return RootedGraph(k + 1 if k else 1, tuple((0, i + 1) for i in range(k)), 0)


def directed_path(k: int) -> RootedDigraph:
    """Directed path with k arcs pointing away from the root leaf."""
    return RootedDigraph(k + 1, tuple((i, i + 1) for i in range(k)), 0)


def directed_star(k: int) -> RootedDigraph:
    """Star with k arcs emanating from the root."""
    return RootedDigraph(k + 1 if k else 1, tuple((0, i + 1) for i in range(k)), 0)


def identity_matrix(k: int) -> BinaryMatrix:
    return BinaryMatrix(tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k)))


_STANDARD = {
    "path": path_graph,
    "star": star_graph,
    "dpath": directed_path,
    "dstar": directed_star,
    "identity": identity_matrix,
}


def standard_family(kind: str, k: int) -> Carrier:
    if (k := as_integer(k, "family size")) < 0:
        raise PreconditionError("family size must be non-negative")
    try:
        return _STANDARD[kind](k)
    except KeyError:
        raise ParseError(f"unknown family {kind!r}; choose from {sorted(_STANDARD)}") from None


def demo_binary_matrix() -> BinaryMatrix:
    """3x4 binary matrix whose greedoid has exactly nine feasible sets."""
    return BinaryMatrix(((1, 0, 0, 1), (1, 0, 1, 0), (0, 1, 1, 1)))


# ---------------------------------------------------------------------------
# binary matrix utilities


def gf2_row_rank(matrix: BinaryMatrix) -> int:
    return gf2_rank(matrix.bits)


def add_row(matrix: BinaryMatrix, i: int, j: int) -> BinaryMatrix:
    """Add row i to row j over GF(2), for i < j."""
    if not 0 <= i < j < matrix.row_count:
        raise PreconditionError("need row indices i < j inside the matrix")
    rows = [list(r) for r in matrix.bits]
    rows[j] = [a ^ b for a, b in zip(rows[j], rows[i])]
    return BinaryMatrix(tuple(tuple(r) for r in rows))


def row_add_isomorphism_check(
    matrix: BinaryMatrix, i: int, j: int, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> bool:
    """Adding row i to row j (i < j) must not change the feasible family."""
    before = enumerate_feasible_sets(binary_greedoid(matrix), max_elements)
    after = enumerate_feasible_sets(binary_greedoid(add_row(matrix, i, j)), max_elements)
    return before == after


# ---------------------------------------------------------------------------
# file formats


def _content_lines(text: str):
    """Each line's number, from 1, and its text before any ``#``, stripped, when that is not empty."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _vertex_id(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: vertex id {token!r} is not an integer") from None


def parse_graph_text(text: str) -> RootedGraph | RootedDigraph | UnrootedGraph:
    """Parse the edge-list format.

    Lines: ``root <v>`` (at most once), then ``edge <u> <v>`` for undirected
    edges or ``arc <u> <v>`` for directed ones; mixing edge and arc lines is
    an error.  Vertices are 0-based; the vertex count is one more than the
    largest mentioned id.  Files without a root line parse as unrooted graphs
    (and cannot contain arcs).
    """
    root: int | None = None
    pairs: list[tuple[int, int]] = []
    kinds: set[str] = set()
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "root":
            if root is not None:
                raise ParseError(f"line {lineno}: duplicate root line")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'root <v>'")
            root = _vertex_id(parts[1], lineno)
        elif parts[0] in ("edge", "arc"):
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected '{parts[0]} <u> <v>'")
            kinds.add(parts[0])
            pairs.append((_vertex_id(parts[1], lineno), _vertex_id(parts[2], lineno)))
        else:
            raise ParseError(f"line {lineno}: unknown directive {parts[0]!r}")
    if len(kinds) > 1:
        raise ParseError("a file may not mix edge and arc lines")
    mentioned = [root] if root is not None else []
    mentioned += [u for u, _ in pairs] + [v for _, v in pairs]
    if any(v < 0 for v in mentioned):
        raise ParseError("vertex ids must be non-negative")
    count = max(mentioned, default=-1) + 1
    directed = kinds == {"arc"}
    if root is None:
        if directed:
            raise ParseError("arc lines require a root line")
        return UnrootedGraph(max(count, 0), tuple(pairs))
    if directed:
        return RootedDigraph(count, tuple(pairs), root)
    return RootedGraph(count, tuple(pairs), root)


def parse_matrix_text(text: str) -> BinaryMatrix:
    """Parse one row of contiguous 0/1 characters per line."""
    rows = []
    for lineno, line in _content_lines(text):
        if set(line) - {"0", "1"}:
            raise ParseError(f"line {lineno}: matrix rows must be 0/1 strings")
        rows.append(tuple(int(ch) for ch in line))
    if not rows:
        raise ParseError("empty matrix file")
    if len({len(r) for r in rows}) != 1:
        raise ParseError("matrix rows must all have the same length")
    return BinaryMatrix(tuple(rows))


def parse_carrier_text(text: str) -> Carrier | UnrootedGraph:
    """Sniff the format: 0/1 rows mean a binary matrix, otherwise edge lists."""
    for _, line in _content_lines(text):
        return parse_matrix_text(text) if set(line) <= {"0", "1"} else parse_graph_text(text)
    raise ParseError("empty carrier file")


def format_carrier(carrier: Carrier | UnrootedGraph) -> str:
    if isinstance(carrier, BinaryMatrix):
        return "\n".join("".join(str(b) for b in row) for row in carrier.bits) + "\n"
    lines = []
    if isinstance(carrier, RootedGraph):
        lines.append(f"root {carrier.root}")
        lines += [f"edge {u} {v}" for u, v in carrier.edges]
    elif isinstance(carrier, RootedDigraph):
        lines.append(f"root {carrier.root}")
        lines += [f"arc {u} {v}" for u, v in carrier.arcs]
    elif isinstance(carrier, UnrootedGraph):
        lines += [f"edge {u} {v}" for u, v in carrier.edges]
    else:
        raise TypeError(f"not a carrier: {carrier!r}")
    return "\n".join(lines) + "\n"
