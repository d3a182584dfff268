"""Union-find (with one pass over an edge bitmask, and vertex renumbering for
it), root reachability, GF(2) elimination, the binomial shift and the
Gaussian binomial, shared by every module.

This module imports nothing from the package, so any module may import it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def find(parent: list[int], v: int) -> int:
    """Representative of v in a union-find forest, halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def join_edges(parent: list[int], pairs: Sequence[tuple[int, int]], mask: int) -> list | None:
    """Join the ends of the pairs chosen by ``mask`` in a union-find forest.

    Returns the chosen pairs in order, or None as soon as one closes a
    circuit (a loop closes one at once), so a list back means the chosen
    pairs form a forest.
    """
    chosen = []
    while mask:
        low = mask & -mask
        pair = pairs[low.bit_length() - 1]
        ru, rv = find(parent, pair[0]), find(parent, pair[1])
        if ru == rv:
            return None
        parent[ru] = rv
        chosen.append(pair)
        mask ^= low
    return chosen


def renumber(pairs: Iterable[tuple[int, int]], *first: int) -> tuple[list[tuple[int, int]], list]:
    """The pairs over their vertices renumbered 0, 1, ... in order of first
    mention, the vertices ``first`` before all others, and the old vertex
    of each new one.

    A union-find forest over the renumbered pairs has one entry per vertex
    they touch, whatever the largest vertex id.
    """
    index = {v: i for i, v in enumerate(dict.fromkeys(first))}
    pairs = [(index.setdefault(u, len(index)), index.setdefault(v, len(index))) for u, v in pairs]
    return pairs, list(index)


def reach(root: int, pairs: Iterable[tuple[int, int]], directed: bool) -> set[int]:
    """Vertices reachable from ``root`` along the pairs, read as arcs u -> v
    when ``directed`` and as undirected edges otherwise."""
    adj: dict[int, list[int]] = {}
    for u, v in pairs:
        adj.setdefault(u, []).append(v)
        if not directed:
            adj.setdefault(v, []).append(u)
    reached = {root}
    stack = [root]
    while stack:
        for v in adj.get(stack.pop(), ()):
            if v not in reached:
                reached.add(v)
                stack.append(v)
    return reached


def blocks(root: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[tuple[int, list[int]]], set[int]]:
    """The blocks of the undirected graph on the pairs that hold the root's
    component, and the vertices of that component.

    Each block is given as its vertex nearest the root and a list of its
    other vertices, and the blocks come in post-order of the block-cut tree:
    every block hanging below a vertex of a block comes before that block.
    Loops lie in no block.  The depth-first search keeps its own stack, so
    no path is too long for it (Tarjan, SIAM J. Comput. 1, 1972).
    """
    adj: dict[int, list[int]] = {}
    for u, v in pairs:
        if u != v:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
    order = {root: 0}  # discovery index of each vertex seen
    low = {root: 0}  # least discovery index reached from its subtree by one back edge
    pending = [root]  # vertices seen and not yet in a block, in discovery order
    found = []
    path = [(root, iter(adj.get(root, ())))]
    while path:
        u, neighbours = path[-1]
        for v in neighbours:
            if v not in order:
                order[v] = low[v] = len(order)
                pending.append(v)
                path.append((v, iter(adj.get(v, ()))))
                break
            low[u] = min(low[u], order[v])
        else:
            path.pop()
            if path:
                top = path[-1][0]
                low[top] = min(low[top], low[u])
                if low[u] >= order[top]:  # top separates u's subtree from the root
                    block = [pending.pop()]  # u's subtree above the blocks found in it
                    while block[-1] != u:
                        block.append(pending.pop())
                    found.append((top, block))
    return found, set(order)


def gf2_pack(vectors: Iterable[Iterable[int]]) -> list[int]:
    """Each integer vector reduced mod 2, as an int whose bit i is entry i."""
    return [sum((b & 1) << i for i, b in enumerate(vec)) for vec in vectors]


def gf2_insert(basis: dict[int, int], vec: int) -> bool:
    """Reduce a packed vector against a GF(2) basis keyed by leading bit.

    What is left joins the basis and True is returned; a vector in the span
    of the basis reduces to zero and gives False.
    """
    while vec:
        high = vec.bit_length() - 1
        if high in basis:
            vec ^= basis[high]
        else:
            basis[high] = vec
            return True
    return False


def gf2_rank(vectors: Iterable[Iterable[int]]) -> int:
    """Rank over GF(2) of integer vectors, read mod 2."""
    basis: dict[int, int] = {}
    return sum(gf2_insert(basis, vec) for vec in gf2_pack(vectors))


def binomial_shift(coeffs: Mapping[int, object], a) -> list:
    """Coefficients of the sum of coeffs[e] * (t + a)**e, lowest power of t first.

    Exponents must be non-negative; ``binomial_shift({k: 1}, a)`` is the row
    of (t + a)**k.  The arithmetic is that of the inputs, so ints give ints
    and Fractions give Fractions.
    """
    out = [0] * (max(coeffs, default=-1) + 1)
    for e, c in coeffs.items():
        binom, power = 1, 1  # C(e, i) and a**(e - i), from i = e down
        for i in range(e, -1, -1):
            out[i] += c * binom * power
            binom = binom * i // (e - i + 1)
            power *= a
    return out


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n choose k]_q, the number of k-dimensional subspaces of GF(q)^n (0 when k > n)."""
    count = 1
    for j in range(k):  # each partial product is [n choose j + 1]_q, an integer
        count = count * (q ** (n - j) - 1) // (q ** (j + 1) - 1)
    return count
