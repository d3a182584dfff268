"""Integers read from outside, union-find (with one pass over an edge bitmask,
and vertex renumbering for it), root reachability, blocks, GF(2) elimination,
the binomial shift, polynomials packed into ints (with their Taylor shift by
-1) and the Gaussian binomial, shared by every module.

This module imports nothing from the package but its errors, so any module
may import it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import index, lshift
from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError


def as_integer(value, what: str) -> int:
    """An int read from outside: what ``operator.index`` takes, or a Fraction
    of denominator 1; anything else is refused, naming it as ``what``."""
    try:
        return index(value)
    except TypeError:
        if isinstance(value, Fraction) and value.denominator == 1:
            return value.numerator
        raise PreconditionError(f"{what} {value!r} is not an integer") from None


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


def block_elements(root: int, pairs: Iterable[tuple[int, int]], reached: set[int]) -> list[tuple[int, list[int], dict]]:
    """The blocks of the root's component, as :func:`blocks` gives them, each
    with its elements counted by end pair: the pairs that are no loop and
    whose first end is in ``reached``, the vertices the root reaches along
    the pairs.  An element lies in the block of both its ends: the first in
    post-order to hold one of them below its top, as the block above comes later.
    """
    counts = Counter(pair for pair in pairs if pair[0] in reached and pair[0] != pair[1])
    tree, _ = blocks(root, counts)
    own = {v: i for i, (_, others) in enumerate(tree) for v in others}
    parts: list[dict[tuple[int, int], int]] = [{} for _ in tree]
    for (u, v), count in counts.items():
        parts[min(own.get(u, len(tree)), own.get(v, len(tree)))][(u, v)] = count
    return [(top, others, part) for (top, others), part in zip(tree, parts)]


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


def packed_powers(m: int) -> list[int]:
    """(1+z)^k for k = 0..m, each packed into one int with m + 1 bits per
    coefficient of z, the lowest power in the lowest bits.

    Every profile engine counts subsets of m elements by size in this
    packing.  No count exceeds 2^m, so each fits its m + 1 bits, and while
    every coefficient is nonnegative, a sum or product of packed polynomials
    is one sum or product of ints, with no carry (or borrow, for a
    difference) from one coefficient into the next.  This table holds about
    m^3 / 2 bits; :func:`packed_power` gives one power.
    """
    powers = [1]
    for _ in range(m):
        powers.append(powers[-1] + (powers[-1] << (m + 1)))
    return powers


def packed_power(k: int, width: int) -> int:
    """(1+z)^k packed ``width`` bits per coefficient, as in :func:`packed_powers`.

    No coefficient reaches 2^width, so that is the int (1 + 2^width)^k.  Up
    to a few thousand bits one int power is the faster way to it; past them,
    packing the binomials.
    """
    if k * width < 4096:
        return (1 + (1 << width)) ** k
    return pack_fields(binomial_shift({k: 1}, 1), width)


def pack_fields(values: Sequence[int], width: int) -> int:
    """Ints below 2^width as one int, ``width`` bits each, the first lowest.  Halving
    the list keeps the work near linear in the bits, where a shift per field is not."""
    if len(values) <= 16:
        return sum(v << i * width for i, v in enumerate(values))
    half = len(values) // 2
    return pack_fields(values[:half], width) | pack_fields(values[half:], width) << half * width


def packed_fields(packed: int, width: int, count: int) -> list[int]:
    """The first ``count`` fields of ``width`` bits of a nonnegative int, lowest
    first, split by halves as :func:`pack_fields` joins them."""
    if count <= 16:
        return [packed >> i * width & (1 << width) - 1 for i in range(count)]
    half = count // 2
    low = packed_fields(packed & (1 << half * width) - 1, width, half)
    return low + packed_fields(packed >> half * width, width, count - half)


def horner_minus_one(values: Sequence[int], shift: int, g: int = 1, k: int = 0) -> int:
    """The sum of values[s] (X^g - 1)^s at X = 2^shift, by Horner's rule at
    X^g: each step multiplies by X^g - 1 as one shift and one subtraction.
    For g > 1 it is then multiplied by q^k, q = 1 + X + ... + X^(g-1), one
    power of a packed int: the thickening identity's weight.

    With the values polynomials packed at 2^shift (ints, or ints packed
    narrower), this is the Taylor shift by -1 on packed ints (von zur Gathen
    and Gerhard, "Fast algorithms for Taylor shifts and certain difference
    equations", ISSAC 1997).
    """
    step, acc = g * shift, 0
    for c in reversed(values):
        acc = (acc << step) - acc + c
    return acc * (((1 << step) - 1) // ((1 << shift) - 1)) ** k if g > 1 else acc


def signed_fields(packed: int, width: int, count: int) -> list[int]:
    """The ``count`` ints a_k with ``packed`` the sum of a_k 2^(k width), when
    every |a_k| < 2^(width - 1): a bias of 2^(width - 1) per field makes each
    field nonnegative, so :func:`packed_fields` splits them by halves.  The
    bias is made by doubling, then cut to ``count`` fields."""
    half = bias = 1 << width - 1
    copies = 1
    while copies < count:
        bias |= bias << copies * width
        copies *= 2
    bias &= (1 << count * width) - 1
    return [f - half for f in packed_fields(packed + bias, width, count)]


def shift_minus_one(coeffs: Sequence[int], g: int = 1, k: int = 0) -> list[int]:
    """Coefficients of q^k times the sum of coeffs[s] (t^g - 1)^s, lowest
    power of t first, q = 1 + t + ... + t^(g-1): for g = 1 ``binomial_shift``
    by -1 for ints, as one packed Horner pass.

    (t^g - 1)^s has coefficients of absolute sum 2^s and q^k of sum g^k, so no
    coefficient of the result, or of a partial sum of the pass, exceeds
    B = g^k times the sum of |coeffs[s]| 2^s; fields of width bits with
    2^(width - 1) > B hold each one.
    """
    width = (sum(map(lshift, map(abs, coeffs), range(len(coeffs)))) * g**k).bit_length() + 1
    count = g * (len(coeffs) - 1) + (g - 1) * k + 1
    return signed_fields(horner_minus_one(coeffs, width, g, k), width, count)


def unpack_profile(by_rank: Sequence[int], width: int) -> dict[tuple[int, int], int]:
    """Subset counts keyed by (rank deficit, size surplus), from ``by_rank[r]``,
    the subsets of rank r counted by size, packed ``width`` bits per
    coefficient; the last rank is the whole set's.  Zero counts get no key."""
    top, profile = len(by_rank) - 1, {}
    for rank, packed in enumerate(by_rank):
        for size, count in enumerate(packed_fields(packed, width, packed.bit_length() // width + 1)):
            if count:
                profile[(top - rank, size - rank)] = count
    return profile


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n choose k]_q, the number of k-dimensional subspaces of GF(q)^n (0 when k > n)."""
    count = 1
    for j in range(k):  # each partial product is [n choose j + 1]_q, an integer
        count = count * (q ** (n - j) - 1) // (q ** (j + 1) - 1)
    return count
