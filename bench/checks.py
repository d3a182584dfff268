"""Independent answers for the benchmark's output checks.

Standard library only, and nothing here calls ``greedoid_tutte``: every check
compares the library with a second computation written from the definitions,
never with the library itself.  Carriers arrive as plain data:

* rooted graph: ``(vertex_count, edges, root)``
* rooted digraph: ``(vertex_count, arcs, root)``
* binary matrix: a tuple of 0/1 rows; the columns are the elements

Polynomials are dicts from exponents to ``Fraction`` with no zero values:
``{(i, j): c}`` for c x^i y^j and ``{e: c}`` for c z^e.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd

# ---------------------------------------------------------------------------
# ranks of the three greedoid families


def reached(vertex_count: int, pairs, root: int, directed: bool) -> set[int]:
    """Vertices reachable from the root along the given edges or arcs."""
    adjacent: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in pairs:
        adjacent[u].append(v)
        if not directed:
            adjacent[v].append(u)
    seen = {root}
    stack = [root]
    while stack:
        for v in adjacent[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _column_bits(rows, columns, height: int) -> list[int]:
    """Each chosen column as an int whose bit r is its entry in row r < height."""
    return [sum(rows[r][c] << r for r in range(height)) for c in columns]


def gf2_independent(vectors) -> bool:
    basis: dict[int, int] = {}
    for vec in vectors:
        while vec:
            top = vec.bit_length() - 1
            if top not in basis:
                basis[top] = vec
                break
            vec ^= basis[top]
        if not vec:
            return False
    return True


def binary_feasible(rows, columns) -> bool:
    """Top |columns| rows of the chosen columns are nonsingular over GF(2)."""
    p = len(columns)
    if p > len(rows):
        return False
    return gf2_independent(_column_bits(rows, columns, p))


def binary_rank_and_bases(rows) -> tuple[int, int]:
    """(rank, number of feasible sets of that size) of a binary greedoid."""
    width = len(rows[0]) if rows else 0
    for p in range(min(len(rows), width), -1, -1):
        count = sum(1 for cols in combinations(range(width), p) if binary_feasible(rows, cols))
        if count:
            return p, count
    raise AssertionError("the empty set is always feasible")


def subset_rank(kind: str, carrier, subset: tuple[int, ...]) -> int:
    """Greedoid rank of an element subset, straight from the definitions."""
    if kind == "binary":
        return max(
            p
            for p in range(len(subset) + 1)
            if any(binary_feasible(carrier, cols) for cols in combinations(subset, p))
        )
    vertex_count, pairs, root = carrier
    chosen = [pairs[e] for e in subset]
    return len(reached(vertex_count, chosen, root, kind == "digraph")) - 1


def element_count(kind: str, carrier) -> int:
    return len(carrier[0]) if kind == "binary" else len(carrier[1])


def full_rank(kind: str, carrier) -> int:
    if kind == "binary":
        return binary_rank_and_bases(carrier)[0]
    return subset_rank(kind, carrier, tuple(range(element_count(kind, carrier))))


# ---------------------------------------------------------------------------
# basis counts: T(1, 1)


def det(matrix) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in matrix]
    n = len(a)
    value = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            value = -value
        value *= a[k][k]
        for r in range(k + 1, n):
            factor = a[r][k] / a[k][k]
            if factor:
                for c in range(k, n):
                    a[r][c] -= factor * a[k][c]
    return value


def _reduced_laplacian(vertex_count, pairs, root, directed) -> list[list[int]]:
    keep = sorted(reached(vertex_count, pairs, root, directed))
    index = {v: i for i, v in enumerate(keep)}
    lap = [[0] * len(keep) for _ in keep]
    for u, v in pairs:
        if u == v or u not in index or v not in index:
            continue
        iu, iv = index[u], index[v]
        lap[iv][iv] += 1
        lap[iu][iv] -= 1
        if not directed:
            lap[iu][iu] += 1
            lap[iv][iu] -= 1
    skip = index[root]
    return [[x for c, x in enumerate(row) if c != skip] for r, row in enumerate(lap) if r != skip]


def basis_count(kind: str, carrier) -> int:
    """Number of bases: Kirchhoff's determinant for graphs, the directed
    matrix-tree theorem for digraphs, and a count of r-column sets with
    nonsingular top r rows for binary matrices."""
    if kind == "binary":
        return binary_rank_and_bases(carrier)[1]
    vertex_count, pairs, root = carrier
    value = det(_reduced_laplacian(vertex_count, pairs, root, kind == "digraph"))
    return int(value)


# ---------------------------------------------------------------------------
# bivariate polynomials


def _clean(terms: dict) -> dict:
    return {k: Fraction(c) for k, c in terms.items() if c != 0}


def _add(terms: dict, key, value) -> None:
    terms[key] = terms.get(key, 0) + value


def brute_force_polynomial(kind: str, carrier) -> dict:
    """Tutte polynomial as the sum over all 2^|E| subsets A of
    (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A))."""
    n = element_count(kind, carrier)
    top = full_rank(kind, carrier)
    profile: dict[tuple[int, int], int] = {}
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            r = subset_rank(kind, carrier, subset)
            _add(profile, (top - r, size - r), 1)
    terms: dict = {}
    for (d, s), count in profile.items():
        for i in range(d + 1):
            for j in range(s + 1):
                _add(terms, (i, j), count * comb(d, i) * comb(s, j) * (-1) ** (d - i + s - j))
    return _clean(terms)


def evaluate(poly: dict, a, b) -> Fraction:
    return sum((c * Fraction(a) ** i * Fraction(b) ** j for (i, j), c in poly.items()), Fraction(0))


def restrict_halpha(poly: dict, alpha) -> dict:
    """T(1 + alpha/z, 1 + z) as a Laurent polynomial in z."""
    out: dict = {}
    for (i, j), c in poly.items():
        for k in range(i + 1):
            for m in range(j + 1):
                _add(out, m - k, c * comb(i, k) * Fraction(alpha) ** k * comb(j, m))
    return _clean(out)


def restrict_x1(poly: dict) -> dict:
    """T(1, y) as a polynomial in y."""
    out: dict = {}
    for (_, j), c in poly.items():
        _add(out, j, c)
    return _clean(out)


def restrict_y1(poly: dict) -> dict:
    """T(x, 1) as a polynomial in x."""
    out: dict = {}
    for (i, _), c in poly.items():
        _add(out, i, c)
    return _clean(out)


def restrict_line_y(poly: dict, value) -> dict:
    """T(1 + z, value) as a polynomial in z."""
    out: dict = {}
    for (i, j), c in poly.items():
        for k in range(i + 1):
            _add(out, k, c * comb(i, k) * Fraction(value) ** j)
    return _clean(out)


def characteristic(poly: dict, rank: int) -> dict:
    """(-1)^rank T(1 - z, 0) as a polynomial in z."""
    out: dict = {}
    for (i, j), c in poly.items():
        if j:
            continue
        for k in range(i + 1):
            _add(out, k, (-1) ** (rank + k) * c * comb(i, k))
    return _clean(out)


def hyperbola_value(element_count: int, rank: int, a) -> Fraction:
    """Value on (a-1)(b-1) = 1: (a-1)^(rank-n) * a^n."""
    a = Fraction(a)
    return (a - 1) ** (rank - element_count) * a**element_count


# ---------------------------------------------------------------------------
# perfect matchings and basis counts of column sets


def perfect_matchings(vertex_count: int, edges) -> int:
    """Recursive count: match the lowest uncovered vertex every possible way."""
    neighbours: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)

    def count(uncovered: frozenset[int]) -> int:
        if not uncovered:
            return 1
        v = min(uncovered)
        return sum(count(uncovered - {v, w}) for w in neighbours[v] & uncovered)

    return count(frozenset(range(vertex_count)))


def count_column_bases(columns, need: int, char: int) -> int:
    """Number of ``need``-subsets of the columns that are linearly independent
    over GF(2) (char 2), GF(p) (odd prime char) or the rationals (char 0).

    Depth-first over subsets in index order, keeping the chosen columns in
    echelon form; a branch ends when too few columns remain.
    """
    if char == 2:
        packed = [sum((x & 1) << r for r, x in enumerate(col)) for col in columns]
        return _count_gf2(packed, 0, [], need)
    vectors = [[x % char if char else x for x in col] for col in columns]
    return _count_field(vectors, 0, [], need, char)


def _count_gf2(packed: list[int], start: int, basis: list[int], need: int) -> int:
    if need == 0:
        return 1
    total = 0
    for i in range(start, len(packed) - need + 1):
        vec = packed[i]
        for b in basis:  # sorted by leading bit, highest first
            if vec ^ b < vec:
                vec ^= b
        if vec:
            total += _count_gf2(packed, i + 1, sorted(basis + [vec], reverse=True), need - 1)
    return total


def _reduce(vec: list[int], basis, char: int) -> list[int]:
    for pivot, b in basis:
        if vec[pivot]:
            if char:
                factor = vec[pivot] * pow(b[pivot], -1, char) % char
                vec = [(x - factor * y) % char for x, y in zip(vec, b)]
            else:
                # fraction-free step, then divide out the common factor
                f, g = b[pivot], vec[pivot]
                vec = [f * x - g * y for x, y in zip(vec, b)]
                common = 0
                for x in vec:
                    common = gcd(common, x)
                if common > 1:
                    vec = [x // common for x in vec]
    return vec


def _count_field(vectors, start: int, basis, need: int, char: int) -> int:
    if need == 0:
        return 1
    total = 0
    for i in range(start, len(vectors) - need + 1):
        vec = _reduce(vectors[i], basis, char)
        pivot = next((r for r, x in enumerate(vec) if x), None)
        if pivot is not None:
            total += _count_field(vectors, i + 1, basis + [(pivot, vec)], need - 1, char)
    return total
