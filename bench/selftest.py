"""Hand-known values for the benchmark's own checkers.

    python3 bench/selftest.py

The checkers in ``checks.py`` are the benchmark's ground truth, so they are
tested here against values worked out by hand, with no library involved:

* the K2 gadget over GF(2) has b1 = 4 bases for k = 1 and b2 = 56 for k = 2;
* the rooted path with two edges has T = x^2 y - 2xy + x + y (see README.md);
* small spanning-tree, arborescence, matching and binary-rank counts;
* a checker must reject a wrong answer, not only accept right ones.

Exits 0 when every case holds and 1 otherwise.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import checks


def k2_gadget(copies: int) -> list[tuple[int, ...]]:
    """Letter columns of the K2 lift: rows v0, v1, e0, then one f row per copy.

    Per copy j the columns are w = f_j, x = v0 + f_j, y = v1 + f_j and
    z = v0 + v1 + f_j, the block layout given in basis_counting's docstring.
    """
    rows = 3 + copies
    columns = []
    for j in range(copies):
        f = 3 + j
        for touches in ((), (0,), (1,), (0, 1)):
            col = [0] * rows
            for r in touches + (f,):
                col[r] = 1
            columns.append(tuple(col))
    return columns


def cases():
    # target rank of the lift: n + m * k = 2 + k
    yield "K2 gadget b1 over GF(2)", checks.count_column_bases(k2_gadget(1), 3, 2), 4
    yield "K2 gadget b2 over GF(2)", checks.count_column_bases(k2_gadget(2), 4, 2), 56
    path2 = (3, ((0, 1), (1, 2)), 0)
    yield (
        "rooted path-2 polynomial",
        checks.brute_force_polynomial("graph", path2),
        {(2, 1): 1, (1, 1): -2, (1, 0): 1, (0, 1): 1},
    )
    triangle = (3, ((0, 1), (1, 2), (0, 2)), 0)
    yield "triangle spanning trees", checks.basis_count("graph", triangle), 3
    yield "triangle T(1,1) from brute force", checks.evaluate(
        checks.brute_force_polynomial("graph", triangle), 1, 1), 3
    yield "triangle T(2,2)", checks.evaluate(checks.brute_force_polynomial("graph", triangle), 2, 2), 8
    digon_tail = (3, ((0, 1), (1, 0), (1, 2), (0, 2)), 0)
    yield "arborescences of a tailed digon", checks.basis_count("digraph", digon_tail), 2
    yield "digraph rank ignores arcs into the root", checks.full_rank("digraph", (2, ((1, 0),), 0)), 0
    identity3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    yield "identity matrix rank and bases", checks.binary_rank_and_bases(identity3), (3, 1)
    demo = ((1, 0, 0, 1), (1, 0, 1, 0), (0, 1, 1, 1))
    yield "demo matrix rank", checks.binary_rank_and_bases(demo)[0], 3
    yield "perfect matchings of C4", checks.perfect_matchings(4, ((0, 1), (1, 2), (2, 3), (0, 3))), 2
    yield "perfect matchings of K4", checks.perfect_matchings(
        4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))), 3
    yield "perfect matchings of a 3-edge star", checks.perfect_matchings(4, ((0, 1), (0, 2), (0, 3))), 0
    parallel = [(1, 1), (1, 1), (1, 0)]
    yield "rank-2 pairs among 3 columns over GF(3)", checks.count_column_bases(parallel, 2, 3), 2
    dependent_mod3 = [(1, 1), (1, 4)]
    yield "(1,1),(1,4) dependent over GF(3)", checks.count_column_bases(dependent_mod3, 2, 3), 0
    yield "(1,1),(1,4) independent over the rationals", checks.count_column_bases(dependent_mod3, 2, 0), 1
    poly = checks.brute_force_polynomial("graph", path2)
    yield "T on (x-1)(y-1)=1 closed form", checks.evaluate(poly, 3, Fraction(3, 2)), checks.hyperbola_value(2, 2, 3)
    yield "hyperbola restriction at alpha = 1", checks.restrict_halpha(poly, 1), {
        -2: 1, -1: 2, 0: 1}
    wrong = dict(poly)
    wrong[(0, 1)] += 1
    yield "a wrong polynomial fails T(2,2) = 2^|E|", checks.evaluate(wrong, 2, 2) == 4, False


def main() -> int:
    failures = 0
    for name, got, want in cases():
        ok = got == want
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: got {got!r}" + ("" if ok else f", want {want!r}"))
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
