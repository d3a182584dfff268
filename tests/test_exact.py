import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import ExactMatrix, bareiss_solve, det_exact, vandermonde_solve
from greedoid_tutte.errors import (
    DuplicateNodeError,
    NotSquareError,
    PreconditionError,
    SingularMatrixError,
)


def test_solve_identity():
    a = ExactMatrix.identity(3)
    assert bareiss_solve(a, [5, -2, 7]) == (5, -2, 7)


def test_solve_two_by_two():
    a = ExactMatrix([[2, 1], [1, 1]])
    assert bareiss_solve(a, [3, 2]) == (1, 1)


def test_solve_vandermonde_nodes_123():
    a = ExactMatrix([[1, n, n * n] for n in (1, 2, 3)])
    assert bareiss_solve(a, [6, 11, 18]) == (3, 2, 1)


def test_solve_rational_entries_and_backsubstitution():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        while True:
            entries = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
            a = ExactMatrix(entries)
            if det_exact(a) != 0:
                break
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
        x = bareiss_solve(a, b)
        assert a.apply(x) == tuple(b)
        assert all(v.denominator > 0 for v in x)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        bareiss_solve(ExactMatrix([[1, 2], [2, 4]]), [1, 1])


def test_solve_requires_square():
    with pytest.raises(NotSquareError):
        bareiss_solve(ExactMatrix([[1, 2, 3], [4, 5, 6]]), [1, 1])


def test_det_identity():
    for n in range(5):
        assert det_exact(ExactMatrix.identity(n)) == 1


def test_det_two_by_two():
    assert det_exact(ExactMatrix([[1, 2], [3, 4]])) == -2


def test_det_repeated_row_is_zero():
    assert det_exact(ExactMatrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]])) == 0


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = ExactMatrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        b = ExactMatrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        assert det_exact(a @ b) == det_exact(a) * det_exact(b)


def test_det_not_square():
    with pytest.raises(NotSquareError):
        det_exact(ExactMatrix([[1, 2]]))


def test_vandermonde_linear():
    poly = vandermonde_solve([0, 1], [1, 2])
    assert poly.terms == {0: 1, 1: 1}


def test_vandermonde_quadratic():
    poly = vandermonde_solve([1, 2, 3], [6, 11, 18])
    assert poly.terms == {0: 3, 1: 2, 2: 1}
    for node, value in zip((1, 2, 3), (6, 11, 18)):
        assert poly.evaluate(node) == value


def test_vandermonde_negative_offset():
    # Unique interpolant with exponents -1..0 through (1, 3) and (2, 5/2):
    # c/z + d with c + d = 3 and c/2 + d = 5/2, so c = 1, d = 2.
    poly = vandermonde_solve([1, 2], [3, Fraction(5, 2)], lowest_exponent=-1)
    assert poly.terms == {-1: 1, 0: 2}
    assert poly.evaluate(1) == 3
    assert poly.evaluate(2) == Fraction(5, 2)


def test_vandermonde_interpolates_exactly():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 6)
        nodes = rng.sample(range(-8, 9), n)
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        lowest = rng.randint(-2, 2)
        if lowest != 0:
            nodes = [v for v in nodes if v != 0] or [1]
            values = values[: len(nodes)]
        poly = vandermonde_solve(nodes, values, lowest)
        for node, value in zip(nodes, values):
            assert poly.evaluate(node) == value


def test_vandermonde_duplicate_node():
    with pytest.raises(DuplicateNodeError):
        vandermonde_solve([1, 1], [2, 3])


@st.composite
def interpolation_problems(draw):
    """Distinct fractional and negative nodes, any values, and an exponent window from -4 to 3."""
    lowest = draw(st.integers(-4, 3))
    numerator = st.integers(-9, 9) if lowest == 0 else st.integers(-9, 9).filter(bool)
    node = st.builds(Fraction, numerator, st.integers(1, 6))
    nodes = draw(st.lists(node, min_size=1, max_size=6, unique=True))
    values = draw(st.lists(st.fractions(max_denominator=12), min_size=len(nodes), max_size=len(nodes)))
    return nodes, values, lowest


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(interpolation_problems())
def test_vandermonde_interpolates_fractional_nodes(problem):
    nodes, values, lowest = problem
    poly = vandermonde_solve(nodes, values, lowest)
    assert all(lowest <= e < lowest + len(nodes) for e in poly.terms)
    for node, value in zip(nodes, values):
        assert poly.evaluate(node) == value


def test_vandermonde_refuses_node_zero_outside_the_window_and_equal_fractions():
    with pytest.raises(PreconditionError):
        vandermonde_solve([0, 1], [1, 2], lowest_exponent=2)
    with pytest.raises(DuplicateNodeError):
        vandermonde_solve([Fraction(2, 4), "1/2"], [1, 2])


def leibniz_det(rows):
    """Sum over permutations of signed products: the determinant by definition."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def row_swap_matrices():
    """Matrices whose elimination must swap rows: anti-diagonals, a zero
    top-left corner, and upper triangles with the rows shifted down by one
    (row k of the triangle sits at row k + 1), which need a swap at every step."""
    rng = random.Random(19)
    out = []
    for n in range(2, 7):
        out.append([[Fraction(i + 2) if j == n - 1 - i else Fraction(0) for j in range(n)] for i in range(n)])
        corner = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        corner[0][0] = Fraction(0)
        out.append(corner)
        upper = [[Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) if j == i else
                  Fraction(rng.randint(-4, 4), rng.randint(1, 2)) if j > i else Fraction(0)
                  for j in range(n)] for i in range(n)]
        out.append(upper[-1:] + upper[:-1])
    return out


def test_row_swaps_match_the_leibniz_determinant():
    for rows in row_swap_matrices():
        a = ExactMatrix(rows)
        det = leibniz_det(rows)
        assert det != 0
        assert det_exact(a) == det
        b = [Fraction(i * i - 3, i + 1) for i in range(len(rows))]
        x = bareiss_solve(a, b)
        assert a.apply(x) == tuple(b)


def test_singular_when_the_pivot_column_empties_before_a_later_column():
    # after one step column 1 is zero from row 1 down but column 2 is not
    rows = [[1, 2, 3], [2, 4, 7], [3, 6, 1]]
    assert leibniz_det([[Fraction(v) for v in row] for row in rows]) == 0
    assert det_exact(ExactMatrix(rows)) == 0
    with pytest.raises(SingularMatrixError):
        bareiss_solve(ExactMatrix(rows), [1, 2, 3])


def test_vandermonde_52_nodes_exactly():
    """The system of reduce's 12-vertex, 40-edge base: nodes b^k - 1 for
    k = 1..52 at b = 3/2, exponents -11..40, every coefficient recovered."""
    rng = random.Random(21)
    lowest = -11
    coeffs = {lowest + j: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)) for j in range(52)}
    nodes = [Fraction(3, 2) ** k - 1 for k in range(1, 53)]
    values = [sum(c * node**e for e, c in coeffs.items()) for node in nodes]
    assert vandermonde_solve(nodes, values, lowest).terms == {e: c for e, c in coeffs.items() if c}

