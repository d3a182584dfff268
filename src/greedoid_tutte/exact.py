"""Fraction-free exact linear algebra.

Solves and determinants first clear the denominators of every row and then
run Bareiss' fraction-free elimination with full pivoting over the integers,
so all intermediate values are integers with polynomially bounded bit length
and the final answers are exact rationals.  Back-substitution solves for the
determinant times the solution, an integer vector, with exact divisions.

A Vandermonde system is built as integers directly: the row of a node a/q
becomes a^j q^(n-1-j), j = 0 .. n-1, for any window of exponents (see
:func:`vandermonde_solve`), so no rational power is ever formed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import (
    DuplicateNodeError,
    NotSquareError,
    PreconditionError,
    SingularMatrixError,
)
from .polynomials import LaurentPoly, rational


class ExactMatrix:
    """Dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        table = tuple(tuple(rational(v) for v in row) for row in entries)
        if table and any(len(row) != len(table[0]) for row in table):
            raise ValueError("ragged rows")
        self.entries = table
        self.rows = len(table)
        self.cols = len(table[0]) if table else 0

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return ExactMatrix(
            [
                [
                    sum((self.entries[i][k] * other.entries[k][j] for k in range(self.cols)), Fraction(0))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ]
        )

    def apply(self, vector: Sequence) -> tuple[Fraction, ...]:
        vec = [rational(v) for v in vector]
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(
            sum((self.entries[i][j] * vec[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )

    def __repr__(self):
        return f"ExactMatrix({[list(map(str, row)) for row in self.entries]})"


def _clear_denominators(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], Fraction]:
    """Scale each row to integers; return rows and the product of scalings."""
    out = []
    scale = Fraction(1)
    for row in rows:
        mult = lcm(*(v.denominator for v in row)) if row else 1
        out.append([int(v * mult) for v in row])
        scale *= mult
    return out, scale


def _find_pivot(a: list[list[int]], k: int, n: int) -> tuple[int, int] | None:
    for i in range(k, n):
        for j in range(k, n):
            if a[i][j] != 0:
                return i, j
    return None


def _bareiss_forward(a: list[list[int]], n: int, width: int):
    """Fraction-free forward elimination with full pivoting.

    ``a`` is modified in place (n rows, ``width`` >= n columns; columns past n
    ride along, e.g. an augmented right-hand side).  Returns the sign of the
    accumulated row/column permutation and the column permutation applied to
    the first n columns, or raises SingularMatrixError when no pivot exists.
    """
    sign = 1
    colperm = list(range(n))
    prev = 1
    for k in range(n):
        pivot = _find_pivot(a, k, n)
        if pivot is None:
            raise SingularMatrixError(f"no nonzero pivot at elimination step {k}")
        pr, pc = pivot
        if pr != k:
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        if pc != k:
            for row in a:
                row[k], row[pc] = row[pc], row[k]
            colperm[k], colperm[pc] = colperm[pc], colperm[k]
            sign = -sign
        if k == n - 1:
            break
        pivot_val = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowk = a[k]
            rowi = a[i]
            for j in range(k + 1, width):
                rowi[j] = (pivot_val * rowi[j] - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pivot_val
    return sign, colperm


def det_exact(matrix: ExactMatrix) -> Fraction:
    """Exact determinant via integer Bareiss elimination."""
    if not matrix.is_square:
        raise NotSquareError(f"determinant of a {matrix.rows}x{matrix.cols} matrix")
    n = matrix.rows
    if n == 0:
        return Fraction(1)
    a, scale = _clear_denominators(matrix.entries)
    try:
        sign, _ = _bareiss_forward(a, n, n)
    except SingularMatrixError:
        return Fraction(0)
    return Fraction(sign * a[n - 1][n - 1]) / scale


def bareiss_solve(matrix: ExactMatrix, rhs: Sequence) -> tuple[Fraction, ...]:
    """Solve Ax = b exactly for square nonsingular A.

    Row denominators of the augmented system are cleared first (row scalings
    do not change the solution), then the integer system is solved by
    :func:`_solve_integer`.
    """
    if not matrix.is_square:
        raise NotSquareError(f"solve with a {matrix.rows}x{matrix.cols} matrix")
    n = matrix.rows
    b = [rational(v) for v in rhs]
    if len(b) != n:
        raise PreconditionError(f"right-hand side has {len(b)} entries, expected {n}")
    if n == 0:
        return ()
    augmented = [list(row) + [b[i]] for i, row in enumerate(matrix.entries)]
    a, _ = _clear_denominators(augmented)
    return _solve_integer(a, n)


def _solve_integer(a: list[list[int]], n: int) -> tuple[Fraction, ...]:
    """The solution of the n x (n + 1) augmented integer system ``a``.

    Bareiss steps triangularize ``a`` in place; the last pivot is then the
    determinant D up to sign, so D x is an integer vector (Cramer's rule) and
    back-substitution for it divides exactly.  The column permutation of the
    pivoting is undone at the end.
    """
    _, colperm = _bareiss_forward(a, n, n + 1)
    det = a[n - 1][n - 1]
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    scaled = [0] * n  # D x, in pivot order
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = det * row[n] - sum(row[j] * scaled[j] for j in range(i + 1, n))
        scaled[i] = acc // row[i]
    result: list[Fraction] = [Fraction(0)] * n
    for pos, original in enumerate(colperm):
        result[original] = Fraction(scaled[pos], det)
    return tuple(result)


def vandermonde_solve(nodes: Sequence, values: Sequence, lowest_exponent: int = 0) -> LaurentPoly:
    """Interpolate the unique polynomial spanning the given exponent window.

    The result has exponents ``L .. L+n-1``, L = ``lowest_exponent``, and
    takes ``values[i]`` at ``nodes[i]``.  The row of a node a/q (in lowest
    terms, q > 0) is scaled by a^(-L) q^(L+n-1), which makes it the integer
    row a^j q^(n-1-j), j = 0 .. n-1, whatever L is; the denominator of the
    scaled value multiplies into the row.  The integer system is solved by
    Bareiss steps with no rational matrix built.
    """
    pts = [rational(v) for v in nodes]
    vals = [rational(v) for v in values]
    if len(pts) != len(vals):
        raise PreconditionError("need equally many nodes and values")
    if len(set(pts)) != len(pts):
        raise DuplicateNodeError("interpolation nodes must be pairwise distinct")
    if lowest_exponent != 0 and any(p == 0 for p in pts):
        raise PreconditionError(
            "node 0 needs the constant term inside the exponent window"
        )
    n = len(pts)
    if n == 0:
        return LaurentPoly.zero()
    low, high = lowest_exponent, lowest_exponent + n - 1  # a^(-low) q^high scales each row
    system = []
    for point, value in zip(pts, vals):
        a, q = point.numerator, point.denominator
        scaled = Fraction(
            value.numerator * a ** max(-low, 0) * q ** max(high, 0),
            value.denominator * a ** max(low, 0) * q ** max(-high, 0),
        )
        d = scaled.denominator
        system.append([d * a**j * q ** (n - 1 - j) for j in range(n)] + [scaled.numerator])
    coeffs = _solve_integer(system, n)
    return LaurentPoly({lowest_exponent + j: coeffs[j] for j in range(n)})
