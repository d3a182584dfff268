"""Fraction-free exact linear algebra.

Solves and determinants first clear the denominators of every row and then
run Bareiss' fraction-free elimination over the integers, so all intermediate
values are integers with polynomially bounded bit length and the final
answers are exact rationals.  Back-substitution solves for the determinant
times the solution, an integer vector, with exact divisions.
:func:`det_integer` is the same elimination on rows that are already ints
(the matrix-tree counts).

Pivots are searched in the pivot column only, and rows are swapped to bring
one up.  A column swap never finds a pivot that a row swap misses: when
column k is zero from row k down, the trailing block has a zero column, so
the matrix is singular.

A Vandermonde system needs no elimination: :func:`vandermonde_solve` writes
the row of a node a/q as the integer row a^j q^(n-1-j), j = 0 .. n-1, for
any window of exponents, and solves it by Lagrange interpolation in
integers, in O(n^2) products and one rational per coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
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
            raise PreconditionError("ragged rows")
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
            raise PreconditionError("dimension mismatch")
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
            raise PreconditionError("dimension mismatch")
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
        mult = lcm(*(v.denominator for v in row))
        out.append([int(v * mult) for v in row])
        scale *= mult
    return out, scale


def _bareiss_forward(a: list[list[int]]) -> int:
    """Fraction-free forward elimination with row pivoting.

    ``a`` is modified in place (n >= 1 rows of at least n columns; columns
    past n ride along, e.g. an augmented right-hand side).  Returns the sign
    of the row permutation, or raises SingularMatrixError when column k is
    zero from row k down.
    """
    n, width = len(a), len(a[0])
    sign = 1
    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k]), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no nonzero pivot at elimination step {k}")
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
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
    return sign


def det_integer(a: list[list[int]]) -> int:
    """Determinant of a square matrix of ints, given as rows it may overwrite."""
    if not a:
        return 1
    try:
        return _bareiss_forward(a) * a[-1][-1]
    except SingularMatrixError:
        return 0


def det_exact(matrix: ExactMatrix) -> Fraction:
    """Exact determinant via integer Bareiss elimination."""
    if not matrix.is_square:
        raise NotSquareError(f"determinant of a {matrix.rows}x{matrix.cols} matrix")
    a, scale = _clear_denominators(matrix.entries)
    return det_integer(a) / scale


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
    return _solve_integer(a)


def _solve_integer(a: list[list[int]]) -> tuple[Fraction, ...]:
    """The solution of the n x (n + 1) augmented integer system ``a``.

    Bareiss steps triangularize ``a`` in place; the last pivot is then the
    determinant D up to sign, nonzero, so D x is an integer vector (Cramer's
    rule) and back-substitution for it divides exactly.
    """
    _bareiss_forward(a)
    n = len(a)
    det = a[n - 1][n - 1]
    scaled = [0] * n  # D x
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = det * row[n] - sum(row[j] * scaled[j] for j in range(i + 1, n))
        scaled[i] = acc // row[i]
    return tuple(Fraction(v, det) for v in scaled)


def vandermonde_solve(nodes: Sequence, values: Sequence, lowest_exponent: int = 0) -> LaurentPoly:
    """Interpolate the unique polynomial spanning the given exponent window.

    The result has exponents ``L .. L+n-1``, L = ``lowest_exponent``, and
    takes ``values[i]`` at ``nodes[i]``.  Scaled by a^(-L) q^(L+n-1), the
    equation of a node a/q (in lowest terms, q > 0) reads
    sum_j c_j a^j q^(n-1-j) = w, an integer row whatever L is.

    That system is solved by Lagrange interpolation over the integers.  Let
    M(X, Y) be the product of the linear forms q_i X - a_i Y.  The form
    M_i = M / (q_i X - a_i Y) vanishes at every other node's (a_k, q_k), and
    at its own it takes D_i, the product of q_k a_i - a_k q_i over k != i.
    So the coefficients are the sum over i of (w_i / D_i) times those of
    M_i.  Each linear form is primitive, so synthetic division by it is
    exact in integers.  The terms share one common denominator, so each
    coefficient costs one rational; the whole solve takes O(n^2) products.
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
    forms = [(p.numerator, p.denominator) for p in pts]
    master = [1]  # master[j]: the coefficient of X^j Y^(degree - j)
    for a, q in forms:
        master = [q * lo - a * hi for lo, hi in zip([0, *master], [*master, 0])]
    low, high = lowest_exponent, lowest_exponent + n - 1  # a^(-low) q^high scales each row
    terms = []  # (numerator of w_i, its denominator times D_i, coefficients of M_i)
    for i, ((a, q), value) in enumerate(zip(forms, vals)):
        quotient = [0] * n
        carry = 0
        for j in range(n, 0, -1):  # top down: q l[j-1] = master[j] + a l[j]
            carry = master[j] + a * carry
            if q != 1:
                carry //= q
            quotient[j - 1] = carry
        own_value = prod(qk * a - ak * q for k, (ak, qk) in enumerate(forms) if k != i)  # D_i
        terms.append(
            (
                value.numerator * a ** max(-low, 0) * q ** max(high, 0),
                value.denominator * a ** max(low, 0) * q ** max(-high, 0) * own_value,
                quotient,
            )
        )
    common = lcm(*(den for _, den, _ in terms))
    scaled = [(num * (common // den), quotient) for num, den, quotient in terms]
    return LaurentPoly(
        {lowest_exponent + j: Fraction(sum(w * row[j] for w, row in scaled), common) for j in range(n)}
    )
