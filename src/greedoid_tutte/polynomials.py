"""Sparse exact polynomials over the rationals.

Two shapes cover everything in this package: bivariate polynomials in x and y
with non-negative exponents (Tutte polynomials) and univariate Laurent
polynomials whose exponents may be negative (a Tutte polynomial restricted to
a curve).  Coefficients are ``fractions.Fraction`` values, never floats, and
zero coefficients are never stored, so equality of the term maps is equality
of polynomials.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import DivisionByZeroError, ParseError, PreconditionError
from .primitives import binomial_shift


def rational(value) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "." in value or "e" in value.lower():
            raise ParseError(f"write rationals as p/q, not {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational number: {value!r}") from exc
    if isinstance(value, float):
        raise ParseError("floats are not accepted; use p/q strings")
    raise ParseError(f"cannot interpret {value!r} as a rational")


def _clean(terms: Mapping) -> dict:
    """The nonzero terms, each a Fraction; one that is exactly a Fraction is kept as it is."""
    return {key: c if type(c) is Fraction else Fraction(c) for key, c in terms.items() if c != 0}


class _Poly:
    """Arithmetic shared by both polynomial shapes.

    A subclass fixes its key shape with two class-level facts: ``_ONE``, the
    key of the constant term, and ``_add_keys``, the key of the product of two
    monomials; ``_monomial_text`` names its variables for printing.  Only
    polynomials of the same class combine or compare equal; an ``int`` or
    ``Fraction`` stands for a constant polynomial.
    """

    __slots__ = ("terms",)
    _ONE: object  # key of the constant term
    _add_keys: Callable  # key of the product of two monomials
    _monomial_text: Callable  # a monomial's key written out, "" for the constant

    def __init__(self, terms: Mapping | None = None):
        self.terms = _clean(terms or {})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({cls._ONE: rational(c)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.constant(other)
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # A constant polynomial equals its value, so it must hash like it.
        if self.terms.keys() <= {self._ONE}:
            return hash(self.terms.get(self._ONE, 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        add_keys = self._add_keys
        out: dict = {}
        for a, ac in self.terms.items():
            for b, bc in other.terms.items():
                key = add_keys(a, b)
                out[key] = out.get(key, Fraction(0)) + ac * bc
        return type(self)(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise PreconditionError("negative powers of a polynomial are not defined")
        result = self.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def _coerce(self, value):
        if isinstance(value, type(self)):
            return value
        return self.constant(rational(value))

    def __repr__(self) -> str:
        parts = []
        for key, c in sorted(self.terms.items(), reverse=True):
            mono = self._monomial_text(key)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ") or "0"


class BivariatePoly(_Poly):
    """Polynomial in x and y with exact rational coefficients.

    Terms are stored as a map from (x-exponent, y-exponent) to a nonzero
    coefficient.  The serialized form orders terms lexicographically by
    exponent pair, which keeps all outputs deterministic.
    """

    __slots__ = ()
    _ONE = (0, 0)

    @staticmethod
    def _add_keys(a, b):
        return (a[0] + b[0], a[1] + b[1])

    @classmethod
    def monomial(cls, xexp: int, yexp: int, c=1) -> "BivariatePoly":
        if xexp < 0 or yexp < 0:
            raise PreconditionError("bivariate exponents must be non-negative")
        return cls({(xexp, yexp): rational(c)})

    @classmethod
    def x(cls) -> "BivariatePoly":
        return cls.monomial(1, 0)

    @classmethod
    def y(cls) -> "BivariatePoly":
        return cls.monomial(0, 1)

    def evaluate(self, a, b) -> Fraction:
        a, b = rational(a), rational(b)
        total = Fraction(0)
        for (xe, ye), c in self.terms.items():
            total += c * a**xe * b**ye
        return total

    def at_x(self, value) -> "BivariatePoly":
        """Substitute a rational for x, leaving a polynomial in y."""
        return self._at(0, value)

    def at_y(self, value) -> "BivariatePoly":
        """Substitute a rational for y, leaving a polynomial in x."""
        return self._at(1, value)

    def _at(self, axis: int, value) -> "BivariatePoly":
        value = rational(value)
        out: dict[tuple[int, int], Fraction] = {}
        for key, c in self.terms.items():
            rest = key[:axis] + (0,) + key[axis + 1 :]
            out[rest] = out.get(rest, Fraction(0)) + c * value ** key[axis]
        return BivariatePoly(out)

    def degree_x(self) -> int:
        return max((xe for xe, _ in self.terms), default=0)

    def to_json_obj(self) -> list[dict]:
        return [
            {"xexp": xe, "yexp": ye, "num": str(c.numerator), "den": str(c.denominator)}
            for (xe, ye), c in sorted(self.terms.items())
        ]

    @classmethod
    def from_json_obj(cls, obj: Iterable[dict]) -> "BivariatePoly":
        terms = {}
        for item in obj:
            key = (int(item["xexp"]), int(item["yexp"]))
            terms[key] = Fraction(int(item["num"]), int(item["den"]))
        return cls(terms)

    @staticmethod
    def _monomial_text(key: tuple[int, int]) -> str:
        return "".join(f"{v}^{e}" if e > 1 else v for v, e in zip("xy", key) if e)


def hyperbola_restriction(poly: "BivariatePoly", alpha) -> "LaurentPoly":
    """Substitute x = 1 + alpha/z and y = 1 + z into a bivariate polynomial.

    Pure polynomial algebra (binomial expansion), independent of any subset
    enumeration; the result is a Laurent polynomial in z.
    """
    alpha = rational(alpha)
    if alpha == 0:
        raise DivisionByZeroError("hyperbola parameter must be nonzero")
    out = LaurentPoly()
    for (i, j), c in poly.terms.items():
        # (1 + alpha/z)^i (1 + z)^j = z^-i (z + alpha)^i (z + 1)^j
        xs = LaurentPoly.monomial(i).compose_shift(alpha).shift(-i)
        out += xs * LaurentPoly.monomial(j, c).compose_shift(1)
    return out


def line_y_restriction(poly: "BivariatePoly", c) -> "LaurentPoly":
    """Substitute y = c and x = 1 + z; the result is a polynomial in z."""
    in_x = {xe: coeff for (xe, _), coeff in poly.at_y(c).terms.items()}
    return LaurentPoly(in_x).compose_shift(1)


class LaurentPoly(_Poly):
    """Univariate polynomial with integer (possibly negative) exponents."""

    __slots__ = ()
    _ONE = 0
    _add_keys = operator.add

    @classmethod
    def monomial(cls, exp: int, c=1) -> "LaurentPoly":
        return cls({exp: rational(c)})

    def shift(self, offset: int) -> "LaurentPoly":
        """Multiply by z**offset."""
        return LaurentPoly({e + offset: c for e, c in self.terms.items()})

    def evaluate(self, value) -> Fraction:
        value = rational(value)
        if value == 0 and self.min_exponent() < 0:
            raise DivisionByZeroError("Laurent polynomial with negative exponents evaluated at 0")
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * value**e
        return total

    def compose_shift(self, offset) -> "LaurentPoly":
        """Substitute z -> z + offset; requires non-negative exponents."""
        if self.min_exponent() < 0:
            raise PreconditionError("shift substitution needs non-negative exponents")
        return LaurentPoly(dict(enumerate(binomial_shift(self.terms, rational(offset)))))

    def min_exponent(self) -> int:
        return min(self.terms, default=0)

    def to_json_obj(self) -> list[dict]:
        return [
            {"exp": e, "num": str(c.numerator), "den": str(c.denominator)}
            for e, c in sorted(self.terms.items())
        ]

    @classmethod
    def from_json_obj(cls, obj: Iterable[dict]) -> "LaurentPoly":
        return cls({int(item["exp"]): Fraction(int(item["num"]), int(item["den"])) for item in obj})

    @staticmethod
    def _monomial_text(e: int) -> str:
        return "" if e == 0 else "z" if e == 1 else f"z^{e}"
