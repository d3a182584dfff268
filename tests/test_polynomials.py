import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    BivariatePoly,
    LaurentPoly,
    hyperbola_restriction,
    line_y_restriction,
    rational,
)
from greedoid_tutte.errors import DivisionByZeroError, ParseError
from test_identical_classes import PROPERTY

P2 = BivariatePoly({(2, 1): 1, (1, 1): -2, (1, 0): 1, (0, 1): 1})  # x^2y - 2xy + x + y


def test_rational_parsing():
    assert rational("3/2") == Fraction(3, 2)
    assert rational("-7") == -7
    assert rational(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ParseError):
        rational("abc")
    with pytest.raises(ParseError):
        rational(0.5)


def test_no_zero_terms_stored():
    p = BivariatePoly({(1, 0): 1}) - BivariatePoly({(1, 0): 1})
    assert p.terms == {}
    assert not p


class _Half(Fraction):
    pass


def test_exact_fractions_are_kept_and_others_converted():
    third = Fraction(1, 3)
    terms = LaurentPoly({0: third, 1: 2, 2: _Half(1, 2), 3: Fraction(0), 4: 0}).terms
    assert terms[0] is third
    assert terms == {0: third, 1: Fraction(2), 2: Fraction(1, 2)}
    assert all(type(c) is Fraction for c in terms.values())


def test_arithmetic_and_power():
    x, y = BivariatePoly.x(), BivariatePoly.y()
    assert x * x * y - 2 * x * y + x + y == P2
    assert (x - 1) ** 3 == BivariatePoly({(3, 0): 1, (2, 0): -3, (1, 0): 3, (0, 0): -1})


def test_evaluate_number_of_bases_point():
    # P_2 has exactly one basis, picked up at (1, 1).
    assert P2.evaluate(1, 1) == 1


def test_evaluate_power_point():
    for k in range(6):
        assert (BivariatePoly.x() ** k).evaluate(2, 2) == 2**k


def test_partial_substitution():
    assert P2.at_x(1) == BivariatePoly({(0, 0): 1})
    assert P2.at_y(1) == BivariatePoly({(2, 0): 1, (1, 0): -1, (0, 0): 1})


def test_hyperbola_restriction_of_x():
    poly = hyperbola_restriction(BivariatePoly.x(), 2)
    assert poly.terms == {0: 1, -1: 2}


def test_hyperbola_restriction_matches_evaluation():
    alpha = Fraction(3, 2)
    restricted = hyperbola_restriction(P2, alpha)
    for z in (Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5)):
        assert restricted.evaluate(z) == P2.evaluate(1 + alpha / z, 1 + z)


def test_line_y_restriction_matches_evaluation():
    restricted = line_y_restriction(P2, -1)
    for z in (Fraction(0), Fraction(2), Fraction(-1, 2)):
        assert restricted.evaluate(z) == P2.evaluate(1 + z, -1)


def test_bivariate_json_round_trip_and_order():
    obj = P2.to_json_obj()
    assert [tuple((t["xexp"], t["yexp"])) for t in obj] == [(0, 1), (1, 0), (1, 1), (2, 1)]
    assert BivariatePoly.from_json_obj(json.loads(json.dumps(obj))) == P2


def test_laurent_json_round_trip_and_order():
    poly = LaurentPoly({-2: Fraction(1, 3), 0: 5, 3: -1})
    obj = poly.to_json_obj()
    assert [t["exp"] for t in obj] == [-2, 0, 3]
    assert LaurentPoly.from_json_obj(obj) == poly


def test_laurent_eval_and_zero_pole():
    poly = LaurentPoly({-1: 2, 0: 1})
    assert poly.evaluate(Fraction(1, 2)) == 5
    with pytest.raises(DivisionByZeroError):
        poly.evaluate(0)


def test_laurent_compose_shift():
    poly = LaurentPoly({2: 1, 0: -1})  # z^2 - 1
    shifted = poly.compose_shift(1)  # (z+1)^2 - 1 = z^2 + 2z
    assert shifted.terms == {2: 1, 1: 2}


def test_laurent_shift():
    assert LaurentPoly({0: 1, 1: 1}).shift(-2).terms == {-2: 1, -1: 1}


def test_constant_polynomials_hash_like_their_value():
    for cls in (BivariatePoly, LaurentPoly):
        for c in (0, 1, -7, Fraction(2, 3)):
            assert cls.constant(c) == c
            assert hash(cls.constant(c)) == hash(c)
        assert len({cls.constant(1), 1, Fraction(1)}) == 1
    assert BivariatePoly.constant(1) != LaurentPoly.constant(1)


FEWER = settings(PROPERTY, max_examples=60)
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# Each shape: its class, a strategy for its keys, the key of the constant
# term, and points to evaluate at (one coordinate per variable).
SHAPES = {
    "bivariate": (
        BivariatePoly,
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        (0, 0),
        [(Fraction(2), Fraction(-1, 3)), (Fraction(-3, 2), Fraction(5)), (Fraction(1, 7), 1)],
    ),
    "laurent": (
        LaurentPoly,
        st.integers(-3, 3),
        0,
        [(Fraction(2),), (Fraction(-1, 3),), (Fraction(5, 2),)],
    ),
}


def _value(terms, point):
    """A term map evaluated at a point, written out from the definition."""
    total = Fraction(0)
    for key, c in terms.items():
        term = Fraction(c)
        for v, e in zip(point, key if isinstance(key, tuple) else (key,)):
            term *= v**e
        total += term
    return total


@FEWER
@pytest.mark.parametrize("shape", sorted(SHAPES))
@given(data=st.data())
def test_arithmetic_core_matches_evaluation(shape, data):
    cls, keys, one, points = SHAPES[shape]
    terms = st.dictionaries(keys, RATIONALS, max_size=5)
    pt, qt = data.draw(terms), data.draw(terms)
    c = data.draw(st.one_of(st.integers(-3, 3), RATIONALS))
    k = data.draw(st.integers(0, 3))
    p, q = cls(pt), cls(qt)
    for point in points:
        u, v = _value(pt, point), _value(qt, point)
        assert _value((p + q).terms, point) == u + v
        assert _value((p - q).terms, point) == u - v
        assert _value((-p).terms, point) == -u
        assert _value((p * q).terms, point) == u * v
        assert _value((p**k).terms, point) == u**k
        assert _value((c - p).terms, point) == c - u
        assert _value((c * p + c).terms, point) == c * u + c
    for result in (p + q, p - q, -p, p * q, p**k, c - p):
        assert type(result) is cls and 0 not in result.terms.values()
    assert (p == c) == ({key: x for key, x in pt.items() if x} == ({one: c} if c else {}))
    assert p - p == 0 and p + q == q + p
    assert cls.from_json_obj(json.loads(json.dumps(p.to_json_obj()))) == p
    other, other_keys, _, _ = SHAPES["laurent" if shape == "bivariate" else "bivariate"]
    r = other(data.draw(st.dictionaries(other_keys, RATIONALS, max_size=5)))
    assert p != r and r != p and not p == r


@FEWER
@given(st.dictionaries(st.integers(0, 5), RATIONALS, max_size=4), RATIONALS)
def test_laurent_compose_shift_at_rational_offsets(terms, offset):
    poly = LaurentPoly(terms)
    shifted = poly.compose_shift(offset)
    for z in (Fraction(0), Fraction(3), Fraction(-2, 5)):
        assert shifted.evaluate(z) == poly.evaluate(z + offset)
