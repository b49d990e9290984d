"""Truncated power-series arithmetic, orders and evaluation."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from madic import (
    MadicError,
    OrderValue,
    PrecisionError,
    PrimeField,
    QQ,
    SeriesVector,
    TruncatedSeries,
    evaluate,
    parse_polynomial,
    parse_series,
)


def S(text, vars=("x",), precision=None):
    poly, prec = parse_series(text, vars)
    return TruncatedSeries.from_polynomial(poly, precision or prec)


def test_series_literal_requires_precision_marker():
    from madic import ParseError

    with pytest.raises(ParseError):
        parse_series("x + x^2", ("x",))


def test_truncation_drops_high_terms():
    s = S("1 + x + x^5 + O(m^4)")
    assert (4,) not in s.terms and (5,) not in s.terms
    assert s.precision == 4


def test_order_of_a_series_and_of_an_apparent_zero():
    s = S("x^3 + x^7 + O(m^10)")
    assert s.order() == OrderValue(3)
    z = TruncatedSeries.zero(("x",), 6)
    assert not z.order().finite
    assert str(z.order()) == "at-least-precision(6)"


def test_order_lower_bound_semantics():
    z = TruncatedSeries.zero(("x",), 6)
    o = z.order()
    assert o.ge(6)
    assert not o.ge(7)
    assert not o.lt(6)


def test_arithmetic_truncates_to_min_precision():
    a = S("1 + x + O(m^8)")
    b = S("x^2 + O(m^5)")
    assert (a + b).precision == 5
    assert (a * b).precision == 5


def test_inverse_of_unit():
    rng = random.Random(3)
    for _ in range(30):
        terms = {(0,): Fraction(rng.choice([1, 2, -1, 3]))}
        for i in range(1, 8):
            terms[(i,)] = Fraction(rng.randint(-3, 3))
        u = TruncatedSeries(QQ, ("x",), 12, terms)
        prod = u * u.inverse()
        assert prod == TruncatedSeries.constant(1, ("x",), 12)


def test_inverse_bivariate():
    u = S("1 + x + y + O(m^9)", ("x", "y"))
    assert (u * u.inverse()) == TruncatedSeries.constant(1, ("x", "y"), 9)


@st.composite
def units(draw, field):
    """A unit of k[[x]] or k[[x,y]] at precision N <= 7."""
    vars = ("x", "y")[: draw(st.sampled_from([1, 2]))]
    N = draw(st.integers(1, 7))
    if field == QQ:
        coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    else:
        coeff = st.integers(0, field.p - 1)
    keys = st.tuples(*[st.integers(0, N - 1)] * len(vars))
    terms = draw(st.dictionaries(keys, coeff, max_size=8))
    c0 = draw(coeff.filter(lambda c: not field.is_zero(c)))
    terms[(0,) * len(vars)] = c0
    return TruncatedSeries(field, vars, N, terms)


@settings(max_examples=60, deadline=None)
@given(units(QQ))
def test_inverse_matches_sympy_series(u):
    # total-degree truncation: substitute v -> t*v and expand 1/u in t
    t = sympy.Symbol("t")
    syms = sympy.symbols(u.vars)
    expr = sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.prod(s ** k for s, k in zip(syms, e)) * t ** sum(e)
        for e, c in u.terms.items()
    )
    expansion = sympy.series(1 / expr, t, 0, u.precision).removeO().subs(t, 1)
    want = sympy.Poly(sympy.expand(expansion), *syms).as_dict()
    got = u.inverse()
    assert got.precision == u.precision
    assert got.terms == {
        e: Fraction(int(c.p), int(c.q)) for e, c in want.items() if sum(e) < u.precision
    }


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 7, 32003]).flatmap(lambda p: units(PrimeField(p))))
def test_inverse_over_gfp_is_two_sided(u):
    one = TruncatedSeries.constant(1, u.vars, u.precision, u.field)
    inv = u.inverse()
    assert u * inv == one and inv * u == one


def test_inverse_of_non_unit_fails():
    with pytest.raises(MadicError):
        S("x + O(m^5)").inverse()


def test_cannot_raise_precision():
    with pytest.raises(PrecisionError):
        S("x + O(m^5)").truncate(9)


def test_ultrametric_distance():
    # the distance of two vectors is e^-ord(u - v), the order of a vector
    # the least order of its coordinates
    def order(u, v):
        return SeriesVector([a - b for a, b in zip(u, v)]).order()

    u = [S("x + O(m^10)"), S("x^2 + O(m^10)")]
    v = [S("x + x^4 + O(m^10)"), S("x^2 + O(m^10)")]
    assert order(u, v) == OrderValue(4)
    # triangle inequality is an equality or better in the ultrametric
    w = [S("x + x^2 + O(m^10)"), S("O(m^10)")]
    assert order(u, v).value >= min(order(u, w).value, order(v, w).value)


def test_evaluate_polynomial_at_series():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    zbar = SeriesVector([S("x + x^4 + O(m^12)")])
    res = evaluate(f, zbar, {"z": 0})
    # (x + x^4)^2 - x^2 = 2x^5 + x^8
    assert res == S("2*x^5 + x^8 + O(m^12)")


def test_evaluate_unassigned_unknown_fails():
    f = parse_polynomial("z*w", ("x", "z", "w"))
    zbar = SeriesVector([S("x + O(m^5)")])
    with pytest.raises(MadicError):
        evaluate(f, zbar, {"z": 0})

