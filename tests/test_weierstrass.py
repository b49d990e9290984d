"""Weierstrass preparation, division, and the generic Euclidean division."""

import gc
import itertools
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from madic import (
    DistinguishedPolynomial,
    LinearChange,
    MadicError,
    PreparedDivisor,
    Polynomial,
    PrimeField,
    QQ,
    TruncatedSeries,
    divide_series,
    generic_euclid,
    parse_polynomial,
    parse_series,
    prepare,
    regularize,
    w_divide,
    y_regular_order,
)
from madic import weierstrass
from madic.fields import exact_form, field_terms
from madic.poly import NEG_INF
from helpers import exact_div, variable

XY = ("x", "y")


def degree_in(p, name):
    """Degree of p in the variable `name`, NEG_INF for zero."""
    i = p.vars.index(name)
    return max((e[i] for e in p.nums), default=NEG_INF)


def S(text, vars=XY, precision=None):
    poly, prec = parse_series(text, vars)
    return TruncatedSeries.from_polynomial(poly, precision or prec)


def test_y_regular_order():
    assert y_regular_order(S("y^2 + x*y^5 + O(m^10)")).value == 2
    assert y_regular_order(S("1 + y + O(m^10)")).value == 0
    assert not y_regular_order(S("x + x*y + O(m^10)")).finite


def test_regularize_identity_when_already_regular():
    u = S("y^2 + x^2 + O(m^8)")
    change, out = regularize(u)
    assert change.is_identity()
    assert out == u


def test_regularize_shears_to_minimal_order():
    # y^2 + x has order 1 but is y-regular of order 2; a shear fixes that
    change, out = regularize(S("y^2 + x + O(m^8)"))
    assert not change.is_identity()
    yo = y_regular_order(out)
    assert yo.finite and yo.value == 1


def test_regularize_pure_x_power():
    change, out = regularize(S("x^2 + O(m^8)"))
    assert not change.is_identity()
    yo = y_regular_order(out)
    assert yo.finite and yo.value == 2
    # the change is invertible: applying the inverse restores the input
    back = change.inverse().apply_series(out)
    assert back == S("x^2 + O(m^8)")


def test_linear_change_composition():
    c = LinearChange(2, QQ)
    s = S("x^2 + y^3 + O(m^9)")
    assert c.inverse().apply_series(c.apply_series(s)) == s


def test_linear_change_and_its_inverse_make_no_reference_cycle():
    # a cycle would keep both row tables alive until the cyclic collector
    # runs, which a run reaches only now and then
    s = S("x^3 + x*y + O(m^8)")
    gc.collect()
    gc.disable()
    try:
        c = LinearChange(3, QQ)
        inverse = c.inverse()
        assert inverse.inverse() is c
        assert inverse.apply_series(c.apply_series(s)) == s
        del c
        # the inverse outlives the change: its inverse is the shear at 3 again
        again = inverse.inverse()
        assert again.lam == 3 and again.inverse() is inverse
        del inverse, again
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_linear_change_expands_each_binomial_power_once():
    c = LinearChange(Fraction(-2, 5), QQ)
    first, second = S("x^4*y + 3*x*y^2 + O(m^9)"), S("x^5*y^3 - y + O(m^9)")
    want = [c.apply_series(s) for s in (first, second)]
    fresh = LinearChange(Fraction(-2, 5), QQ)
    built = []
    real = weierstrass.comb

    def counting(n, k):
        built.append((n, k))
        return real(n, k)

    with mock.patch.object(weierstrass, "comb", counting):
        assert fresh.apply_series(first) == want[0]
        once = len(built)
        # rows 0..4 of the x image, and no binomial for y
        assert once == 1 + 2 + 3 + 4 + 5
        # powers up to x^4 are expanded already: only the fifth power of
        # the x image (6 binomials) is new, and y^3, the image of itself,
        # expands nothing
        assert fresh.apply_series(second) == want[1]
        assert len(built) == once + 6
        assert fresh.apply_series(first) == want[0]
        assert len(built) == once + 6


def test_prepare_documented_example():
    u = S("(1+x)(y^2 + x*y + x^2) + O(m^16)")
    inverse, dist = prepare(u)
    assert inverse.inverse() == S("1 + x + O(m^16)")
    assert dist.r == 2
    assert dist.coeffs[0] == TruncatedSeries.from_polynomial(
        parse_polynomial("x", ("x",)), 16
    )
    assert dist.coeffs[1] == TruncatedSeries.from_polynomial(
        parse_polynomial("x^2", ("x",)), 16
    )


def test_prepare_unit_input():
    u = S("1 + x + y + O(m^8)")
    inverse, dist = prepare(u)
    assert dist.r == 0
    assert inverse == u.inverse()
    assert inverse.inverse() == u


def test_prepare_unit_keeps_field_over_gf():
    # r = 0: the distinguished polynomial is 1, over the unit's own field
    F = PrimeField(7)
    poly, prec = parse_series("3 + x + 5*y^2 + O(m^8)", XY, F)
    u = TruncatedSeries.from_polynomial(poly, prec)
    _, dist = prepare(u)
    assert dist.r == 0 and dist.field == F
    one = dist.to_series(XY, 8)
    assert one == TruncatedSeries.constant(1, XY, 8, F)
    assert u * one == u
    q, rems = w_divide(u, dist)
    assert q == u and rems == []


def test_distinguished_polynomial_field_must_match_coefficients():
    a = TruncatedSeries(PrimeField(7), ("x",), 8, {(1,): 2})
    assert DistinguishedPolynomial(1, [a]).field == PrimeField(7)
    with pytest.raises(MadicError):
        DistinguishedPolynomial(1, [a], QQ)


def test_distinguished_coefficients_must_vanish_at_origin():
    one = TruncatedSeries.constant(1, ("x",), 8)
    with pytest.raises(MadicError):
        DistinguishedPolynomial(1, [one])


def _rand_unit(rng, N):
    terms = {(0, 0): Fraction(rng.choice([1, -1, 2, 3]))}
    for _ in range(rng.randint(0, 6)):
        e = (rng.randint(0, 3), rng.randint(0, 3))
        if e != (0, 0):
            terms[e] = Fraction(rng.randint(-3, 3))
    return TruncatedSeries(QQ, XY, N, terms)


def _rand_dist(rng, N, rmax=3):
    r = rng.randint(1, rmax)
    coeffs = []
    for _ in range(r):
        terms = {
            (rng.randint(1, 4),): Fraction(rng.randint(-3, 3))
            for _ in range(rng.randint(0, 2))
        }
        coeffs.append(TruncatedSeries(QQ, ("x",), N, terms))
    return DistinguishedPolynomial(r, coeffs)


def test_prepare_round_trip_randomized():
    """unit * distinguished -> prepare recovers both factors bit-exactly."""
    rng = random.Random(5)
    N = 24
    for _ in range(200):
        u = _rand_unit(rng, N)
        dist = _rand_dist(rng, N)
        prod = u * dist.to_series(XY, N)
        inverse2, dist2 = prepare(prod)
        assert dist2.r == dist.r
        assert dist2.coeffs == dist.coeffs
        assert inverse2.inverse() == u


def _rand_series(rng, N, nterms=8, maxdeg=6):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = (rng.randint(0, maxdeg), rng.randint(0, maxdeg))
        terms[e] = Fraction(rng.randint(-4, 4))
    return TruncatedSeries(QQ, XY, N, terms)


def test_w_divide_recomposition_randomized():
    """a*q + sum_j rem_j y^j reproduces the dividend mod m^N."""
    rng = random.Random(9)
    N = 24
    for _ in range(200):
        g = _rand_series(rng, N)
        dist = _rand_dist(rng, N)
        q, rems = w_divide(g, dist)
        recomposed = dist.to_series(XY, N) * q
        y = TruncatedSeries.from_polynomial(variable("y", XY), N)
        for j, rem in enumerate(rems):
            biv = TruncatedSeries(
                QQ, XY, N, {(e[0], 0): c for e, c in rem.terms.items()}
            )
            recomposed = recomposed + biv * y**j
        assert recomposed == g


def test_w_divide_documented_example():
    g = S("y^3 + O(m^12)")
    dist = DistinguishedPolynomial(
        2,
        [
            TruncatedSeries.zero(("x",), 12),
            TruncatedSeries.from_polynomial(parse_polynomial("-x", ("x",)), 12),
        ],
    )
    q, rems = w_divide(g, dist)
    assert q == S("y + O(m^12)")
    assert rems[0].is_zero()
    assert rems[1] == TruncatedSeries.from_polynomial(parse_polynomial("x", ("x",)), 12)


def _reassemble(coeffs, v_var):
    """R = sum_l R_l V^l from the remainder coefficients of generic_euclid."""
    vars, fld = coeffs[0].vars, coeffs[0].field
    V = variable(v_var, vars, fld)
    R = Polynomial.zero(vars, fld)
    for l, c in enumerate(coeffs):
        R = R + c * V**l
    return R


def test_generic_euclid_v_squared():
    vars = ("x", "V", "A1")
    P = parse_polynomial("V^2", vars)
    assert generic_euclid(P, 1, "V", ["A1"]) == [parse_polynomial("A1^2", vars)]


def test_generic_euclid_low_degree_input():
    vars = ("x", "V", "A1", "A2")
    P = parse_polynomial("x*V + 1", vars)
    assert generic_euclid(P, 2, "V", ["A1", "A2"]) == [
        parse_polynomial("1", vars),
        parse_polynomial("x", vars),
    ]


def test_generic_euclid_identity():
    # P = A*Q + R exactly, as polynomials: A divides P - R
    vars = ("x", "V", "A1", "A2")
    P = parse_polynomial("V^4 + x*V^2 + 1", vars)
    R = _reassemble(generic_euclid(P, 2, "V", ["A1", "A2"]), "V")
    A = parse_polynomial("V^2 + A1*V + A2", vars)
    assert A * exact_div(P - R, A) + R == P


def _random_generic_dividend(rng, field, r, vdeg):
    a_names = [f"A{i}" for i in range(1, r + 1)]
    vars = ("x", "V") + tuple(a_names)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = [rng.randint(0, 2), rng.randint(0, vdeg)] + [rng.randint(0, 1) for _ in range(r)]
        terms[tuple(e)] = field.convert(rng.randint(-4, 4))
    return Polynomial(field, vars, terms), a_names


def test_generic_euclid_degree_bounds_randomized():
    """deg_V(R) < r and deg(R) <= deg(P) on random inputs over QQ and
    GF(32003), r up to 4; A divides P - R, so R is the unique remainder."""
    rng = random.Random(17)
    for field in [QQ, PrimeField(32003)] * 300:
        r = rng.randint(1, 4)
        P, a_names = _random_generic_dividend(rng, field, r, 6)
        if P.is_zero():
            continue
        coeffs = generic_euclid(P, r, "V", a_names)
        assert len(coeffs) == r
        assert all(degree_in(c, "V") <= 0 for c in coeffs)
        R = _reassemble(coeffs, "V")
        assert degree_in(R, "V") < r
        assert R.degree() <= P.degree()
        V = variable("V", P.vars, field)
        A = V**r
        for p, a in enumerate(a_names, start=1):
            A = A + variable(a, P.vars, field) * V ** (r - p)
        exact_div(P - R, A)


def test_divide_series_by_unit():
    v = S("x + x^2 + O(m^10)")
    u = S("1 + x + O(m^10)")
    q = divide_series(v, u)
    assert q * u == v


def test_divide_series_univariate_shift():
    v, _ = parse_series("2*x^5 + x^8 + O(m^12)", ("x",))
    v = TruncatedSeries.from_polynomial(v, 12)
    u, _ = parse_series("x^2 + x^3 + O(m^12)", ("x",))
    u = TruncatedSeries.from_polynomial(u, 12)
    q = divide_series(v, u)
    assert (q * u.truncate(q.precision)) == v.truncate(q.precision)


def test_divide_series_bivariate():
    v = S("x^2*y + x^3 + O(m^14)")
    u = S("x + O(m^14)")
    q = divide_series(v, u)
    assert (q * u.truncate(q.precision)) == v.truncate(q.precision)


def test_divide_series_inexact_fails():
    with pytest.raises(MadicError):
        divide_series(S("y + O(m^8)"), S("x + O(m^8)"))


@pytest.mark.parametrize("N", [18, 14])
def test_divide_series_remainder_past_the_checked_degrees_is_refused(N):
    # y^4 does not divide x^9*y^3: the remainder is at degree 12, past the
    # N - 2r the remainder test reads (and, at N = 14, past the quotient's
    # precision N - r); the quotient 0 gives 0, not v, modulo m^N
    with pytest.raises(MadicError, match="series division is not exact"):
        divide_series(S(f"x^9*y^3 + O(m^{N})"), S(f"y^4 + O(m^{N})"))


@st.composite
def exact_bivariate_multiples(draw):
    """(u, s, v = u*s): u = c*y^r plus terms of degree r to N - 1, so u is
    y-regular of order r; s has terms of any degree below N."""
    field = draw(st.sampled_from([QQ] + [PrimeField(p) for p in (2, 3, 7, 32003)]))
    r = draw(st.integers(1, 4))
    N = draw(st.integers(max(8, 2 * r + 2), 24))

    def terms(low, size):
        keys = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)).filter(
            lambda e: low <= sum(e) < N and e != (0, r)
        )
        return {e: field.convert(c) for e, c in draw(
            st.dictionaries(keys, st.integers(-9, 9), max_size=size)
        ).items()}

    lead = field.convert(draw(st.integers(1, 6)))
    lead = field.one() if field.is_zero(lead) else lead
    u = TruncatedSeries(field, XY, N, {**terms(r, 4), (0, r): lead})
    s = TruncatedSeries(field, XY, N, terms(0, 6))
    return u, s, u * s


@settings(max_examples=120, deadline=None, derandomize=True)
@given(exact_bivariate_multiples())
def test_divide_series_accepts_every_exact_bivariate_multiple(case):
    u, s, v = case
    q = divide_series(v, u)
    # the quotient is unique modulo m^(N - r)
    assert q == s.truncate(v.precision - u.order().value)


# -- prepared divisors --------------------------------------------------

GF = PrimeField(32003)


def _outcome(fn):
    """The quotient, or the type and message of the refusal."""
    try:
        return fn()
    except MadicError as exc:
        return type(exc), str(exc)


@st.composite
def _series(draw, field, vars, precision, min_degree=0, lead=None):
    """A random series with terms of total degree >= min_degree; `lead`,
    when given, is a monomial forced to a nonzero coefficient."""
    coeff = st.integers(-3, 3)
    terms = {}
    for e in itertools.product(range(precision), repeat=len(vars)):
        if min_degree <= sum(e) < precision and draw(st.booleans()):
            terms[e] = field.convert(draw(coeff))
    if lead is not None:
        terms[lead] = field.convert(draw(st.sampled_from([-2, -1, 1, 2, 3])))
    return TruncatedSeries(field, vars, precision, terms)


@st.composite
def _division_case(draw):
    field = draw(st.sampled_from([QQ, GF]))
    if draw(st.booleans()):
        vars, N = ("x",), draw(st.integers(6, 12))
        k = draw(st.integers(0, 3))
        u = _series(field, vars, N, k, (k,))
    else:
        vars, N = XY, draw(st.integers(6, 9))
        r = draw(st.integers(0, 2))
        # a leading x^r usually needs a shear to become y-regular
        u = _series(field, vars, N, r, draw(st.sampled_from([(0, r), (r, 0)])))
    u = draw(u)
    dividends = []
    for _ in range(draw(st.integers(1, 3))):
        q = draw(_series(field, vars, N, 0))
        p = draw(st.sampled_from([N, N, N - 1, N // 2, 1]))
        dividends.append((u * q).truncate(p))
    # most likely not a multiple: u*q plus low-order noise
    noise = draw(_series(field, vars, 3, 0)).terms
    q = draw(_series(field, vars, N, 0))
    dividends.append(u * q + TruncatedSeries(field, vars, N, noise))
    return u, dividends


@settings(max_examples=40, deadline=None)
@given(_division_case())
def test_prepared_divisor_matches_fresh_division(case):
    u, dividends = case
    prepared = PreparedDivisor(u)
    for v in dividends:
        got = _outcome(lambda: divide_series(v, prepared))
        want = _outcome(lambda: divide_series(v, u))
        assert got == want


# -- exactness against sympy ---------------------------------------------


def _sympy_expr(s, syms):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**k for x, k in zip(syms, e))
         for e, c in s.terms.items()),
        sympy.Integer(0),
    )


def _from_sympy(expr, syms, precision):
    terms = sympy.Poly(sympy.expand(expr), *syms).as_dict()
    return TruncatedSeries(
        QQ, XY, precision,
        {e: Fraction(int(c.p), int(c.q)) for e, c in terms.items() if sum(e) < precision},
    )


@st.composite
def _exact_division_case(draw):
    N = draw(st.integers(6, 9))
    r = draw(st.integers(0, 2))
    # r = 0 is a unit; a leading x^r usually needs a shear to become y-regular
    u = draw(_series(QQ, XY, N, r, draw(st.sampled_from([(0, r), (r, 0)]))))
    q = draw(_series(QQ, XY, N, 0))
    # a term of order below ord(u), so u*q plus it is no multiple of u
    low = None
    if r:
        i = draw(st.integers(0, r - 1))
        j = draw(st.integers(0, r - 1 - i))
        low = TruncatedSeries(QQ, XY, N, {(i, j): Fraction(draw(st.sampled_from([-2, -1, 1, 3])))})
    return u, q, low


@settings(max_examples=40, deadline=None)
@given(_exact_division_case())
def test_divide_series_recovers_the_sympy_product(case):
    u, q, low = case
    N, r = u.precision, u.order().value
    syms = sympy.symbols(XY)
    v = _from_sympy(_sympy_expr(u, syms) * _sympy_expr(q, syms), syms, N)
    assert divide_series(v, u) == q.truncate(N - r)
    if low is not None:
        with pytest.raises(MadicError, match="not exact"):
            divide_series(v + low, u)


def test_prepared_divisor_never_raises_until_used():
    zero = TruncatedSeries.zero(XY, 8)
    prepared = PreparedDivisor(zero)  # vanishes to precision: no error yet
    with pytest.raises(MadicError, match="vanishes to precision"):
        prepared.divide(S("x + O(m^8)"))


def test_prepared_divisor_prepares_once(monkeypatch):
    calls = []
    real = weierstrass.prepare

    def counting(u, *args, **kwargs):
        calls.append(u)
        return real(u, *args, **kwargs)

    monkeypatch.setattr(weierstrass, "prepare", counting)
    u = S("y^2 + x + x*y + O(m^10)")
    prepared = PreparedDivisor(u)
    for text in ("y^3 + x*y + O(m^10)", "x^2 + y^4 + O(m^10)"):
        v = u * S(text)
        assert divide_series(v, prepared) == divide_series(v, u)
    # one preparation for the prepared divisor, one per fresh division
    assert len(calls) == 3


def test_prepare_hands_over_the_units_inverse(monkeypatch):
    for text in ("y^2 + x + x*y + O(m^10)", "y^3 - 2*x^2 + x*y^2/3 + O(m^9)", "1 + x*y + O(m^6)"):
        u = S(text)
        inverse, dist = prepare(u)
        # the first slot is the unit's inverse: unit * dist == u to precision
        assert inverse.inverse() * dist.to_series(XY, u.precision) == u
    # a prepared bivariate divisor takes the inverse from prepare, which
    # computes no unit: no bivariate inverse is computed at all
    inverted = []
    real = TruncatedSeries.inverse

    def counting(self):
        if len(self.vars) == 2:
            inverted.append(self)
        return real(self)

    monkeypatch.setattr(TruncatedSeries, "inverse", counting)
    u = S("y^2 + x + O(m^10)")  # sheared first
    prepared = PreparedDivisor(u)
    dividends = [u * S(t) for t in ("y + x^2 + O(m^10)", "1 + x*y + O(m^10)")]
    quotients = [divide_series(v, prepared) for v in dividends]
    assert inverted == []
    monkeypatch.undo()
    change, u_reg = regularize(u)
    inverse, dist = prepare(u_reg)
    for v, q in zip(dividends, quotients):
        q_reg, _ = w_divide(change.apply_series(v), dist)
        want = change.inverse().apply_series(q_reg * inverse).truncate(q.precision)
        assert q == want


def test_prepared_divisor_builds_its_linear_changes_once(monkeypatch):
    u = S("y^2 + x + O(m^10)")  # needs a shear to be y-regular of order 1
    prepared = PreparedDivisor(u)
    dividends = [u * S(text) for text in ("y + x^2 + O(m^10)", "1 + x*y + O(m^10)", "x + O(m^10)")]
    first = divide_series(dividends[0], prepared)
    assert not prepared.change.is_identity()
    built = []
    real = LinearChange.__init__

    def counting(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(LinearChange, "__init__", counting)
    rest = [divide_series(v, prepared) for v in dividends[1:]]
    assert built == []
    monkeypatch.undo()
    assert [first, *rest] == [divide_series(v, u) for v in dividends]

# -- the slice recursion's degree caps -----------------------------------

GF2 = PrimeField(2)
GF3 = PrimeField(3)
# the largest prime whose residues take the packed slice sums at N <= 15
# with at most 15 terms in the divisor: 2 * 30 + bits(15) = 64
GF_AT_RULE = PrimeField(2**30 - 35)
GF_MERSENNE = PrimeField(2**31 - 1)


def _field_mul(a, b, field, cap):
    """The truncated product of two term dicts of field elements.  The
    kernel takes and returns integer numerators only (Fractions reach its
    slot path as soon as both operands have 32 terms), so the product goes
    through their exact forms and back."""
    (an, ad), (bn, bd) = exact_form(field, a), exact_form(field, b)
    return field_terms(field, weierstrass.mul_terms(an, bn, field, cap).items(), ad * bd)


def _wide_cap_divide(g, u, r):
    """The slice recursion with every slice kept to y-degree N + r(N-1-i),
    one kernel call and one field subtraction per product term: the
    reference the degree-capped division must match bit for bit.  The
    slices hold field elements, so each product goes through `_field_mul`."""
    N = min(g.precision, u.precision)
    fld = g.field
    uslices = weierstrass._x_slices(u.terms)
    gslices = weierstrass._x_slices(g.terms)
    e_unit = {j - r: c for j, c in uslices[0].items()}
    ycap = N + r * N
    e_inv = TruncatedSeries(fld, g.vars[1:], ycap + 1, {(j,): c for j, c in e_unit.items()})
    e_inv = {j: c for (j,), c in e_inv.inverse().terms.items()}
    q_slices, rem_slices = {}, {}
    for i in range(N):
        cap = N + r * (N - 1 - i)
        h = dict(gslices.get(i, {}))
        for j in range(1, i + 1):
            uj, qk = uslices.get(j), q_slices.get(i - j)
            if not uj or not qk:
                continue
            for k, c in _field_mul(uj, qk, fld, cap + r + 1).items():
                v = fld.sub(h.get(k, fld.zero()), c)
                if fld.is_zero(v):
                    h.pop(k, None)
                else:
                    h[k] = v
        rem_slices[i] = {k: c for k, c in h.items() if k < r}
        tail = {k - r: c for k, c in h.items() if k >= r}
        q_slices[i] = _field_mul(tail, e_inv, fld, cap + 1)
    q = TruncatedSeries(
        fld, g.vars, N,
        {(i, j): c for i, sl in q_slices.items() for j, c in sl.items() if i + j < N},
    )
    rems = [
        TruncatedSeries(fld, g.vars[:1], N, {(i,): sl[j] for i, sl in rem_slices.items() if j in sl})
        for j in range(r)
    ]
    return q, rems


# denominators for QQ coefficients: small ones, and distinct primes long
# enough that, with the lcm threshold lowered, an lcm over a few terms
# sends the kernel to its Fraction fallback
_PRIMES = [65521, 65519, 65497, 65479, 65449, 65447, 65437, 65423, 65419, 65413]


@st.composite
def _coefficient(draw, field, nonzero=False, top=False):
    # prime to 2 and 3, so nonzero over GF(2) and GF(3) too; `top` gives
    # -1, that is p - 1 over GF(p), every time
    if top:
        return field.convert(-1)
    n = draw(st.sampled_from([-5, -1, 1, 7]) if nonzero else st.integers(-3, 3))
    if field is QQ:
        return Fraction(n, draw(st.sampled_from([1, 1, 2, 3, *_PRIMES])))
    return field.convert(n)


@st.composite
def _divide_case(draw):
    """(g, u, r): u y-regular of order r with ord(u) = r or ord(u) < r, its
    x^0 slice y^r itself (a distinguished divisor) or y^r times a drawn
    unit."""
    field = draw(st.sampled_from([QQ, GF2, GF3, GF, GF_AT_RULE, GF_MERSENNE]))
    N = draw(st.integers(4, 10) | st.integers(11, 40))
    r = draw(st.integers(0, min(4, N - 1)))
    o = draw(st.integers(1, r)) if r else 0  # ord(u)
    extreme = field is not QQ and draw(st.booleans())
    coeff = _coefficient(field, top=extreme)
    lead = _coefficient(field, nonzero=True, top=extreme)
    distinguished = draw(st.booleans())
    terms = {(0, r): field.one() if distinguished else draw(lead)}
    if o < r:
        terms[(o, 0)] = draw(lead)
    for _ in range(draw(st.integers(0, 8 if N <= 10 else 16))):
        i, j = draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1))
        # keep ord(u) = o and the x^0 slice y^r times a unit
        if o <= i + j < N and (i or (j > r and not distinguished)):
            terms[(i, j)] = draw(coeff)
    u = TruncatedSeries(field, XY, N, terms)
    # dividends below, at or above the divisor's precision, with or without
    # terms at the last degree the output keeps
    P = draw(st.sampled_from([N - 1, N, N, N + 2]))
    top = draw(st.sampled_from([N - 1, N - 2, P - 1]))
    gterms = {}
    for _ in range(draw(st.integers(0, 14))):
        i = draw(st.integers(0, top))
        gterms[(i, draw(st.integers(0, top - i)))] = draw(coeff)
    if draw(st.booleans()):
        for i in range(0, N, 2):
            gterms[(i, N - 1 - i)] = draw(lead)
    g = TruncatedSeries(field, XY, P, gterms)
    return g, u, r


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_divide_case())
# the unit inverse at y-cap 51 is dense: the reference's products reach the
# kernel's slot path, which once got Fractions from it
@example((S("y^4 + O(m^10)"), S("y^5 - 5*y^4 + x + O(m^11)"), 4))
def test_weierstrass_divide_matches_wide_cap_recursion(case):
    g, u, r = case
    q, rems = weierstrass.weierstrass_divide(g, u, r)
    want_q, want_rems = _wide_cap_divide(g, u, r)
    assert q == want_q
    assert rems == want_rems


def test_weierstrass_divide_fraction_fallback_at_the_real_threshold():
    """A dividend slice of 79 terms over distinct ~20-bit primes, whose lcm
    is some 1600 bits long.  Division reads the series' numerators over
    their one denominator and builds no Fraction, and the output is still
    the wide-cap one."""
    N = 80
    odd = range(2**20 - 1, 2**19, -2)
    primes = itertools.islice((p for p in odd if all(p % d for d in range(3, 1025, 2))), N - 1)
    g = TruncatedSeries(QQ, XY, N, {(0, j): Fraction(1, p) for j, p in enumerate(primes)})
    u = S("y + x + x*y + O(m^80)")
    g, u = (TruncatedSeries._of_nums(QQ, XY, N, s.nums, s.den) for s in (g, u))  # no view
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is Fraction.__new__.__code__:
            built.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        q, rems = weierstrass.weierstrass_divide(g, u, 1)
    finally:
        sys.setprofile(None)
    assert built == []
    assert (q, rems) == _wide_cap_divide(g, u, 1)


def _taking_packed_path(field, N=12):
    """Whether a division over `field` at precision N packs its slices."""
    u = TruncatedSeries(field, XY, N, {(0, 2): field.one(), (1, 1): field.one(), (2, 0): field.one()})
    g = TruncatedSeries(field, XY, N, {(3, 4): field.one()})
    with mock.patch.object(weierstrass, "_slot_slices", wraps=weierstrass._slot_slices) as spy:
        weierstrass.weierstrass_divide(g, u, 2)
    return spy.called


def test_only_residues_that_fit_64_bit_slots_take_the_packed_path():
    assert _taking_packed_path(GF)
    assert _taking_packed_path(GF_AT_RULE)
    assert not _taking_packed_path(QQ)
    # 2 * 31 + bits(N) > 64 for every N >= 4
    assert not _taking_packed_path(GF_MERSENNE, 4)


@pytest.mark.parametrize("distinguished", [True, False])
@pytest.mark.parametrize("F", [GF_AT_RULE, GF_MERSENNE])
def test_slice_sums_at_the_64_bit_rule(F, distinguished):
    # 15 terms of u, all p - 1, at N = 12: 2 bits(p - 1) + bits(15) = 64
    # for 2^30 - 35, so its slot sums are as large as the rule allows; the
    # slot sums of 2^31 - 1 would overflow, and it takes the integer sums
    N, r = 12, 2
    top = F.convert(-1)
    body = [(i, j) for i in range(1, 4) for j in range(5) if i + j >= 2]
    if distinguished:
        terms = {(0, 2): F.one()}
    else:
        terms = {(0, 2): top, (0, 3): top}
        body.pop()
    terms.update((e, top) for e in body)
    u = TruncatedSeries(F, XY, N, terms)
    assert len(u.terms) == 15 and u.order().value == r
    g = TruncatedSeries(F, XY, N, {(i, j): top for i in range(N) for j in range(N) if i + j < N})
    with mock.patch.object(weierstrass, "_slot_slices", wraps=weierstrass._slot_slices) as spy:
        q, rems = weierstrass.weierstrass_divide(g, u, r)
    assert spy.called == (F is GF_AT_RULE)
    assert (q, rems) == _wide_cap_divide(g, u, r)


def _assert_filtered(s):
    assert all(not s.field.is_zero(c) and sum(e) < s.precision for e, c in s.terms.items())


@settings(max_examples=60, deadline=None)
@given(_divide_case(), st.integers(-3, 3))
def test_series_built_from_kernel_output_hold_no_zero_and_no_term_past_precision(case, c):
    g, u, r = case
    q, rems = weierstrass.weierstrass_divide(g, u, r)
    for s in (q, *rems, -g, g * c, LinearChange(c, g.field).apply_series(g)):
        _assert_filtered(s)
    assert not (g * 0).terms


def _recorded_caps(u, monkeypatch):
    """Prepare u and return the y-degree bounds its division used: the
    degree cap of each inverse of the unit's y-slice, and per slice i the
    bound of the accumulated products and of the kept quotient slice, with
    the largest y-degree that slice kept."""
    inverses, sums, slices = [], [], []
    real_quotient = weierstrass.quotient_numerators
    real_sub, real_mul = weierstrass._sub_products, weierstrass.mul_terms

    def quotient(a, a_den, terms, den, fld, cap):
        inverses.append(cap)
        return real_quotient(a, a_den, terms, den, fld, cap)

    def sub_products(fld, g, pairs, top):
        sums.append(top)
        return real_sub(fld, g, pairs, top)

    def mul(a, b, fld, cap):
        out = real_mul(a, b, fld, cap)
        slices.append((cap, max(out, default=-1)))
        return out

    monkeypatch.setattr(weierstrass, "quotient_numerators", quotient)
    monkeypatch.setattr(weierstrass, "_sub_products", sub_products)
    monkeypatch.setattr(weierstrass, "mul_terms", mul)
    prepare(u)
    return inverses, sums, slices


def test_prepare_keeps_only_the_degrees_its_output_reaches(monkeypatch):
    # N = 24, r = 2 = ord(u): slice i keeps y-degrees up to N - 1 - i
    N, r = 24, 2
    u = S("(1 + x + 2*y)*(y^2 + x*y + 3*x^2) + x^5*y^7 + O(m^24)")
    assert u.order().value == r and y_regular_order(u).value == r
    inverses, sums, slices = _recorded_caps(u, monkeypatch)
    assert inverses == [N]
    assert sums == [N - i + r for i in range(N)]
    assert [cap for cap, _ in slices] == [N - i for i in range(N)]
    assert all(deg <= N - 1 - i for i, (_, deg) in enumerate(slices))


def test_prepare_widens_the_caps_by_r_minus_ord(monkeypatch):
    # y^2 + y^3 + x: r = 2, ord(u) = 1, so s = 1 and cap_i = 2(N-1-i)
    N, r = 12, 2
    inverses, sums, slices = _recorded_caps(S("y^2 + y^3 + x + O(m^12)"), monkeypatch)
    caps = [2 * (N - 1 - i) for i in range(N)]
    assert inverses == [caps[0] + 1]
    assert sums == [c + r + 1 for c in caps]
    assert [cap for cap, _ in slices] == [c + 1 for c in caps]


def test_a_unit_slice_of_one_multiplies_no_quotient_slice(monkeypatch):
    # the x^0 slice of y^2 + x is y^2 itself, so the unit's inverse is 1
    N, r = 12, 2
    inverses, sums, slices = _recorded_caps(S("y^2 + x + O(m^12)"), monkeypatch)
    caps = [2 * (N - 1 - i) for i in range(N)]
    assert inverses == [caps[0] + 1]
    assert sums == [c + r + 1 for c in caps]
    assert slices == []
