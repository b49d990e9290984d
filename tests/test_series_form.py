"""The one stored form of series and polynomials against plain Fraction
references.

A series and a polynomial hold integer numerators over one positive
denominator with their common content removed (residues over 1 over GF(p)),
and build their Fraction `terms` on read; both are `fields.ExactForm`s,
whose base class alone holds the operations they share.  Every operation on that form must
give the reduced terms that a plain loop over Fractions, with the field's
own operations, gives; `==` and `hash` must agree with the terms; and every
result must be in the stored form.  The references live here only.
"""

import itertools
from fractions import Fraction
from math import comb, gcd, inf, prod

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from madic import (
    DomainMismatchError, Ideal, LinearChange, MadicError, Polynomial, PrimeField, QQ, SeriesVector, TruncatedSeries,
    buchberger, colon, evaluate, intersect,
)
from madic.fields import ExactForm
from madic.weierstrass import divide_series, weierstrass_divide
from helpers import exact_div, variable

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(32003)]
XY = ("x", "y")
# 16-bit primes: a series over ~70 of them as denominators has an lcm of
# over a thousand bits
PRIMES = [p for p in range(40001, 44000, 2) if all(p % d for d in range(3, 210, 2))]


# -- plain Fraction references --------------------------------------------


def reduced(field, terms, cap):
    """The terms below degree cap as field elements, without zeros."""
    out = {e: field.convert(c) for e, c in terms.items() if sum(e) < cap}
    return {e: c for e, c in out.items() if not field.is_zero(c)}


def ref_add(field, a, b, cap):
    out = dict(a)
    for e, c in b.items():
        out[e] = field.add(out.get(e, field.zero()), c)
    return reduced(field, out, cap)


def ref_mul(field, a, b, cap):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) < cap:
                out[e] = field.add(out.get(e, field.zero()), field.mul(ca, cb))
    return reduced(field, out, cap)


def ref_pow(field, a, n, cap, nvars):
    out = {(0,) * nvars: field.one()}
    for _ in range(n):
        out = ref_mul(field, out, a, cap)
    return out


def keys_below(nvars, cap):
    if nvars == 1:
        return [(d,) for d in range(cap)]
    return [(i, d - i) for d in range(cap) for i in range(d + 1)]


def ref_inverse(field, a, cap, nvars):
    """b_m = -(1/a_0) sum_{k != 0, k <= m} a_k b_{m-k}, in order of degree."""
    zero = (0,) * nvars
    first = field.inv(a[zero])
    b = {}
    for m in keys_below(nvars, cap):
        if m == zero:
            b[m] = first
            continue
        total = field.zero()
        for k, c in a.items():
            rest = tuple(x - y for x, y in zip(m, k))
            if k != zero and min(rest) >= 0 and rest in b:
                total = field.add(total, field.mul(c, b[rest]))
        b[m] = field.neg(field.mul(first, total))
    return reduced(field, b, cap)


def ref_evaluate(field, poly, images, nvars, cap):
    """Each term c * s * z^a * w^b of `poly` multiplied out."""
    out = {}
    for e, c in poly.terms.items():
        term = {tuple(e[:nvars]): field.convert(c)}
        for x, image in zip(e[nvars:], images):
            term = ref_mul(field, term, ref_pow(field, image, x, cap, nvars), cap)
        out = ref_add(field, out, term, cap)
    return out


def ref_shear(field, lam, a, cap):
    """c x^i y^j -> c sum_k C(i, k) lam^k x^(i-k) y^(j+k)."""
    out = {}
    for (i, j), c in a.items():
        part = {(i - k, j + k): field.mul(c, field.convert(comb(i, k) * lam**k)) for k in range(i + 1)}
        out = ref_add(field, out, part, cap)
    return out


# -- the stored form ----------------------------------------------------------


def check(s, field, vars, precision, ref):
    """s has the reference's reduced terms, by exponent tuple, equals and
    hashes like the series built from them, and is in the stored form: its
    numerators keyed by plain degree in one variable, by exponent pair in
    two."""
    assert (s.field, s.vars, s.precision) == (field, vars, precision)
    want = reduced(field, ref, precision)
    assert s.terms == want
    built = TruncatedSeries(field, vars, precision, want)
    assert s == built and hash(s) == hash(built)
    assert all(type(n) is int and n for n in s.nums.values())
    if len(vars) == 1:
        assert all(type(e) is int and 0 <= e < precision for e in s.nums)
    else:
        assert all(type(e) is tuple and len(e) == 2 and min(e) >= 0 and sum(e) < precision for e in s.nums)
    if field.characteristic:
        assert s.den == 1 and all(0 < n < field.p for n in s.nums.values())
    else:
        assert type(s.den) is int and s.den > 0 and gcd(s.den, *s.nums.values()) == 1


# -- draws --------------------------------------------------------------------


@st.composite
def term_dicts(draw, field, nvars, cap, kind, low=0):
    """A term dict below degree cap and from degree `low`: sparse, with
    coefficients over small or 16-bit prime denominators, or (over QQ)
    dense over distinct 16-bit primes."""
    keys = [k for k in keys_below(nvars, cap) if sum(k) >= low]
    if kind == "coprime" and field == QQ:
        primes = draw(st.permutations(PRIMES))
        return {k: Fraction(draw(st.integers(-9, 9).filter(bool)), p) for k, p in zip(keys, primes)}
    if field == QQ:
        coeff = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 9] + PRIMES[:4]))
    else:
        coeff = st.integers(0, field.p - 1)
    return draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=10)) if keys else {}


# (field, variables, kind): sparse draws over every field, and dense draws
# over distinct 16-bit primes, whose lcm is long in two variables
KINDS = [(f, n, "sparse") for f in FIELDS for n in (1, 2)] + [(QQ, 1, "coprime"), (QQ, 2, "coprime")]
KIND_IDS = [f"{f}-{n}-{k}" for f, n, k in KINDS]


@st.composite
def cases(draw, field, nvars, kind):
    pa = draw(st.integers(12, 14) if kind == "coprime" and nvars == 2 else st.integers(1, 24))
    pb = draw(st.integers(1, 24))
    a = draw(term_dicts(field, nvars, pa, kind))
    b = draw(term_dicts(field, nvars, pb, "sparse"))
    return XY[:nvars], pa, pb, a, b


@pytest.mark.parametrize("field, nvars, kind", KINDS, ids=KIND_IDS)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.data())
def test_every_operation_matches_the_fraction_reference(field, nvars, kind, data):
    vars, pa, pb, a, b = data.draw(cases(field, nvars, kind))
    prec = min(pa, pb)
    sa, sb = TruncatedSeries(field, vars, pa, a), TruncatedSeries(field, vars, pb, b)
    check(sa, field, vars, pa, a)
    check(TruncatedSeries.from_polynomial(Polynomial(field, vars, a), pa), field, vars, pa, a)
    check(TruncatedSeries.constant(-2, vars, pa, field), field, vars, pa, {(0,) * nvars: field.convert(-2)})
    check(sa + sb, field, vars, prec, ref_add(field, a, b, prec))
    check(sa - sb, field, vars, prec, ref_add(field, a, {e: field.neg(c) for e, c in b.items()}, prec))
    check(-sa, field, vars, pa, {e: field.neg(c) for e, c in a.items()})
    check(1 - sa, field, vars, pa, ref_add(field, {(0,) * nvars: 1}, {e: field.neg(c) for e, c in a.items()}, pa))
    c = data.draw(st.sampled_from([0, 1, -2, Fraction(3, 7), Fraction(-5, 4)]))
    if field.characteristic not in (2, 7) or c in (0, 1, -2):
        check(sa * TruncatedSeries.constant(c, vars, pa, field), field, vars, pa, {e: field.mul(v, field.convert(c)) for e, v in a.items()})
    check(sa * sb, field, vars, prec, ref_mul(field, a, b, prec))
    n = data.draw(st.integers(0, 3))
    check(sa**n, field, vars, pa, ref_pow(field, a, n, pa, nvars))
    q = data.draw(st.integers(1, pa))
    check(sa.truncate(q), field, vars, q, a)
    # a unit: a's constant term made nonzero
    unit = {**a, (0,) * nvars: data.draw(st.sampled_from([1, -1, 5]).map(field.convert))}
    check(TruncatedSeries(field, vars, pa, unit).inverse(q), field, vars, q, ref_inverse(field, unit, q, nvars))


@pytest.mark.parametrize("field, nvars, kind", KINDS, ids=KIND_IDS)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(st.data())
def test_evaluate_and_shear_match_the_fraction_reference(field, nvars, kind, data):
    vars, pa, pb, a, b = data.draw(cases(field, nvars, kind))
    prec = min(pa, pb)
    names = vars + ("z", "w")
    poly = Polynomial(field, names, data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * len(names)), st.integers(-4, 4).map(field.convert), max_size=6,
    )))
    za, zb = reduced(field, a, prec), reduced(field, b, prec)
    zbar = SeriesVector([TruncatedSeries(field, vars, prec, za), TruncatedSeries(field, vars, prec, zb)])
    got = evaluate(poly, zbar, {"z": 0, "w": 1})
    check(got, field, vars, prec, ref_evaluate(field, poly, [za, zb], nvars, prec))
    if nvars == 2:
        lam = data.draw(st.integers(0, 5))
        shear = LinearChange(lam, field).apply_series(TruncatedSeries(field, vars, pa, a))
        check(shear, field, vars, pa, ref_shear(field, field.convert(lam), a, pa))


@st.composite
def divisions(draw, field, nvars):
    """(N, u, w) with u of order r <= 2 and N >= 2r + 2."""
    r = draw(st.integers(0, 2))
    N = draw(st.integers(2 * r + 2, 24))
    low = draw(term_dicts(field, nvars, r + 1, "sparse", low=r).filter(
        lambda t: any(not field.is_zero(c) for c in t.values())))
    u = {**draw(term_dicts(field, nvars, N, "sparse", low=r + 1)), **low}
    return N, u, draw(term_dicts(field, nvars, N, "sparse"))


@pytest.mark.parametrize("field, nvars", [(f, n) for f in FIELDS for n in (1, 2)], ids=str)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.data())
def test_division_gives_back_the_reference_factor(field, nvars, data):
    # v = u*w to precision N; the quotient of v by u is unique below N - r,
    # r = ord u, so it is w there
    N, u, w = data.draw(divisions(field, nvars))
    vars = XY[:nvars]
    su = TruncatedSeries(field, vars, N, u)
    r = su.order().value
    v = TruncatedSeries(field, vars, N, ref_mul(field, u, w, N))
    try:
        q = divide_series(v, su)
    except MadicError as exc:  # over GF(2) a shear may not regularize u
        assert "no shear made the series y-regular" in str(exc)
        return
    check(q, field, vars, N - r, w)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.data())
def test_weierstrass_remainders_match_the_fraction_reference(field, data):
    # g = u*q + sum_j rem_j(x) y^j, j < r, for u y-regular of order r.  The
    # division at N + r gives the same remainders below x^N (the stored
    # terms are divided exactly), and g - u*q at N + r, by the reference
    # product, holds each rem_j y^j below total degree N + r > N - 1 + j
    N, u, g = data.draw(divisions(field, 2))
    r = TruncatedSeries(field, XY, N, u).order().value
    assume(r > 0)
    u[(0, r)] = field.one()
    q_high, _ = weierstrass_divide(TruncatedSeries(field, XY, N + r, g), TruncatedSeries(field, XY, N + r, u), r)
    diff = ref_add(field, g, {e: field.neg(c) for e, c in ref_mul(field, u, q_high.terms, N + r).items()}, N + r)
    assert all(j < r for _, j in diff)
    _, rems = weierstrass_divide(TruncatedSeries(field, XY, N, g), TruncatedSeries(field, XY, N, u), r)
    assert len(rems) == r
    for j, rem in enumerate(rems):
        check(rem, field, ("x",), N, {(i,): c for (i, k), c in diff.items() if k == j})


def test_operations_on_denominators_past_the_lcm_limit():
    # 78 distinct 16-bit primes: the series keeps one denominator, their
    # product
    N = 12
    a = {k: Fraction(1 + i % 5, p) for i, (k, p) in enumerate(zip(keys_below(2, N), PRIMES))}
    a[(0, 0)] = Fraction(3, 2)
    s = TruncatedSeries(QQ, XY, N, a)
    check(s, QQ, XY, N, a)
    check(s * s, QQ, XY, N, ref_mul(QQ, a, a, N))
    check(s.inverse(8), QQ, XY, 8, ref_inverse(QQ, a, 8, 2))
    check(s - s.truncate(6), QQ, XY, 6, {})
    check(LinearChange(2).apply_series(s), QQ, XY, N, ref_shear(QQ, 2, a, N))


@pytest.mark.parametrize("precision", [0, -1])
def test_truncate_and_inverse_refuse_a_precision_below_one(precision):
    from madic import PrecisionError

    s = TruncatedSeries(QQ, ("x",), 6, {(0,): 1, (1,): 2})
    with pytest.raises(PrecisionError):
        s.truncate(precision)
    with pytest.raises(PrecisionError):
        s.inverse(precision)


# -- polynomials ----------------------------------------------------------------

POLY_FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]
UVW = ("u", "v", "w")
ST = ("s", "t")


def check_poly(p, field, vars, ref):
    """p has the reference's reduced terms, equals and hashes like the
    polynomial built from them, and is in the one form."""
    assert (p.field, p.vars) == (field, vars)
    want = reduced(field, ref, inf)
    assert p.terms == want
    built = Polynomial(field, vars, want)
    assert p == built and hash(p) == hash(built)
    assert all(type(n) is int and n for n in p.nums.values())
    if field.characteristic:
        assert p.den == 1 and all(0 < n < field.p for n in p.nums.values())
    else:
        assert type(p.den) is int and p.den > 0 and gcd(p.den, *p.nums.values()) == 1


def check_engine_output(p, field, vars):
    """An output of the ideal engine, which no plain loop recomputes: its
    terms are its numerators over its denominator, and it is in the form."""
    check_poly(p, field, vars, {e: Fraction(n, p.den) for e, n in p.nums.items()})


def ref_diff(field, a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: field.mul(c, field.convert(e[i])) for e, c in a.items() if e[i]}


def ref_hasse(field, a, idx):
    """alpha -> the terms c * prod_j binom(e_j, alpha_j) * u^(e - alpha)."""
    out = {}
    for e, c in a.items():
        for alpha in itertools.product(*(range(e[i] + 1) for i in idx)):
            rest = list(e)
            for i, x in zip(idx, alpha):
                rest[i] -= x
            k = field.convert(prod(comb(e[i], x) for i, x in zip(idx, alpha)))
            out.setdefault(alpha, {})[tuple(rest)] = field.mul(c, k)
    return {alpha: reduced(field, t, inf) for alpha, t in out.items()}


def ref_subs(field, a, images, nvars):
    """Each term c * prod_v image_v^e_v multiplied out."""
    out = {}
    for e, c in a.items():
        term = {(0,) * nvars: c}
        for x, image in zip(e, images):
            term = ref_mul(field, term, ref_pow(field, image, x, inf, nvars), inf)
        out = ref_add(field, out, term, inf)
    return out


@st.composite
def poly_terms(draw, field, nvars, max_terms=4, max_deg=2):
    if field == QQ:
        coeff = st.one_of(
            st.integers(-6, 6),
            st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 9, 35] + PRIMES[:3])),
        )
    else:
        coeff = st.integers(-field.p, 2 * field.p)  # residues are the constructor's to reduce
    keys = st.tuples(*[st.integers(0, max_deg)] * nvars)
    return draw(st.dictionaries(keys, coeff, max_size=max_terms))


@pytest.mark.parametrize("field", POLY_FIELDS, ids=str)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.data())
def test_every_polynomial_operation_matches_the_fraction_reference(field, data):
    a_in, b_in = data.draw(poly_terms(field, 3)), data.draw(poly_terms(field, 3))
    a, b = reduced(field, a_in, inf), reduced(field, b_in, inf)
    pa, pb = Polynomial(field, UVW, a_in), Polynomial(field, UVW, b_in)
    check_poly(pa, field, UVW, a)
    check_poly(Polynomial.zero(UVW, field), field, UVW, {})
    c = data.draw(st.sampled_from([0, 1, -2, 6, Fraction(3, 7), Fraction(-5, 4)]))
    if field.characteristic not in (2, 7) or type(c) is int:
        c = field.convert(c)
        check_poly(Polynomial.constant(c, UVW, field), field, UVW, {(0, 0, 0): c})
        check_poly(Polynomial(field, UVW, {(1, 0, 2): c}), field, UVW, {(1, 0, 2): c})
        check_poly(pa * Polynomial.constant(c, UVW, field), field, UVW, {e: field.mul(v, c) for e, v in a.items()})
    check_poly(variable("v", UVW, field), field, UVW, {(0, 1, 0): 1})
    check_poly(pa + pb, field, UVW, ref_add(field, a, b, inf))
    check_poly(pa - pb, field, UVW, ref_add(field, a, {e: field.neg(v) for e, v in b.items()}, inf))
    check_poly(pa - pa, field, UVW, {})
    check_poly(-pa, field, UVW, {e: field.neg(v) for e, v in a.items()})
    check_poly(1 - pa, field, UVW, ref_add(field, {(0, 0, 0): 1}, {e: field.neg(v) for e, v in a.items()}, inf))
    check_poly(pa * pb, field, UVW, ref_mul(field, a, b, inf))
    check_poly(pa * pa, field, UVW, ref_mul(field, a, a, inf))
    n = data.draw(st.integers(0, 3))
    check_poly(pa**n, field, UVW, ref_pow(field, a, n, inf, 3))
    for i, name in enumerate(UVW):
        check_poly(pa.diff(name), field, UVW, ref_diff(field, a, i))
    hasse = pa.hasse(("u", "w"))
    want = {alpha: t for alpha, t in ref_hasse(field, a, (0, 2)).items() if t}
    assert set(hasse) == set(want)
    for alpha, t in hasse.items():
        check_poly(t, field, UVW, want[alpha])
    images = [data.draw(poly_terms(field, 2, max_terms=3)) for _ in UVW]
    mapping = {v: Polynomial(field, ST, t) for v, t in zip(UVW, images)}
    ref = ref_subs(field, a, [reduced(field, t, inf) for t in images], 2)
    check_poly(pa.subs(mapping), field, ST, ref)
    if b:
        check_poly(exact_div(pa * pb, pb), field, UVW, a)
    # equal polynomials built two ways: one form, one hash
    pc = Polynomial(field, UVW, data.draw(poly_terms(field, 3)))
    left, right = (pa + pb) * pc, pa * pc + pb * pc
    assert left == right and hash(left) == hash(right)
    assert left.nums == right.nums and left.den == right.den


# -- the shared class ------------------------------------------------------


# what ExactForm gives both kinds; neither defines any of it in its own body
SHARED = (
    "terms", "is_zero", "_check", "__add__", "__radd__", "__sub__", "__rsub__",
    "__neg__", "__eq__", "__hash__", "__str__",
)


@pytest.mark.parametrize("cls", [Polynomial, TruncatedSeries], ids=lambda c: c.__name__)
def test_the_shared_operations_are_defined_only_on_the_base(cls):
    assert cls.__bases__ == (ExactForm,)
    assert set(SHARED) <= set(ExactForm.__dict__)
    assert not set(SHARED) & set(cls.__dict__)
    # products stay on each kind, with the alias `__rmul__ = __mul__`
    assert cls.__dict__["__rmul__"] is cls.__dict__["__mul__"]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=str)
def test_equality_compares_the_kind_the_ring_and_the_form(field):
    half, third = field.convert(Fraction(1, 2)), field.convert(Fraction(1, 3))
    terms = {(1, 0): half, (0, 1): third}
    p, s = Polynomial(field, XY, terms), TruncatedSeries(field, XY, 8, terms)
    # one form, two kinds: unequal, and printed alike up to the O-term
    assert (p.nums, p.den) == (s.nums, s.den)
    assert p != s and s != p
    assert str(s) == f"{p} + O(m^8)" and str(TruncatedSeries.zero(XY, 4)) == "0 + O(m^4)"
    # equal elements built two ways hash equal; precision is part of a series' ring
    for a, make in ((p, lambda t: Polynomial(field, XY, t)), (s, lambda t: TruncatedSeries(field, XY, 8, t))):
        b = make({(1, 0): field.mul(3, half)}) - make({(1, 0): 1, (0, 1): field.neg(third)})
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert s.truncate(4) != s


def test_one_ring_check_for_both_kinds():
    xz = ("x", "z")
    pairs = [
        (Polynomial.zero(XY), Polynomial.zero(xz)),
        (TruncatedSeries.zero(XY, 4), TruncatedSeries.zero(xz, 4)),
    ]
    messages = set()
    for a, b in pairs:
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(DomainMismatchError) as err:
                op()
            messages.add(str(err.value))
    assert messages == {"variables differ: ('x', 'y') vs ('x', 'z')"}


def sympy_basis(gens, field):
    """The reduced degrevlex basis of `gens` by sympy, as term dicts of field
    elements."""
    names = sympy.symbols(gens[0].vars)
    exprs = [sum(sympy.Rational(str(c)) * sympy.Mul(*(x**k for x, k in zip(names, e))) for e, c in g.terms.items())
             for g in gens if not g.is_zero()]
    if not exprs:
        return []
    opts = {"modulus": field.p} if field.characteristic else {"domain": "QQ"}
    out = []
    for g in sympy.groebner(exprs, *names, order="grevlex", **opts).exprs:
        terms = sympy.Poly(g, *names).terms()
        out.append(reduced(field, {e: Fraction(int(c.p), int(c.q)) if field == QQ else int(c) for e, c in terms}, inf))
    return out


@pytest.mark.parametrize("field", POLY_FIELDS, ids=str)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.data())
def test_engine_outputs_are_in_the_one_form(field, data):
    xy = ("x", "y")
    gens = [Polynomial(field, xy, data.draw(poly_terms(field, 2, max_terms=3))) for _ in range(2)]
    basis = buchberger(gens)
    for g in basis:
        check_engine_output(g, field, xy)
    assert sorted(sorted(g.terms.items()) for g in basis) == sorted(sorted(t.items()) for t in sympy_basis(gens, field))
    I, J = Ideal(gens[:1]), Ideal(gens[1:] + [Polynomial(field, xy, data.draw(poly_terms(field, 2, max_terms=2)))])
    meet = intersect(I, J)
    for g in meet.generators:
        check_engine_output(g, field, xy)
        assert I.contains(g) and J.contains(g)
    quotient = colon(J, I)
    for g in quotient.generators:
        check_engine_output(g, field, xy)
        assert all(J.contains(g * f) for f in I.generators)
