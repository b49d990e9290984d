"""Groebner bases, ideal operations and the Jacobian ideal.

The property tests compare the packed, heap-ordered engine with a plain
reference kept only here: a reduction loop that scans the work set for its
largest term under order keys computed on exponent tuples.  The integer
kernel over QQ is also compared with sympy, on coefficients with distinct
prime denominators and on non-monic, non-primitive divisors.  Buchberger's
pair loop is compared, bit for bit, with the loop it replaced, also kept
only here.
"""

import heapq
import itertools
import random
import re
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.orderings import ProductOrder, grevlex

from madic import (
    DEGREVLEX,
    LEX,
    CapacityError,
    Ideal,
    MadicError,
    MonomialOrder,
    Polynomial,
    PrimeField,
    QQ,
    buchberger,
    colon,
    elkik_ideal,
    ideal_equal,
    intersect,
    normal_form,
    parse_polynomial,
    radical_member,
)
import madic.groebner as groebner
from madic.fields import exact_form, field_terms
from madic.groebner import colon_ideals, normal_form_terms
from madic.monomials import MAX_EXPONENT, divisor
from helpers import exact_div, variable


def P(text, vars=("x", "y", "z")):
    return parse_polynomial(text, vars)


def _sympy_basis(polys, names, order):
    syms = sympy.symbols(names)
    gb = sympy.groebner(
        [sympy.sympify(str(p)) for p in polys], *syms, order=order
    )
    out = set()
    for g in gb.exprs:
        lc = sympy.Poly(g, *syms).coeff_monomial(
            sympy.Poly(g, *syms).LM(order=gb.order)
        )
        out.add(sympy.expand(g / lc))
    return out


def _our_basis_set(polys, order):
    return {sympy.expand(sympy.sympify(str(g))) for g in buchberger(polys, order)}


def test_basis_matches_sympy_degrevlex():
    cases = [
        ["x^2 + y", "x*y - 1"],
        ["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"],
        ["x^2 + y^2 + z^2 - 1", "x + y + z", "x*y*z"],
    ]
    for gens in cases:
        polys = [P(t) for t in gens]
        assert _our_basis_set(polys, DEGREVLEX) == _sympy_basis(
            polys, "x y z", "grevlex"
        )


def test_basis_matches_sympy_lex():
    polys = [P("x^2 + y^2 - 1"), P("x - y")]
    assert _our_basis_set(polys, LEX) == _sympy_basis(polys, "x y z", "lex")


def test_basis_matches_sympy_random():
    rng = random.Random(23)
    vars = ("x", "y")
    for _ in range(15):
        polys = []
        for _ in range(2):
            terms = {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-2, 2))
                for _ in range(rng.randint(1, 3))
            }
            p = Polynomial(QQ, vars, terms)
            if p.degree() >= 1:
                polys.append(p)
        if not polys:
            continue
        assert _our_basis_set(polys, DEGREVLEX) == _sympy_basis(
            polys, "x y", "grevlex"
        )


def test_normal_form_is_canonical():
    basis = buchberger([P("x^2 - y"), P("y^2 - x")], DEGREVLEX)
    # the remainder of a member is zero regardless of how it is presented
    member = P("x^2 - y") * P("x + y + 1") + P("y^2 - x") * P("x*y")
    assert normal_form(member, basis, DEGREVLEX).is_zero()


def test_membership_examples():
    I = Ideal([P("x^2 - y"), P("y^2 - x")])
    assert I.contains(P("x^4 - x"))
    assert not I.contains(P("x"))


def test_intersection_against_product_inclusion():
    I = Ideal([P("x")])
    J = Ideal([P("y")])
    K = intersect(I, J)
    assert K.contains(P("x*y"))
    assert not K.contains(P("x"))
    assert not K.contains(P("y"))


def test_intersection_principal_case():
    # (x^2) meet (x*y) = (x^2*y)
    K = intersect(Ideal([P("x^2")]), Ideal([P("x*y")]))
    assert ideal_equal(K, Ideal([P("x^2*y")]))


def test_colon_simple():
    # ((x*y) : (y)) = (x)
    Q = colon(Ideal([P("x*y")]), Ideal([P("y")]))
    assert ideal_equal(Q, Ideal([P("x")]))


def test_colon_of_zero_ideal():
    # (J : (0)) is the unit ideal
    Q = colon(Ideal([P("x")]), Ideal([Polynomial.zero(("x", "y", "z"), QQ)]))
    assert Q.contains(P("1"))


def test_radical_membership():
    I = Ideal([P("x^2")])
    assert radical_member(P("x"), I)
    assert not radical_member(P("y"), I)
    assert not I.contains(P("x"))


def test_elkik_smooth_hypersurface():
    # a single equation with a unit partial derivative: the Jacobian ideal
    # is the unit ideal
    vars = ("x", "z")
    f = parse_polynomial("z - x^2", vars)
    H = elkik_ideal([f], ["z"])
    assert H.contains(parse_polynomial("1", vars))


def test_elkik_node():
    vars = ("x", "z")
    f = parse_polynomial("z^2 - x^2", vars)
    H = elkik_ideal([f], ["z"])
    # generated by 2z (the 1x1 minor) times ((f):(f)) = (1)
    assert H.contains(parse_polynomial("z", vars))
    assert not H.contains(parse_polynomial("1", vars))


FOUR = ("x", "y", "z", "t")


def _f_system():
    return [parse_polynomial(s, FOUR) for s in ("x*z", "x*t", "y*z", "y*t")]


def test_elkik_four_monomial_system():
    fs = _f_system()
    I = Ideal(fs)
    H = elkik_ideal(fs, list(FOUR))
    expect = Ideal(
        [
            parse_polynomial(s, FOUR)
            for s in ("x^3", "y^3", "z^3", "t^3", "(x*y)^2", "(z*t)^2")
        ]
    )
    assert ideal_equal(H + I, expect + I)


def test_colon_pair_table_sample():
    fs = _f_system()
    I = Ideal(fs)
    Q = colon(Ideal([fs[0], fs[1]]), I)
    assert ideal_equal(Q + I, Ideal([parse_polynomial("x", FOUR)]) + I)


def test_single_equation_colons_vanish_mod_I():
    fs = _f_system()
    I = Ideal(fs)
    for f in fs:
        Q = colon(Ideal([f]), I)
        for g in Q.generators:
            assert I.contains(g)


# -- the packed, heap-ordered engine against the max-scan reference -------

GF = PrimeField(32003)
XYZ = ("x", "y", "z")
ORDERS = [DEGREVLEX, LEX, MonomialOrder("block", split=1)]


def _drl_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def tuple_key(order):
    """The order key on exponent tuples, from the definition of the
    order."""
    if order.kind == "degrevlex":
        return _drl_key
    if order.kind == "lex":
        return tuple
    k = order.split
    return lambda e: (_drl_key(e[:k]), _drl_key(e[k:]))


def max_scan_normal_form(terms, divisors, key, field, returned=None):
    """Plain reduction: scan for the largest term, divide by the first
    divisor (lt, lc, terms) whose leading term divides it.  Terms that
    cancel and come back later are appended to `returned`."""
    work = dict(terms)
    rem = {}
    cancelled = set()
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for glt, glc, gterms in divisors:
            if all(x <= y for x, y in zip(glt, e)):
                q = tuple(x - y for x, y in zip(e, glt))
                fac = field.div(c, glc)
                for ge, gc in gterms.items():
                    if ge == glt:
                        continue
                    ne = tuple(x + y for x, y in zip(q, ge))
                    nc = field.sub(work.get(ne, field.zero()), field.mul(fac, gc))
                    if field.is_zero(nc):
                        work.pop(ne, None)
                        cancelled.add(ne)
                    else:
                        if ne in cancelled and ne not in work and returned is not None:
                            returned.append(ne)
                        work[ne] = nc
                break
        else:
            rem[e] = c
    return rem


def engine_normal_form(terms, divisors, order, field):
    pk = order.packing(len(XYZ))
    table = {}
    prepared = []
    for g in divisors:
        packed = pk.pack_terms(exact_form(field, g)[0], table)
        prepared.append(divisor(packed, pk.leading(packed), pk, field))
    nums, den = exact_form(field, terms)
    rem, scale = normal_form_terms(pk.pack_terms(nums, table), prepared, pk, field)
    keys = [m ^ pk.flip for m in rem]
    assert keys == sorted(keys, reverse=True)  # remainder in decreasing order
    return pk.unpack_terms(field_terms(field, rem.items(), den * scale), table)


def reference_normal_form(terms, divisors, order, field, returned=None):
    key = tuple_key(order)
    prepared = []
    for g in divisors:
        lt = max(g, key=key)
        prepared.append((lt, g[lt], g))
    return max_scan_normal_form(terms, prepared, key, field, returned)


exponents = st.tuples(*[st.integers(0, 3)] * 3)


@st.composite
def term_dicts(draw, field, min_size=0):
    if field == QQ:
        coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])
    else:
        coeffs = st.sampled_from([1, 2, GF.p - 1, GF.p - 2])
    return draw(st.dictionaries(exponents, coeffs, min_size=min_size, max_size=6))


@st.composite
def reductions(draw):
    field = draw(st.sampled_from([QQ, GF]))
    order = draw(st.sampled_from(ORDERS))
    terms = draw(term_dicts(field))
    divisors = draw(st.lists(term_dicts(field, min_size=1), min_size=1, max_size=3))
    return terms, divisors, order, field


@settings(max_examples=300, deadline=None)
@given(reductions())
def test_heap_reduction_matches_max_scan(case):
    terms, divisors, order, field = case
    assert engine_normal_form(terms, divisors, order, field) == reference_normal_form(
        terms, divisors, order, field
    )


def test_heap_reduction_term_cancels_and_comes_back():
    # x*z by (z - x*z) cancels z; y by (y + z) brings z back
    p = parse_polynomial("x*z + y - z", XYZ)
    gs = [parse_polynomial(t, XYZ).terms for t in ("z - x*z", "y + z")]
    returned = []
    want = reference_normal_form(p.terms, gs, DEGREVLEX, QQ, returned)
    assert returned == [(0, 0, 1)]
    assert want == {(0, 0, 1): Fraction(-1)}
    assert engine_normal_form(p.terms, gs, DEGREVLEX, QQ) == want


def _divides(pk, a, b):
    """Whether the packed monomial a divides b: no field of b - a borrows
    from its guard bit."""
    return ((b | pk.guard) - a) & pk.guard == pk.guard


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ORDERS), st.integers(1, 5), st.data())
def test_packed_monomials_match_exponent_tuples(order, n, data):
    if order.kind == "block":
        order = MonomialOrder("block", split=data.draw(st.integers(0, n)))
    vec = st.tuples(*[st.integers(0, 40)] * n)
    a, b = data.draw(vec), data.draw(vec)
    pk = order.packing(n)
    key = tuple_key(order)

    def pack(e):
        (m,) = pk.pack_terms({e: 1}, {})
        return m

    pa, pb = pack(a), pack(b)
    assert pk.unpack(pa) == a
    assert ((pa ^ pk.flip) < (pb ^ pk.flip)) == (key(a) < key(b))
    assert _divides(pk, pa, pb) == all(x <= y for x, y in zip(a, b))
    assert pa + pb == pack(tuple(x + y for x, y in zip(a, b)))
    lcm = tuple(map(max, a, b))
    E = pk.exponents
    assert pk.with_degrees(pk.field_max(pa & E, pb & E)) == (pack(lcm), sum(lcm))
    top = pk.field_max(pa, pb)
    assert pk.unpack(top) == tuple(map(max, a, b))
    assert _divides(pk, pa, top) and _divides(pk, pb, top)


def _random_poly(rng, field, vars, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in vars)
        terms[e] = field.convert(rng.choice([1, -1, 2, 3]))
    return Polynomial(field, vars, terms)


@st.composite
def small_systems(draw):
    names = draw(st.sampled_from([("x", "y"), ("x", "y", "z")]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    polys = [_random_poly(rng, QQ, names) for _ in range(draw(st.integers(1, 3)))]
    order, sym_order = draw(st.sampled_from([(DEGREVLEX, "grevlex"), (LEX, "lex")]))
    return polys, names, order, sym_order


@settings(max_examples=40, deadline=None)
@given(small_systems())
def test_buchberger_matches_sympy(case):
    polys, names, order, sym_order = case
    assert _our_basis_set(polys, order) == _sympy_basis(polys, " ".join(names), sym_order)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF]), st.integers(0, 10**6))
def test_exact_div_round_trip(field, seed):
    rng = random.Random(seed)
    p = _random_poly(rng, field, XYZ, max_terms=5)
    g = _random_poly(rng, field, XYZ, max_terms=4)
    assert exact_div(p * g, g) == p
    if g.degree() > 0:
        with pytest.raises(MadicError):
            exact_div(p * g + Polynomial.constant(1, XYZ, field), g)


def test_exponent_past_the_cap_raises():
    big = MAX_EXPONENT + 1
    x = Polynomial(QQ, ("x", "y"), {(big, 0): 1})
    with pytest.raises(CapacityError):
        buchberger([x])
    with pytest.raises(CapacityError):
        Ideal([parse_polynomial("x", ("x", "y"))]).contains(x)


def test_product_past_the_cap_raises():
    half = (MAX_EXPONENT + 1) // 2 + 1
    xy = ("x", "y")
    # under lex x - y^half leads with x; x^2 reduces to y^(2*half)
    g = parse_polynomial(f"x - y^{half}", xy)
    with pytest.raises(CapacityError):
        normal_form(parse_polynomial("x^2", xy), [g], LEX)
    # the S-pair lcm x^half*y^half has degree past the cap
    gens = [parse_polynomial(t, xy) for t in (f"x^{half}*y - 1", f"x*y^{half} - 1")]
    with pytest.raises(CapacityError):
        buchberger(gens)
    # here the S-polynomial y^(half-1)*z^(half+1) - x^(half-1)*z^(half+1)
    # itself is past the cap
    xyz = ("x", "y", "z")
    gens = [
        parse_polynomial(t, xyz)
        for t in (f"x^{half}*y + z^{half + 1}", f"x*y^{half} + z^{half + 1}")
    ]
    with pytest.raises(CapacityError, match="S-polynomial"):
        buchberger(gens)
    # the lcm of a coprime pair is past the cap too, but forms no S-polynomial
    gens = [parse_polynomial(t, xy) for t in (f"x^{half} - 1", f"y^{half} - 1")]
    assert buchberger(gens) == gens[::-1]  # ascending leading terms
    # exponents below the cap are fine
    y_half = parse_polynomial(f"y^{half}", xy)
    assert exact_div(y_half * parse_polynomial("x", xy), parse_polynomial("x", xy)) == y_half


def test_basis_shares_exponent_tuples():
    names = ("a", "b", "c", "d")
    eqs = [
        "a + b + c + d",
        "a*b + b*c + c*d + d*a",
        "a*b*c + b*c*d + c*d*a + d*a*b",
        "a*b*c*d - 1",
    ]
    basis = buchberger([parse_polynomial(e, names) for e in eqs])
    seen = {}
    for g in basis:
        for e in g.terms:
            assert seen.setdefault(e, e) is e
    assert sum(len(g.terms) for g in basis) > len(seen)


# -- the fraction-free kernel over QQ ------------------------------------

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
SYMPY_ORDERS = [
    (DEGREVLEX, "grevlex"),
    (LEX, "lex"),
    (
        MonomialOrder("block", split=1),
        ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:])),
    ),
]


def _prime_denominator_poly(rng, vars, max_deg, max_terms):
    """A polynomial whose coefficients n/p have distinct prime
    denominators p, so clearing them takes their product."""
    dens = rng.sample(PRIMES, len(PRIMES))
    terms = {}
    for k in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in vars)
        terms[e] = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), dens[k])
    return Polynomial(QQ, vars, terms)


def _awkward(g, rng, order):
    """-k/q times the primitive integer multiple of g with a positive
    leading coefficient, for k in {2, 6, 10, 15} and a prime q: cleared of
    its denominator q it is non-primitive with a negative leading
    coefficient."""
    nums = list(exact_form(QQ, g.terms)[0].values())
    content = gcd(*nums)
    lead = list(g.terms).index(max(g.terms, key=tuple_key(order)))
    if nums[lead] < 0:
        content = -content
    k, q = rng.choice([2, 6, 10, 15]), rng.choice(PRIMES)
    return Polynomial(
        QQ, g.vars, {e: Fraction(-k * (n // content), q) for e, n in zip(g.terms, nums)}
    )


def _to_sympy(p, syms):
    return sympy.Add(
        *[
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[s**k for s, k in zip(syms, e)])
            for e, c in p.terms.items()
        ]
    )


def _from_sympy(expr, syms, order):
    if expr == 0:
        return {}
    return {
        e: Fraction(int(c.p), int(c.q))
        for e, c in sympy.Poly(expr, *syms).terms(order=order)
    }


@st.composite
def prime_denominator_systems(draw):
    order, sym_order = draw(st.sampled_from(SYMPY_ORDERS))
    rng = random.Random(draw(st.integers(0, 10**6)))
    gens = [
        _prime_denominator_poly(rng, XYZ, 2, 3) for _ in range(draw(st.integers(1, 3)))
    ]
    return gens, order, sym_order, rng


@settings(max_examples=40, deadline=None)
@given(prime_denominator_systems())
def test_normal_form_matches_sympy_reduced(case):
    gens, order, sym_order, rng = case
    syms = sympy.symbols(XYZ)
    basis = [
        Polynomial(QQ, XYZ, _from_sympy(g, syms, sym_order))
        for g in sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order=sym_order).exprs
    ]
    divisors = [_awkward(g, rng, order) for g in basis]
    p = _prime_denominator_poly(rng, XYZ, 3, 6)
    _, want = sympy.reduced(
        _to_sympy(p, syms), [_to_sympy(g, syms) for g in divisors], *syms, order=sym_order
    )
    got = normal_form(p, divisors, order)
    assert got.terms == _from_sympy(want, syms, sym_order)
    assert all(type(c) is Fraction for c in got.terms.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_exact_div_prime_denominators(seed):
    rng = random.Random(seed)
    p = _prime_denominator_poly(rng, XYZ, 2, 5)
    g = _awkward(_prime_denominator_poly(rng, XYZ, 2, 4), rng, DEGREVLEX)
    q = exact_div(p * g, g)
    assert q * g == p * g


@settings(max_examples=30, deadline=None)
@given(prime_denominator_systems())
def test_buchberger_prime_denominators_matches_sympy(case):
    gens, order, sym_order, rng = case
    gens = [_awkward(g, rng, order) if rng.random() < 0.5 else g for g in gens]
    assert _our_basis_set(gens, order) == _sympy_basis(gens, " ".join(XYZ), sym_order)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SYMPY_ORDERS), st.integers(0, 10**6))
def test_gf_basis_and_normal_form_match_sympy(orders, seed):
    # coefficients are residues in [0, p): sympy's symmetric ones mod p
    order, sym_order = orders
    rng = random.Random(seed)
    gens = [_random_poly(rng, GF, XYZ) for _ in range(rng.randint(1, 3))]
    p = _random_poly(rng, GF, XYZ, max_deg=3, max_terms=6)
    syms = sympy.symbols(XYZ)
    G = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order=sym_order, modulus=GF.p)
    want = [_from_sympy_gf(g, syms) for g in G.exprs]
    basis = buchberger(gens, order)
    assert sorted(sorted(g.terms.items()) for g in basis) == sorted(sorted(w.items()) for w in want)
    _, r = sympy.reduced(_to_sympy(p, syms), G.exprs, *syms, order=sym_order, modulus=GF.p)
    assert normal_form(p, basis, order).terms == _from_sympy_gf(r, syms)


def _from_sympy_gf(expr, syms):
    if expr == 0:
        return {}
    poly = sympy.Poly(expr, *syms, modulus=GF.p)
    return {e: int(c) % GF.p for e, c in poly.terms()}


def test_content_removal_bounds_coefficient_swell():
    # x^60 + y under lex x > y by 60 divisors, for k = 30, ..., 1:
    #   p_k*x^(2k) - x^(2k-1)   (leading coefficient the k-th prime p_k)
    #   x^(2k-1) - p_k*x^(2k-2)
    # Each p_k scales the work set, and the next divisor makes p_k a common
    # factor again; exactly, x^(2k) = x^(2k-2), so the remainder is 1 + y.
    # Without content removal the scale is the product of all 30 primes
    # (about 330 bits).  The rule divides the content out whenever the
    # scale's bit length has doubled since the last removal: after a
    # removal the scale is one 11-bit prime, and by the time a third prime
    # multiplies in, the content is two primes and the bit length has
    # doubled, so the scale and every numerator stay within 3 * 11 bits.
    primes = [p for p in range(1024, 2048) if all(p % d for d in range(2, 46))][:30]
    assert len(primes) == 30 and all(p.bit_length() == 11 for p in primes)
    xy = ("x", "y")
    divisors = []
    for k in range(30, 0, -1):
        p = primes[k - 1]
        divisors.append(parse_polynomial(f"{p}*x^{2 * k} - x^{2 * k - 1}", xy))
        divisors.append(parse_polynomial(f"x^{2 * k - 1} - {p}*x^{2 * k - 2}", xy))
    pk = LEX.packing(2)
    table = {}
    prepared = []
    for g in divisors:
        packed = pk.pack_terms(g.nums, table)
        prepared.append(divisor(packed, pk.leading(packed), pk, QQ))
    p = parse_polynomial("x^60 + y", xy)
    rem, scale = normal_form_terms(pk.pack_terms(p.nums, table), prepared, pk, QQ)
    assert p.den == 1
    assert pk.unpack_terms(field_terms(QQ, rem.items(), scale), table) == {
        (0, 1): 1,
        (0, 0): 1,
    }
    bound = 3 * 11
    assert scale.bit_length() <= bound
    assert all(abs(n).bit_length() <= bound for n in rem.values())
    assert sum(p.bit_length() for p in primes) > 8 * bound


# The benchmark's Groebner systems, rescaled by fixed non-integral factors
# so that every reduction over QQ meets non-monic, non-primitive divisors.
CYCLIC5 = [
    "a+b+c+d+e",
    "a*b+b*c+c*d+d*e+e*a",
    "a*b*c+b*c*d+c*d*e+d*e*a+e*a*b",
    "a*b*c*d+b*c*d*e+c*d*e*a+d*e*a*b+e*a*b*c",
    "a*b*c*d*e-1",
]
KATSURA4 = [
    "a+2*b+2*c+2*d+2*e-1",
    "a^2+2*b^2+2*c^2+2*d^2+2*e^2-a",
    "2*a*b+2*b*c+2*c*d+2*d*e-b",
    "b^2+2*a*c+2*b*d+2*c*e-c",
    "2*b*c+2*a*d+2*b*e-d",
]
RESCALE = {"a": "2/3", "b": "-3/2", "c": "1/2", "d": "-1", "e": "3"}


@pytest.mark.parametrize("system", [CYCLIC5, KATSURA4], ids=["cyclic5", "katsura4"])
def test_rescaled_benchmark_systems_match_sympy(system):
    names = ("a", "b", "c", "d", "e")
    eqs = [
        re.sub(r"\b([a-e])\b", lambda m: f"(({RESCALE[m.group(1)]})*{m.group(1)})", s)
        for s in system
    ]
    polys = [parse_polynomial(s, names) for s in eqs]
    assert _our_basis_set(polys, DEGREVLEX) == _sympy_basis(polys, " ".join(names), "grevlex")


@st.composite
def whole_systems(draw):
    """1-3 equations in x, y of at most three terms, over QQ or GF(p), some
    of them zero."""
    field = draw(st.sampled_from([QQ, GF]))
    if field == QQ:
        coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(3), Fraction(-2, 3)])
    else:
        coeffs = st.sampled_from([1, 2, GF.p - 1, GF.p - 2])
    terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs, max_size=3)
    return [Polynomial(field, ("x", "y"), t) for t in draw(st.lists(terms, min_size=1, max_size=3))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(whole_systems())
def test_colon_of_every_equation_is_the_one_colon_gives(fs):
    # (I : I) is the whole ring; its generator, printed as a cofactor, is
    # 1/lc(f) for one nonzero f and 1 otherwise, with no Groebner basis
    got = colon_ideals(fs, len(fs))[tuple(range(len(fs)))]
    want = colon(Ideal(fs), Ideal(fs))
    assert [str(g) for g in got.generators] == [str(g) for g in want.generators]
    assert got.generators == want.generators


def _colon_per_generator(J, I):
    """(J : I) as `colon` computed it before generators shared with J were
    skipped: one intersection J ∩ (g) for every nonzero generator g of I,
    then the quotients intersected in order."""
    nonzero = [g for g in I.generators if not g.is_zero()]
    if not nonzero:
        return Ideal([Polynomial.constant(1, J.vars, J.field)])
    zero = Polynomial.zero(J.vars, J.field)
    result = None
    for g in nonzero:
        if J.is_zero():
            quot = Ideal([zero])
        else:
            meet = intersect(J, Ideal([g]))
            quot = Ideal([exact_div(h, g) for h in meet.generators if not h.is_zero()] or [zero])
        result = quot if result is None else intersect(result, quot)
    return result


@st.composite
def colon_pairs(draw):
    """(J, I): 1-4 generators each in x, y over QQ, GF(2), GF(7) or
    GF(32003), some zero; I reuses some of J's generators, as the same
    object or as an equal copy."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(7), GF]))
    if field == QQ:
        coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(3), Fraction(-2, 3)])
    else:
        coeffs = st.sampled_from(sorted({1, 2 % field.p, field.p - 1} - {0}))
    terms = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs, min_size=1, max_size=3
    )
    zero = Polynomial.zero(("x", "y"), field)

    def poly():
        return Polynomial(field, ("x", "y"), draw(terms))

    J = [zero if draw(st.integers(0, 4)) == 4 else poly() for _ in range(draw(st.integers(1, 4)))]
    I = []
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.sampled_from(J))
        kind = draw(st.sampled_from(["same", "copy", "new", "zero", "same", "copy", "new"]))
        if kind == "copy":
            g = Polynomial(field, g.vars, dict(g.terms))
        elif kind != "same":
            g = poly() if kind == "new" else zero
        I.append(g)
    return Ideal(J), Ideal(I)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(colon_pairs())
def test_colon_skipping_shared_generators_gives_the_per_generator_colon(pair):
    J, I = pair
    got = colon(J, I).generators
    want = _colon_per_generator(J, I).generators
    assert [str(g) for g in got] == [str(g) for g in want]


def test_shear_colon_ideals_skip_the_generators_of_each_subset(monkeypatch):
    # x(z+2t), x(z-2t), yz, yt, the benchmark's shear shape: each generator
    # of I that lies in (f_i, i in E) costs no intersection (101 before)
    calls = []

    def counting(I, J):
        calls.append(1)
        return intersect(I, J)

    monkeypatch.setattr(groebner, "intersect", counting)
    fs = [P(e, FOUR) for e in ("x*(z+2*t)", "x*(z-2*t)", "y*z", "y*t")]
    colon_ideals(fs, len(fs))
    assert len(calls) == 42


# -- the pair loop against the one it replaced -----------------------------


def reference_buchberger(gens, order=DEGREVLEX):
    """`buchberger` before sugar selection and the Gebauer-Moeller update:
    the generators enter in the order given, pairs are taken by least lcm
    alone, every pair (k, new) is pushed when an element joins, the chain
    criterion scans the whole basis for every pair taken, and the basis is
    made minimal by testing every element against every other."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    field, vars = gens[0].field, gens[0].vars
    pk = order.packing(len(vars))
    G = pk.guard
    table = {}
    basis = []
    for g in gens:
        rem, _ = normal_form_terms(pk.pack_terms(g.nums, table), basis, pk, field)
        if rem:
            basis.append(divisor(rem, next(iter(rem)), pk, field))
    lts = [d[0] for d in basis]
    exps = [pk.unpack(lt) for lt in lts]
    pairs = []
    counter = itertools.count()

    def push_pair(i, j):
        lcm = sum(map(mul, map(max, exps[i], exps[j]), pk.units))
        heapq.heappush(pairs, (lcm ^ pk.flip, next(counter), i, j, lcm))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push_pair(i, j)
    done = set()
    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        done.add((i, j))
        if lcm == lts[i] + lts[j]:
            continue
        lg = lcm | G
        if any(
            (lg - lt) & G == G
            and ((k, i) if k < i else (i, k)) in done
            and ((k, j) if k < j else (j, k)) in done
            for k, lt in enumerate(lts)
        ):
            continue
        s = groebner._spoly(basis[i], basis[j], lcm, pk, field)
        rem, _ = normal_form_terms(s, basis, pk, field)
        if not rem:
            continue
        lt = next(iter(rem))
        basis.append(divisor(rem, lt, pk, field))
        lts.append(lt)
        exps.append(pk.unpack(lt))
        for k in range(len(basis) - 1):
            push_pair(k, len(basis) - 1)
    minimal = [
        basis[i]
        for i, lt in enumerate(lts)
        if not any(j != i and _divides(pk, lts[j], lt) and (lts[j] != lt or j < i) for j in range(len(basis)))
    ]
    return groebner._polys(groebner._reduce_basis(minimal, pk, field), pk, field, vars, table)


@st.composite
def generator_lists(draw):
    """1-4 polynomials in x, y, z over QQ, GF(2) or GF(32003), shuffled,
    some of them repeated and some zero, and a monomial order."""
    field = draw(st.sampled_from([QQ, PrimeField(2), GF]))
    order = draw(st.sampled_from(ORDERS))
    rng = random.Random(draw(st.integers(0, 10**6)))
    coeffs = [1, -1, 3, Fraction(-2, 3)] if field == QQ else [1, 2, -1]
    polys = []
    for _ in range(rng.randint(1, 4)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 2) for _ in XYZ)
            terms[e] = field.convert(rng.choice(coeffs))
        polys.append(Polynomial(field, XYZ, terms))
    polys += rng.sample(polys, rng.randint(0, len(polys)))
    polys += [Polynomial.zero(XYZ, field)] * rng.randint(0, 2)
    rng.shuffle(polys)
    return polys, order


@settings(max_examples=300, deadline=None, derandomize=True)
@given(generator_lists())
def test_buchberger_matches_the_reference_loop_bit_for_bit(case):
    gens, order = case
    got = buchberger(gens, order)
    want = reference_buchberger(gens, order)
    assert [(g.nums, g.den) for g in got] == [(g.nums, g.den) for g in want]
    assert [str(g) for g in got] == [str(g) for g in want]


DET = ("x*z - y^2", "x*(t + 2*x) - y*z", "y*(t + 2*x) - z^2")


def test_det_system_reduces_fewer_s_pairs_than_the_reference_loop(monkeypatch):
    # the 2x2 minors of [[x, y, z], [y, z, t + 2x]], the benchmark's det
    # shape: the generators of H + I whose basis the benchmark op computes
    fs = [P(e, FOUR) for e in DET]
    gens = elkik_ideal(fs, list(FOUR)).generators + fs
    pairs = []

    def counting(*args):
        pairs.append(1)
        return spoly(*args)

    spoly = groebner._spoly
    monkeypatch.setattr(groebner, "_spoly", counting)
    got = buchberger(gens)
    ours, pairs[:] = len(pairs), []
    want = reference_buchberger(gens)
    assert [str(g) for g in got] == [str(g) for g in want]
    assert ours < len(pairs)


# -- the packed ideal operations against the Polynomial-level ones ---------


def _lift(polys, name):
    """The polynomials over (name,) + their variables."""
    new_vars = (name,) + polys[0].vars
    return [p.extend_vars(new_vars) for p in polys], new_vars


def reference_intersect(I, J):
    """`intersect` as Polynomials: t*I + (1-t)*J over (t,) + vars, a block
    order basis, and its elements free of t with t dropped."""
    zero = [Polynomial.zero(I.vars, I.field)]
    if I.is_zero() or J.is_zero():
        return zero
    lifted, new_vars = _lift(I.generators + J.generators, "_t")
    t = variable("_t", new_vars, I.field)
    one = Polynomial.constant(1, new_vars, I.field)
    k = len(I.generators)
    gens = [t * g for g in lifted[:k]] + [(one - t) * g for g in lifted[k:]]
    kept = []
    for g in reference_buchberger(gens, MonomialOrder("block", split=1)):
        if all(e[0] == 0 for e in g.nums):
            nums = {e[1:]: n for e, n in g.nums.items()}
            kept.append(Polynomial._of_nums(g.field, I.vars, nums, g.den))
    return kept or zero


def reference_colon(J, I):
    """`colon` as Polynomials, on `reference_intersect` and `exact_div`."""
    nonzero = [g for g in I.generators if not g.is_zero()]
    if not nonzero:
        return [Polynomial.constant(1, J.vars, J.field)]
    if J.is_zero():
        return [Polynomial.zero(J.vars, J.field)]
    rest = [g for g in nonzero if g not in J.generators]
    if not rest:
        return groebner._whole_colon(nonzero).generators
    quots = [[exact_div(h, g) for h in reference_intersect(J, Ideal([g]))] for g in rest]
    if len(nonzero) == 1:
        return quots[0]
    if len(quots) == 1:
        return reference_buchberger(quots[0])
    meet = quots[0]
    for q in quots[1:]:
        meet = reference_intersect(Ideal(meet), Ideal(q))
    return meet


def reference_radical_member(p, I):
    """`radical_member` as Polynomials: 1 in I + (1 - w*p), with I given by
    its cached basis when it has one, in one basis of every generator."""
    lifted, new_vars = _lift((I.cached_basis or I.generators) + [p], "_w")
    w = variable("_w", new_vars, I.field)
    one = Polynomial.constant(1, new_vars, I.field)
    basis = reference_buchberger(lifted[:-1] + [one - w * lifted[-1]])
    return len(basis) == 1 and basis[0].degree() == 0


@st.composite
def ideal_cases(draw):
    """(J, I, p): 1-3 generators each in x, or in x and y, over QQ, GF(2)
    or GF(32003), some zero, repeated or constant; I under degrevlex or a
    block order, with its basis cached or not; p a polynomial."""
    field = draw(st.sampled_from([QQ, PrimeField(2), GF]))
    coeffs = [Fraction(1), Fraction(-1), Fraction(3), Fraction(-2, 3)] if field == QQ else [1, 2, -1]
    rng = random.Random(draw(st.integers(0, 10**6)))
    XY = draw(st.sampled_from([("x",), ("x", "y"), ("x", "y")]))

    def poly():
        kind = rng.random()
        if kind < 0.1:
            return Polynomial.zero(XY, field)
        if kind < 0.15:
            return Polynomial.constant(rng.choice(coeffs), XY, field)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[tuple(rng.randint(0, 2) for _ in XY)] = field.convert(rng.choice(coeffs))
        return Polynomial(field, XY, terms)

    def gens():
        out = [poly() for _ in range(rng.randint(1, 3))]
        return out + rng.sample(out, rng.randint(0, 1))

    J = Ideal(gens())
    I = Ideal(gens(), draw(st.sampled_from([DEGREVLEX, MonomialOrder("block", split=1)])))
    if draw(st.booleans()):
        I.groebner()
    return J, I, poly()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ideal_cases())
def test_intersect_colon_and_radical_match_the_polynomial_references(case):
    J, I, p = case
    for got, want in ((intersect(J, I).generators, reference_intersect(J, I)),
                      (colon(J, I).generators, reference_colon(J, I))):
        assert [(g.nums, g.den) for g in got] == [(g.nums, g.den) for g in want]
        assert [str(g) for g in got] == [str(g) for g in want]
    assert radical_member(p, I) == reference_radical_member(p, I)


def test_radical_member_whose_basis_is_the_unit_ideal():
    # x is nilpotent mod (x^3, y^2 - x), so the run ends as soon as a
    # constant joins; y is too, and x + 1 is a unit mod the ideal
    I = Ideal([P("x^3"), P("y^2 - x")])
    I.groebner()
    calls = []

    def counting(*args):
        calls.append(1)
        return core(*args)

    core = groebner._groebner
    with pytest.MonkeyPatch.context() as m:
        m.setattr(groebner, "_groebner", counting)
        assert radical_member(P("x"), I) and radical_member(P("y"), I)
        assert not radical_member(P("x + 1"), I)
    assert calls == [1, 1, 1]
    for q in ("x", "y", "x + 1"):
        assert radical_member(P(q), I) == reference_radical_member(P(q), I)


def test_radical_member_under_another_order_takes_the_generators_path(monkeypatch):
    # a cached lex basis is not a degrevlex one: it enters as generators,
    # with no known basis, as it did before the known-basis entry
    I = Ideal([P("x^2 - y"), P("y^3 - z")], LEX).groebner()
    seen = []

    def spying(gens, pk, field, known=()):
        seen.append((len(gens), len(known)))
        return core(gens, pk, field, known)

    core = groebner._groebner
    monkeypatch.setattr(groebner, "_groebner", spying)
    assert radical_member(P("x"), I) == reference_radical_member(P("x"), I) is False
    assert radical_member(P("x^6 - z"), I) == reference_radical_member(P("x^6 - z"), I) is True
    assert seen == [(len(I.cached_basis) + 1, 0)] * 2
    J = Ideal(I.generators).groebner()
    seen.clear()
    assert radical_member(P("x^6 - z"), J)
    assert seen == [(1, len(J.cached_basis))]


def test_shear_colon_ideals_build_no_polynomial_product(monkeypatch):
    # the colon path stays packed from the first intersection to the ideals
    # it returns: no Polynomial product and no extension by a tag variable
    fs = [P(e, FOUR) for e in ("x*(z+2*t)", "x*(z-2*t)", "y*z", "y*t")]
    want = {E: [str(g) for g in J.generators] for E, J in colon_ideals(fs, len(fs)).items()}

    def refuse(*args):
        raise AssertionError("a Polynomial product on the colon path")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    monkeypatch.setattr(Polynomial, "extend_vars", refuse)
    got = colon_ideals(fs, len(fs))
    monkeypatch.undo()
    assert {E: [str(g) for g in J.generators] for E, J in got.items()} == want
