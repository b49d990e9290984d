"""The sparse truncated-product and quotient kernels against naive references.

The references are plain loops: a pairwise product that tests every pair
against the degree cap and adds with the field's own operations (also on
degree-keyed dicts, the y-slices of Weierstrass division, with their
inclusive cap), a series inverse by Newton doubling over that product, a
shear expanded term by term from repeated products, and an
evaluation that multiplies out every term.  They live here only, as
oracles.
"""

import gc
import random
import tracemalloc
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from madic import (
    LinearChange, MadicError, Polynomial, PrecisionError, PrimeField, QQ, SeriesVector,
    TruncatedSeries, evaluate,
)
from madic import series
from madic.fields import exact_form, field_terms
from madic.series import mul_terms, quotient_numerators
from helpers import budget

XY = ("x", "y")

# small primes make sums cancel to 0; 32003 is the benchmark's prime
FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(32003)]
PRIMES = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157]
DENOMINATORS = [1, 2, 3, 4, 6, 8, 9, 12, 16, 27, 36] + PRIMES


# -- naive references ---------------------------------------------------


def naive_mul_terms(a, b, field, cap):
    """Every pair, tested against the cap, added with field operations."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if isinstance(ea, int):
                e, deg = ea + eb, ea + eb
            else:
                e = tuple(x + y for x, y in zip(ea, eb))
                deg = sum(e)
            if deg >= cap:
                continue
            out[e] = field.add(out.get(e, field.zero()), field.mul(ca, cb))
    return {e: c for e, c in out.items() if not field.is_zero(c)}


def kernel_mul(a, b, field, cap):
    """`mul_terms` on the exact forms of term dicts of field elements (a
    square, `a is b`, stays one), read back as field elements."""
    a_nums, a_den = exact_form(field, a)
    b_nums, b_den = (a_nums, a_den) if a is b else exact_form(field, b)
    return field_terms(field, mul_terms(a_nums, b_nums, field, cap).items(), a_den * b_den)


def naive_mul(a, b):
    prec = min(a.precision, b.precision)
    return TruncatedSeries(a.field, a.vars, prec, naive_mul_terms(a.terms, b.terms, a.field, prec))


def naive_add(a, b, field):
    out = dict(a)
    for e, c in b.items():
        out[e] = field.add(out.get(e, field.zero()), c)
    return {e: c for e, c in out.items() if not field.is_zero(c)}


def naive_pow(terms, n, field, cap, nvars):
    out = {(0,) * nvars: field.one()}
    for _ in range(n):
        out = naive_mul_terms(out, terms, field, cap)
    return out


def quotient_terms(a, w, field, cap):
    """a / w below cap for term dicts of field elements, read back as field
    elements after checking the form: the kernel's on degree keys, and on
    exponent tuples (1-tuples in one variable, pairs in two) that of
    `TruncatedSeries.over`, the inverse's when a is None."""
    key = next(iter(w), 0)
    if isinstance(key, tuple):
        vars = XY[: len(key)]
        w = TruncatedSeries(field, vars, cap, w)
        q = w.inverse() if a is None else TruncatedSeries(field, vars, cap, a).over(w)
        nums, den, terms = q.nums, q.den, q.terms
    else:
        a = {0: 1} if a is None else a
        nums, den = quotient_numerators(*exact_form(field, a), *exact_form(field, w), field, cap)
        terms = field_terms(field, nums.items(), den)
    assert den > 0 and gcd(den, *nums.values()) == 1 and all(nums.values())
    return terms


def inverse_terms(terms, field, cap):
    """The inverse of a term dict of field elements below cap, by
    `quotient_terms`: the kernel's quotient of 1 by it on degree keys,
    `TruncatedSeries.inverse` on exponent tuples."""
    return quotient_terms(None, terms, field, cap)


def newton_inverse_terms(terms, field, cap):
    """The inverse to degree < cap by Newton doubling, inv <- inv (2 - a inv)
    at precisions 1, 2, 4, ..., cap, with the pairwise product."""
    key = next(iter(terms))
    zero = (0,) * len(key) if isinstance(key, tuple) else 0
    two = {zero: field.convert(2)}
    inv = {zero: field.inv(terms[zero])}
    prec = 1
    while prec < cap:
        prec = min(2 * prec, cap)
        product = naive_mul_terms(terms, inv, field, prec)
        correction = naive_add(two, {e: field.neg(c) for e, c in product.items()}, field)
        inv = naive_mul_terms(inv, correction, field, prec)
    return inv


def naive_apply_series(change, s):
    """Each term c x^i y^j becomes c (x + lam y)^i y^j, by repeated products."""
    f, N = s.field, s.precision
    x_img = {(1, 0): f.one(), (0, 1): change.lam}
    out = {}
    for (i, j), coeff in s.terms.items():
        term = naive_mul_terms(naive_pow(x_img, i, f, N, 2), {(0, j): coeff}, f, N)
        out = naive_add(out, term, f)
    return TruncatedSeries(f, s.vars, N, out)


def naive_evaluate(poly, zbar, assignment):
    f, N, svars = zbar.field, zbar.precision, zbar.vars
    images = {}
    for k, v in enumerate(svars):
        e = [0] * len(svars)
        e[k] = 1
        images[v] = {tuple(e): f.one()}
    for v, idx in assignment.items():
        images[v] = zbar[idx].terms
    out = {}
    for e, c in poly.terms.items():
        term = {(0,) * len(svars): c}
        for v, x in zip(poly.vars, e):
            term = naive_mul_terms(term, naive_pow(images[v], x, f, N, len(svars)), f, N)
        out = naive_add(out, term, f)
    return TruncatedSeries(f, svars, N, out)


# -- strategies -----------------------------------------------------------


def coefficients(field):
    if field == QQ:
        return st.builds(
            Fraction, st.integers(-50, 50), st.sampled_from(DENOMINATORS)
        )
    return st.integers(0, field.p - 1)


@st.composite
def term_dicts(draw, field, nvars, maxdeg, max_terms=12):
    if nvars == 0:  # degree keys, as in a Weierstrass y-slice
        keys = st.integers(0, maxdeg)
    else:
        keys = st.tuples(*[st.integers(0, maxdeg)] * nvars)
    return draw(st.dictionaries(keys, coefficients(field), max_size=max_terms))


@st.composite
def series_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.sampled_from([1, 2]))
    vars = XY[:nvars]
    pa, pb = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    a = TruncatedSeries(field, vars, pa, draw(term_dicts(field, nvars, 13)))
    b = TruncatedSeries(field, vars, pb, draw(term_dicts(field, nvars, 13)))
    return a, b


@st.composite
def shears(draw, field):
    """x -> x + lam y, with a rational lam over the denominators 2, 3, 5, 7."""
    if field == QQ:
        lam = draw(st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 2, 3, 5, 7])))
    else:
        lam = draw(coefficients(field))
    return LinearChange(lam, field)


# -- products -------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(series_pairs())
def test_series_product_matches_pairwise_loop(pair):
    a, b = pair
    expected = naive_mul(a, b)
    assert a * b == expected
    assert b * a == expected
    assert (a * b).precision == min(a.precision, b.precision)


@settings(max_examples=100, deadline=None)
@given(series_pairs())
def test_fraction_and_integer_accumulation_agree(pair):
    # the numerators' product over the product of the denominators is the
    # pairwise loop's product of Fractions
    a, b = pair
    assert a * b == naive_mul(a, b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_degree_keyed_product_keeps_inclusive_cap(data):
    field = data.draw(st.sampled_from(FIELDS))
    ycap = data.draw(st.integers(0, 12))
    a = data.draw(term_dicts(field, 0, ycap + 3))
    b = data.draw(term_dicts(field, 0, ycap + 3))
    got = kernel_mul(a, b, field, ycap + 1)
    assert got == naive_mul_terms(a, b, field, ycap + 1)
    assert all(k <= ycap for k in got)


def test_empty_and_out_of_range_operands():
    F = PrimeField(5)
    assert mul_terms({}, {(1,): 2}, F, 4) == {}
    assert mul_terms({(1,): 2}, {}, F, 4) == {}
    # every pair at or above the cap
    assert mul_terms({(4,): 2}, {(0,): 1}, F, 4) == {}
    assert mul_terms({(2, 1): 2}, {(1, 0): 3}, F, 4) == {}
    # 2 * 3 = 1 and (1 + x)(1 + 4x) = 1 + 5x + 4x^2 = 1 + 4x^2 over GF(5)
    assert mul_terms({(0,): 2}, {(0,): 3}, F, 4) == {(0,): 1}
    assert mul_terms({(0,): 1, (1,): 1}, {(0,): 1, (1,): 4}, F, 4) == {(0,): 1, (2,): 4}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_term_operand_shifts_and_scales(data):
    # one operand of one term, possibly with a zero coefficient, on every
    # kind of key: degrees and 1-, 2- and 3-tuples
    field = data.draw(st.sampled_from(FIELDS))
    nvars = data.draw(st.sampled_from([0, 1, 2, 3]))
    cap = data.draw(st.integers(1, 10))
    a = data.draw(term_dicts(field, nvars, cap + 2, max_terms=1).filter(bool))
    b = data.draw(term_dicts(field, nvars, cap + 2))
    expected = naive_mul_terms(a, b, field, cap)
    assert kernel_mul(a, b, field, cap) == expected
    assert kernel_mul(b, a, field, cap) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_three_variable_product_below_its_full_degree(data):
    # exponent triples pack in base cap like pairs; a cap below the full
    # product's degree keeps exactly the pairwise loop's low terms
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(term_dicts(field, 3, 4).filter(lambda t: len(t) > 1))
    b = data.draw(term_dicts(field, 3, 4).filter(lambda t: len(t) > 1))
    full = max(map(sum, a)) + max(map(sum, b))
    cap = data.draw(st.integers(1, full))
    got = kernel_mul(a, b, field, cap)
    assert got == naive_mul_terms(a, b, field, cap)
    assert all(sum(e) < cap for e in got)


@settings(max_examples=150, deadline=None)
@given(series_pairs(), st.integers(0, 7))
def test_series_power_matches_repeated_products(pair, n):
    s = pair[0]
    expected = naive_pow(s.terms, n, s.field, s.precision, len(s.vars))
    assert s ** n == TruncatedSeries(s.field, s.vars, s.precision, expected)


def test_distinct_prime_denominators_accumulate_fractions():
    # numerators over an lcm of 120 distinct primes, and over the small
    # shared denominator 6
    primes = [p for p in range(1000, 3000) if all(p % d for d in range(2, 46))]
    a = {(i,): Fraction(i + 1, primes[i]) for i in range(120)}
    b = {(i,): Fraction(1 - i, primes[120 + i]) for i in range(120)}
    assert kernel_mul(a, b, QQ, 120) == naive_mul_terms(a, b, QQ, 120)
    c = {(i,): Fraction(2 * i - 7, 6) for i in range(40)}
    assert kernel_mul(a, c, QQ, 120) == naive_mul_terms(a, c, QQ, 120)
    assert kernel_mul(c, a, QQ, 120) == naive_mul_terms(c, a, QQ, 120)


def test_shared_denominator_is_exact():
    coeffs = [Fraction(1, 6), Fraction(-5, 4), Fraction(7, 9), Fraction(3)]
    nums, den = exact_form(QQ, dict(enumerate(coeffs)))
    assert den == 36
    assert [Fraction(nums[i], den) for i in range(len(coeffs))] == coeffs


# -- dense products -------------------------------------------------------

# over GF(2^31 - 1) a slot would need 31 + 31 + bits(terms) > 64 bits, so
# its products stay pairwise
WIDE = PrimeField(2**31 - 1)


@st.composite
def dense_operands(draw, field, min_terms=32, max_terms=160, gaps=(1, 2)):
    """A univariate term dict of min_terms..max_terms terms, keyed by degrees
    or 1-tuples, from a lowest degree of 0..20, with the step between
    consecutive degrees drawn from `gaps`.  Coefficients are p - 1
    throughout, random residues, or a mix; over QQ, small Fractions."""
    n = draw(st.integers(min_terms, max_terms))
    low = draw(st.integers(0, 20))
    rng = random.Random(draw(st.integers(0, 2**32)))
    mode = draw(st.sampled_from(["top", "random", "mixed"]))
    degs = [low]
    for _ in range(n - 1):
        degs.append(degs[-1] + rng.choice(gaps))
    if field == QQ:
        coeffs = [Fraction(rng.randint(-99, 99), rng.choice([1, 2, 3, 6])) for _ in degs]
    else:
        top = field.p - 1
        pick = {"top": lambda: top, "random": lambda: rng.randrange(field.p),
                "mixed": lambda: rng.choice([top, rng.randrange(field.p)])}[mode]
        coeffs = [pick() for _ in degs]
    if draw(st.booleans()):
        return dict(zip(degs, coeffs))
    return {(d,): c for d, c in zip(degs, coeffs)}


def same_kind(a, b):
    """b re-keyed like a (degrees or 1-tuples)."""
    if isinstance(next(iter(a)), int):
        return {(k if isinstance(k, int) else k[0]): c for k, c in b.items()}
    return {((k,) if isinstance(k, int) else k): c for k, c in b.items()}


def max_degree(terms):
    return max(k if isinstance(k, int) else k[0] for k in terms)


def slot_products(monkeypatch):
    """A list that records, for each call of the slot path, whether it
    took the product (True) or fell back to the pairwise loop (False)."""
    taken = []
    real = series._slot_product

    def recording(*args):
        out = real(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(series, "_slot_product", recording)
    return taken


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dense_product_matches_pairwise_loop(data):
    # residues p - 1 make the largest slot sums; GF(2) and GF(3) make sums
    # cancel; caps run from below the sum of lowest degrees (no term) past
    # the full product; gaps and a lowest degree above 0 shift the slots
    field = data.draw(st.sampled_from([PrimeField(32003), PrimeField(2), PrimeField(3)]))
    # steps of 1 or 8 put the span on either side of _SLOT_SPAN slots a term
    gaps = data.draw(st.sampled_from([(1,), (1, 2), (1, 2, 3, 4), (1, 8)]))
    a = data.draw(dense_operands(field, gaps=gaps))
    b = same_kind(a, data.draw(dense_operands(field, gaps=gaps)))
    cap = data.draw(st.integers(0, 2 * max(map(max_degree, (a, b))) + 2))
    expected = naive_mul_terms(a, b, field, cap)
    assert mul_terms(a, b, field, cap) == expected
    assert mul_terms(b, a, field, cap) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dense_square_matches_pairwise_loop(data):
    field = data.draw(st.sampled_from([PrimeField(32003), PrimeField(2), QQ]))
    a = data.draw(dense_operands(field, max_terms=64 if field == QQ else 160))
    cap = data.draw(st.integers(1, 2 * max_degree(a) + 2))
    assert kernel_mul(a, a, field, cap) == naive_mul_terms(a, a, field, cap)
    s = TruncatedSeries(field, ("x",), cap, same_kind({(0,): 1}, a))
    assert s * s == naive_mul(s, s)
    assert s ** 2 == s * s


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_square_equals_the_product_with_a_copy(data):
    # `a is b` pairs each term only with those after it, doubled; a copy
    # takes the loop over every pair: both keep the same terms below cap
    field = data.draw(st.sampled_from(FIELDS))
    nvars = data.draw(st.sampled_from([0, 1, 2]))
    a = data.draw(term_dicts(field, nvars, 13, max_terms=40))
    cap = data.draw(st.integers(0, 28))
    expected = naive_mul_terms(a, a, field, cap)
    assert kernel_mul(a, a, field, cap) == kernel_mul(a, dict(a), field, cap) == expected
    if nvars:
        s = TruncatedSeries(field, XY[:nvars], max(cap, 1), a)
        assert s * s == s * TruncatedSeries(field, s.vars, s.precision, a)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_dense_product_past_64_bit_slots_falls_back(data):
    # 31 + 31 + bits(128) = 70 bits: the pairwise loop, with the same result
    a = data.draw(dense_operands(WIDE, min_terms=128, max_terms=128))
    b = same_kind(a, data.draw(dense_operands(WIDE, min_terms=128, max_terms=128)))
    cap = data.draw(st.integers(1, 300))
    assert mul_terms(a, b, WIDE, cap) == naive_mul_terms(a, b, WIDE, cap)


def test_dense_product_with_a_cap_below_both_operands(monkeypatch):
    F = PrimeField(32003)
    taken = slot_products(monkeypatch)
    a = {(i,): F.p - 1 - i for i in range(3, 99)}
    b = {(i,): 2 * i + 1 for i in range(5, 120)}
    # from cap 37 both operands keep 32 terms below it
    for cap in (9, 36, 37, 50, 97):
        assert mul_terms(a, b, F, cap) == naive_mul_terms(a, b, F, cap)
    assert taken == [True] * 3
    # lowest degrees 40 and 40: from cap 72 both keep 32 terms, and up to
    # cap 80 no degree of the product is below it
    c = {(i,): F.p - 1 for i in range(40, 140)}
    for cap in (72, 80):
        assert mul_terms(c, c, F, cap) == {}
        assert mul_terms(c, b, F, cap) == naive_mul_terms(c, b, F, cap)
    assert taken[3:] == [True] * 4


def test_dense_gf_product_takes_the_slot_path(monkeypatch):
    F = PrimeField(32003)
    taken = slot_products(monkeypatch)
    n = series._SLOT_MIN_TERMS
    a = {(i,): (7 * i + 1) % F.p for i in range(n)}
    b = {(i + 3,): F.p - 1 for i in range(n)}
    assert mul_terms(a, b, F, 2 * n) == naive_mul_terms(a, b, F, 2 * n)
    assert mul_terms(a, a, F, 2 * n) == naive_mul_terms(a, a, F, 2 * n)
    assert taken == [True, True]
    # one term fewer, or a term in only every fifth slot, stays pairwise
    short = {(i,): 1 for i in range(n - 1)}
    sparse = {(5 * i,): 1 for i in range(n)}
    assert mul_terms(short, b, F, 2 * n) == naive_mul_terms(short, b, F, 2 * n)
    assert mul_terms(sparse, b, F, 8 * n) == naive_mul_terms(sparse, b, F, 8 * n)
    assert taken == [True, True, False]
    # over GF(2^31 - 1) a slot would need 31 + 31 + 6 bits
    big = {(i,): WIDE.p - 1 for i in range(n)}
    assert mul_terms(big, big, WIDE, 2 * n) == naive_mul_terms(big, big, WIDE, 2 * n)
    assert taken[-1] is False


@pytest.mark.parametrize("n", [32, 63, 64, 127])
def test_signed_numerators_at_the_64_bit_edge(monkeypatch, n):
    # bits(|a|) + bits(|b|) + bits(n) + 1 = 64 packs (the slot sums reach
    # -n * (2^ka - 1)(2^kb - 1), just above -2^63); one bit more stays pairwise
    taken = slot_products(monkeypatch)
    room = 63 - n.bit_length()
    for ka, expect in ((room // 2, True), (room // 2 + 1, False)):
        kb = room - room // 2
        top_a, top_b = 2**ka - 1, 2**kb - 1
        a = {(i,): Fraction(-top_a if i % 5 else top_a - i) for i in range(n)}
        b = {(i,): Fraction(top_b if i % 3 else -top_b, 1) for i in range(n)}
        for cap in (n, 2 * n):
            assert kernel_mul(a, b, QQ, cap) == naive_mul_terms(a, b, QQ, cap)
        assert kernel_mul(a, a, QQ, n) == naive_mul_terms(a, a, QQ, n)
        assert taken[-3:] == [expect] * 3
    # numerators over 3: their product is over 3^2
    c = {(i,): Fraction(-(2**20) + i, 3) for i in range(n)}
    assert kernel_mul(c, c, QQ, 2 * n) == naive_mul_terms(c, c, QQ, 2 * n)
    assert taken[-1] is True


# -- inverses -------------------------------------------------------------


@st.composite
def units(draw, field=None):
    """(field, terms, cap): a unit with degree keys, 1-tuples or 2-tuples
    below a precision of at most 12, dense (a coefficient, maybe zero, for
    every key), sparse (one or two terms besides the constant) or
    constant, and a cap at most that precision."""
    field = field or draw(st.sampled_from(FIELDS))
    nvars = draw(st.sampled_from([0, 1, 2]))
    prec = draw(st.integers(1, 12))
    cap = draw(st.integers(1, prec))
    kind = draw(st.sampled_from(["dense", "sparse", "constant"]))
    if nvars == 0:
        keys = list(range(prec))
        zero = 0
    elif nvars == 1:
        keys = [(i,) for i in range(prec)]
        zero = (0,)
    else:
        keys = [(i, d - i) for d in range(prec) for i in range(d + 1)]
        zero = (0, 0)
    coeff = coefficients(field)
    if kind == "dense":
        terms = {k: draw(coeff) for k in keys}
    elif kind == "sparse":
        terms = draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=2))
    else:
        terms = {}
    terms[zero] = draw(coeff.filter(lambda c: not field.is_zero(c)))
    return field, terms, cap


@settings(max_examples=300, deadline=None)
@given(units())
def test_inverse_matches_newton_doubling(case):
    field, terms, cap = case
    assert inverse_terms(terms, field, cap) == newton_inverse_terms(terms, field, cap)


@settings(max_examples=100, deadline=None)
@given(units(QQ))
def test_inverse_fraction_and_integer_accumulation_agree(case):
    # the recurrence on numerators gives Newton's inverse over Fractions
    field, terms, cap = case
    assert inverse_terms(terms, field, cap) == newton_inverse_terms(terms, field, cap)


@settings(max_examples=100, deadline=None)
@given(units())
def test_series_inverse_wraps_the_kernel_at_any_precision(case):
    field, terms, cap = case
    key = next(iter(terms))
    if not isinstance(key, tuple):
        terms = {(e,): c for e, c in terms.items()}
    vars = XY[: len(next(iter(terms)))]
    u = TruncatedSeries(field, vars, 12, terms)
    got = u.inverse(cap)
    assert got.precision == cap
    assert got.terms == newton_inverse_terms(terms, field, cap)
    assert u.truncate(cap) * got == TruncatedSeries.constant(1, vars, cap, field)
    with pytest.raises(PrecisionError):
        u.inverse(13)


def test_inverse_over_distinct_prime_denominators_sums_fractions():
    primes = [p for p in range(1000, 3000) if all(p % d for d in range(2, 46))]
    u = {(0,): Fraction(3, 7), **{(i,): Fraction(i + 1, primes[i]) for i in range(1, 90)}}
    assert inverse_terms(u, QQ, 90) == newton_inverse_terms(u, QQ, 90)
    keys = [(i, d - i) for d in range(1, 13) for i in range(d + 1)]
    v = {(0, 0): Fraction(-5, 2)}
    v.update((k, Fraction(n % 5 + 1, p)) for n, (k, p) in enumerate(zip(keys, primes)))
    assert inverse_terms(v, QQ, 13) == newton_inverse_terms(v, QQ, 13)


def test_inverse_of_a_sparse_unit_at_long_precision():
    # 1/(1 + c x^k) = sum (-c)^j x^(jk): a unit of t terms costs at most 4t
    # products per output term, so a binomial inverts at precision 20000 at
    # once, also given to the series as 1-tuples, which it keys by degree
    F, k, c, cap = PrimeField(32003), 3, 5, 20000
    expected = {j * k: pow(-c, j, F.p) for j in range((cap + k - 1) // k)}
    assert inverse_terms({0: 1, k: c}, F, cap) == expected
    assert inverse_terms({(0,): 1, (k,): c}, F, cap) == {(e,): v for e, v in expected.items()}
    assert inverse_terms({(0, 0): Fraction(2, 3)}, QQ, 10**6) == {(0, 0): Fraction(3, 2)}


@pytest.mark.parametrize("field", [PrimeField(32003), QQ])
def test_a_sparse_bivariate_unit_inverts_at_precision_1000_within_five_seconds(field):
    # 1/(1 + 5x^3) = sum (-5)^j x^(3j) in k[[x, y]], by Weierstrass division
    # at r = 0, in bounded time and memory under tracemalloc (a kernel table
    # of about 4 cap^2 slots took 27 s and a 32 MB peak under it)
    N = 1000
    u = TruncatedSeries(field, XY, N, {(0, 0): 1, (3, 0): 5})
    tracemalloc.start()
    try:
        with budget(5):
            inverse = u.inverse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert inverse.terms == {(3 * j, 0): field.convert((-5) ** j) for j in range((N + 2) // 3)}


def test_inverse_of_a_non_unit_raises():
    for terms in ({}, {1: 3}, {(0,): 0, (1,): 1}, {(1, 0): Fraction(1, 2)}):
        with pytest.raises(MadicError, match="not a unit"):
            inverse_terms(terms, QQ, 5)


# -- quotients ------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(units(), st.data())
def test_quotient_is_the_product_by_the_inverse(case, data):
    # a / w, in one recurrence on degree keys and by `TruncatedSeries.over`
    # on exponent tuples, equals a * w^-1 cut below cap, for a of any order
    # (its first exponent raised by 0-4) and units of one term or more
    field, w, cap = case
    key = next(iter(w))
    nvars = len(key) if isinstance(key, tuple) else 0
    shift = data.draw(st.integers(0, 4))
    a = data.draw(term_dicts(field, nvars, 10))
    a = {
        (k + shift if nvars == 0 else (k[0] + shift,) + k[1:]): c
        for k, c in a.items() if not field.is_zero(c)
    }
    expected = naive_mul_terms(a, newton_inverse_terms(w, field, cap), field, cap)
    assert quotient_terms(a, w, field, cap) == expected


@settings(max_examples=100, deadline=None)
@given(series_pairs(), units())
def test_series_over_is_the_product_by_the_inverse(pair, case):
    a, _ = pair
    field, w, _ = case
    if not isinstance(next(iter(w)), tuple) or len(next(iter(w))) != len(a.vars) or field != a.field:
        w = {(0,) * len(a.vars): a.field.one()}
    w = TruncatedSeries(a.field, a.vars, 12, w)
    assert a.over(w) == a * w.inverse()
    cap = min(a.precision, w.precision)
    assert a.over(w, cap) == a * w.inverse()
    with pytest.raises(PrecisionError):
        a.over(w, cap + 1)


def test_quotient_by_a_non_unit_raises():
    for w, one in (({}, {0: 1}), ({1: 3}, {0: 1}), ({(0,): 0, (1,): 1}, {(0,): 1}), ({(1, 0): 1}, {(0, 0): 1})):
        with pytest.raises(MadicError, match="not a unit"):
            quotient_terms(one, w, QQ, 5)


# -- the recurrence on degree lists -----------------------------------------


@st.composite
def univariate_quotients(draw):
    """(field, a, w, cap): a of order 0-6 and a unit w, dense or sparse,
    with degree keys up to cap + 3, so that w often has terms at or past
    cap - ord a, which never enter the quotient."""
    field = draw(st.sampled_from(FIELDS))
    cap = draw(st.integers(1, 16))
    coeff = coefficients(field)
    degrees = st.integers(1, cap + 3)
    if draw(st.booleans()):
        w = {d: draw(coeff) for d in range(1, draw(degrees) + 1)}
    else:
        w = draw(st.dictionaries(degrees, coeff, max_size=3))
    w[0] = draw(coeff.filter(lambda c: not field.is_zero(c)))
    low = draw(st.integers(0, 6))
    a = {low + e: c for e, c in draw(term_dicts(field, 0, cap)).items() if not field.is_zero(c)}
    return field, a, w, cap


@settings(max_examples=300, deadline=None)
@given(univariate_quotients())
def test_list_arm_matches_the_product_by_newton_inverse(case):
    field, a, w, cap = case
    expected = naive_mul_terms(a, newton_inverse_terms(w, field, cap), field, cap)
    assert quotient_terms(a, w, field, cap) == expected


def test_list_arm_over_qq_with_a_negative_unit_term_and_shared_denominators():
    # a over 12 and w over 20 share 4, w_0 < 0, and w has terms of degree
    # cap - ord a - 1 (the last to enter), cap - ord a and cap, which do not
    F = Fraction
    for cap in (4, 9, 20):
        a = {2: F(1, 6), 3: F(-5, 4), 7: F(7, 3), 8: F(1, 12)}
        w = {0: F(-3, 10), 1: F(7, 4), 2: F(-1, 5), cap - 3: F(9, 20), cap - 2: F(3, 4), cap: F(11, 5)}
        assert exact_form(QQ, a)[1] == 12 and exact_form(QQ, w)[1] == 20
        expected = naive_mul_terms(a, newton_inverse_terms(w, QQ, cap), QQ, cap)
        assert quotient_terms(a, w, QQ, cap) == expected


def test_list_arm_over_gf2():
    # 1/(1 + x + x^2) = (1 + x)/(1 + x^3) over GF(2): the powers x^d with
    # d % 3 != 2; it divides x^3 + x^4 + x^5 exactly; 1/(1 + x) is every power
    F, cap = PrimeField(2), 30
    assert quotient_terms({0: 1}, {0: 1, 1: 1, 2: 1}, F, cap) == {
        d: 1 for d in range(cap) if d % 3 != 2
    }
    assert quotient_terms({3: 1, 4: 1, 5: 1}, {0: 1, 1: 1, 2: 1}, F, cap) == {3: 1}
    assert quotient_terms({0: 1}, {0: 1, 1: 1}, F, cap) == {d: 1 for d in range(cap)}


@pytest.mark.parametrize("k", [3, 40, 10000])
def test_a_binomial_unit_of_any_degree_costs_a_few_products_per_term(monkeypatch, k):
    # 1/(1 + c x^k) = sum (-c)^j x^(jk).  A unit of t terms and degree D
    # costs at most D products per output term when it is dense (D <= 4t:
    # one dot product over the D terms before it), else t, so the count
    # grows with cap and not with cap * k, nor with cap times the terms
    # computed so far
    F, c, cap = PrimeField(32003), 5, 20000
    expected = {j * k: pow(-c, j, F.p) for j in range((cap + k - 1) // k)}
    assert quotient_terms({0: 1}, {0: 1, k: c}, F, cap) == expected
    products = []
    monkeypatch.setattr(series, "mul", lambda x, y: products.append(1) or x * y)
    for cap in (k + 1000, k + 2000):
        del products[:]
        quotient_numerators({0: 1}, 1, {0: 1, k: c}, 1, F, cap)
        assert len(products) == (k * cap - k * (k + 1) // 2 if k <= 4 else cap)


def test_a_dense_unit_costs_at_most_four_products_per_unit_term(monkeypatch):
    # t = 2 terms past w_0 up to degree 5 <= 4t: each term is one dot
    # product of the (at most) 5 before it; with x^9 added (t = 3, 9 <= 12)
    # of the 9 before it; with x^13 instead (13 > 12) each term reads only
    # the 3 that w's terms reach.  Over QQ the same counts hold, and the
    # quotient is the Newton inverse
    products = []
    monkeypatch.setattr(series, "mul", lambda x, y: products.append(1) or x * y)
    cap = 300
    dense = {5: 5 * cap - 15, 9: 9 * cap - 45}  # D products a term, fewer for the first D
    for w, count in (
        ({0: 1, 1: 2, 5: 3}, dense[5]),
        ({0: 1, 1: 2, 5: 3, 9: 1}, dense[9]),
        ({0: 1, 1: 2, 5: 3, 13: 1}, 3 * cap),
    ):
        for field in (PrimeField(32003), QQ):
            del products[:]
            quotient_numerators({0: 1}, 1, w, 1, field, cap)
            assert len(products) == count
    monkeypatch.undo()
    w = {0: Fraction(-2, 3), 1: 2, 5: 3, 13: Fraction(1, 7)}
    assert quotient_terms({0: 1}, w, QQ, 40) == newton_inverse_terms(w, QQ, 40)


# -- linear changes -----------------------------------------------------------


@st.composite
def change_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    N = draw(st.integers(1, 9))
    s = TruncatedSeries(field, XY, N, draw(term_dicts(field, 2, N - 1, max_terms=10)))
    return draw(shears(field)), s


@settings(max_examples=150, deadline=None)
@given(change_cases())
def test_apply_series_matches_term_by_term_expansion(case):
    change, s = case
    out = change.apply_series(s)
    assert out == naive_apply_series(change, s)
    inverse = change.inverse()
    assert inverse.apply_series(out) == s
    assert inverse.inverse() is change and change.inverse() is inverse
    if change.is_identity():
        assert out == s
    identity = LinearChange(0, s.field)
    assert identity.is_identity() and identity.apply_series(s) == s


@settings(max_examples=30, deadline=None)
@given(change_cases())
def test_apply_series_fraction_accumulation(case):
    change, s = case
    assert change.apply_series(s) == naive_apply_series(change, s)


# -- evaluation -------------------------------------------------------------


@st.composite
def evaluation_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.sampled_from([1, 2]))
    svars = XY[:nvars]
    N = draw(st.integers(1, 10))
    unknowns = ("z", "w")
    vars = svars + unknowns
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * len(vars)), coefficients(field), max_size=8
        )
    )
    poly = Polynomial(field, vars, terms)
    entries = [
        TruncatedSeries(field, svars, N, draw(term_dicts(field, nvars, N - 1, max_terms=6)))
        for _ in unknowns
    ]
    return poly, SeriesVector(entries), {"z": 0, "w": 1}


@settings(max_examples=150, deadline=None)
@given(evaluation_cases())
def test_evaluate_matches_term_by_term_loop(case):
    poly, zbar, assignment = case
    assert evaluate(poly, zbar, assignment) == naive_evaluate(poly, zbar, assignment)


def test_evaluate_converts_coefficients_into_the_vector_field():
    F = PrimeField(7)
    poly = Polynomial(QQ, ("x", "z"), {(0, 0): Fraction(1, 2), (1, 1): Fraction(3)})
    z = TruncatedSeries(F, ("x",), 5, {(0,): 1, (2,): 6})
    # 1/2 = 4 in GF(7); 3*x*(1 + 6x^2) = 3x + 4x^3
    expected = TruncatedSeries(F, ("x",), 5, {(0,): 4, (1,): 3, (3,): 4})
    assert evaluate(poly, SeriesVector([z]), {"z": 0}) == expected


# -- order pruning ------------------------------------------------------------


@st.composite
def pruning_cases(draw):
    # coordinates of positive order or zero to precision, and exponents on
    # the unknowns large enough that sum x * ord reaches N
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.sampled_from([1, 2]))
    svars = XY[:nvars]
    N = draw(st.integers(2, 12))
    unknowns = ("z", "w", "v")
    entries = []
    for _ in unknowns:
        order = min(N, draw(st.sampled_from([1, 1, 2, 3, N])))
        terms = {}
        if order < N:  # else the coordinate is zero to precision
            degs = st.integers(order, N - 1)
            if nvars == 1:
                keys = st.builds(lambda d: (d,), degs)
            else:
                keys = degs.flatmap(lambda d: st.builds(lambda i: (i, d - i), st.integers(0, d)))
            terms = draw(st.dictionaries(keys, coefficients(field), max_size=4))
        entries.append(TruncatedSeries(field, svars, N, terms))
    small_or_large = st.sampled_from([0, 0, 0, 1, 1, 2, 3, 5, 8])
    exps = st.tuples(*[st.integers(0, 3)] * nvars, *[small_or_large] * len(unknowns))
    terms = draw(st.dictionaries(exps, coefficients(field), max_size=10))
    poly = Polynomial(field, svars + unknowns, terms)
    return poly, SeriesVector(entries), {u: i for i, u in enumerate(unknowns)}


@settings(max_examples=200, deadline=None)
@given(pruning_cases())
def test_evaluate_prunes_only_terms_of_empty_value(case):
    poly, zbar, assignment = case
    assert evaluate(poly, zbar, assignment) == naive_evaluate(poly, zbar, assignment)


def test_evaluate_makes_no_product_for_pruned_terms():
    F = PrimeField(32003)
    svars, N = ("x", "y"), 8
    z = TruncatedSeries(F, svars, N, {(2, 0): 1, (1, 2): 5})  # order 2
    w = TruncatedSeries(F, svars, N, {(0, 3): 7, (2, 2): 1, (1, 3): 4})  # order 3
    zero = TruncatedSeries.zero(svars, N, F)
    zbar, assignment = SeriesVector([z, w, zero]), {"z": 0, "w": 1, "v": 2}
    vars = svars + ("z", "w", "v")
    # every term has deg(s) + 2 * x_z + 3 * x_w + 8 * x_v >= 8
    pruned = Polynomial(F, vars, {
        (0, 0, 4, 0, 0): 1, (1, 1, 0, 2, 0): 3, (0, 0, 1, 2, 0): 2,
        (0, 2, 3, 0, 0): 5, (0, 0, 0, 0, 1): 4, (7, 1, 0, 0, 0): 6,
    })
    live = Polynomial(F, vars, {(0, 0, 2, 1, 0): 1, (1, 0, 1, 0, 0): 2})
    calls = []
    real = series.mul_terms

    def counting(a, b, field, cap):
        calls.append((a, b))
        return real(a, b, field, cap)

    with mock.patch.object(series, "mul_terms", counting):
        assert evaluate(pruned, zbar, assignment).is_zero()
        assert calls == []
        got = evaluate(pruned + live, zbar, assignment)
    assert calls
    assert got == naive_evaluate(live, zbar, assignment)


def test_evaluate_leaves_no_reference_cycles():
    # a cycle (say, a recursive closure) would keep every cached power and
    # prefix value of a call alive until the cyclic collector runs
    svars, N = ("x",), 12
    z = TruncatedSeries(QQ, svars, N, {(1,): Fraction(1, 2), (3,): 5})
    w = TruncatedSeries(QQ, svars, N, {(2,): 3, (4,): Fraction(-2, 3)})
    vars = svars + ("z", "w")
    terms = {(i, a, b): Fraction(i + 1, a + b + 1) for i in range(3) for a in range(4) for b in range(3)}
    poly = Polynomial(QQ, vars, terms)
    gc.collect()
    gc.disable()
    try:
        evaluate(poly, SeriesVector([z, w]), {"z": 0, "w": 1})
        assert gc.collect() == 0
    finally:
        gc.enable()
