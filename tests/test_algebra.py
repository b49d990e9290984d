"""Polynomial arithmetic, determinants and the parser."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from madic import (
    DomainMismatchError,
    MadicError,
    ParseError,
    Polynomial,
    PrimeField,
    QQ,
    SeriesVector,
    TruncatedSeries,
    determinant,
    evaluate,
    jacobian,
    minors,
    parse_polynomial,
)
from madic.poly import NEG_INF, PolyMatrix
from helpers import exact_div, variable


def P(text, vars=("x", "y", "z")):
    return parse_polynomial(text, vars)


def test_ring_axioms_random():
    rng = random.Random(7)
    vars = ("x", "y")

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return Polynomial(QQ, vars, terms)

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a - a == Polynomial.zero(vars, QQ)


def test_degree_of_zero_is_neg_inf():
    z = Polynomial.zero(("x",), QQ)
    assert z.degree() == NEG_INF
    assert z.is_zero()


def test_diff_product_rule():
    a = P("x^2*y + z")
    b = P("y^3 - x")
    lhs = (a * b).diff("y")
    rhs = a.diff("y") * b + a * b.diff("y")
    assert lhs == rhs


def test_subs_composition():
    f = P("x^2 + y", ("x", "y"))
    g = {"x": P("y + 1", ("x", "y")), "y": P("x", ("x", "y"))}
    out = f.subs(g)
    assert out == P("(y+1)^2 + x", ("x", "y"))


def _naive_subs(p, mapping, tvars, field):
    """Term-by-term expansion: each coefficient times the product of the
    images, one factor at a time, summed into one dict."""

    def mul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = field.add(out.get(e, field.zero()), field.mul(ca, cb))
        return out

    out = {}
    for e, c in p.terms.items():
        term = {(0,) * len(tvars): field.convert(c)}
        for v, x in zip(p.vars, e):
            img = mapping[v].terms if v in mapping else variable(v, tvars, field).terms
            for _ in range(x):
                term = mul(term, img)
        for te, tc in term.items():
            out[te] = field.add(out.get(te, field.zero()), tc)
    return {e: c for e, c in out.items() if not field.is_zero(c)}


def _small_polys(field, vars, max_terms=5):
    if field == QQ:
        coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    else:
        coeff = st.integers(0, field.p - 1)
    exps = st.tuples(*[st.integers(0, 2) for _ in vars])
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: Polynomial(field, vars, terms)
    )


@st.composite
def _subs_cases(draw):
    # source over QQ or GF(7) (whose coefficients convert into the target
    # field), target over the same field or GF(7); x and y may stay
    # unmapped, z is always mapped, and y's image may cancel z's
    target_field = draw(st.sampled_from([QQ, PrimeField(7)]))
    source_field = QQ if target_field == QQ else draw(st.sampled_from([QQ, target_field]))
    source, target = ("x", "y", "z"), ("x", "y", "s", "t")
    p = draw(_small_polys(source_field, source, 6))
    if draw(st.booleans()):
        p = p + Polynomial.constant(draw(st.integers(1, 5)), source, source_field)
    mapping = {"z": draw(_small_polys(target_field, target))}
    for v in ("x", "y"):
        if draw(st.booleans()):
            mapping[v] = draw(_small_polys(target_field, target))
    if draw(st.booleans()):
        mapping["y"] = -mapping["z"]
    return p, mapping, target, target_field


@settings(max_examples=150, deadline=None)
@given(_subs_cases())
def test_subs_matches_naive_expansion(case):
    p, mapping, target, field = case
    out = p.subs(mapping)
    assert out.vars == target and out.field == field
    assert out.terms == _naive_subs(p, mapping, target, field)


def test_subs_contributions_cancel():
    # z -> s + t and y -> -t: the t parts of z and of y cancel
    src, tgt = ("x", "y", "z"), ("x", "y", "s", "t")
    out = P("z + y + x", src).subs({"z": P("s + t", tgt), "y": P("-t", tgt)})
    assert out == P("s + x", tgt)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([QQ, PrimeField(2), PrimeField(3)]),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 6), st.integers(0, 5)),
        st.integers(-9, 9), min_size=1, max_size=6,
    ),
)
def test_hasse_derivatives_sum_to_the_shifted_polynomial(field, terms):
    # degrees up to 6 pass p = 2 and 3, where alpha! vanishes but the
    # binomial coefficients need no division
    f = Polynomial(field, ("x", "u", "v"), {e: field.convert(c) for e, c in terms.items()})
    ext = ("x", "u", "v", "s", "t")
    shifted = Polynomial.zero(ext, field)
    for alpha, t in f.hasse(("u", "v")).items():
        shifted = shifted + t.extend_vars(ext) * Polynomial(field, ext, {(0, 0, 0) + alpha: 1})
    var = {name: variable(name, ext, field) for name in ext}
    assert shifted == f.subs({"u": var["u"] + var["s"], "v": var["v"] + var["t"]})


# -- products, powers and substitution against the pairwise loops ---------


def pairwise_mul(p, q):
    """Every pair of terms, exponents added and coefficients multiplied and
    summed with the field's own operations."""
    f = p.field
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            prev = out.get(e)
            out[e] = f.mul(ca, cb) if prev is None else f.add(prev, f.mul(ca, cb))
    return Polynomial(f, p.vars, out)


def pairwise_pow(p, n):
    """Square-and-multiply over `pairwise_mul`, from the constant 1."""
    out = Polynomial.constant(1, p.vars, p.field)
    base = p
    while n:
        if n & 1:
            out = pairwise_mul(out, base)
        base = pairwise_mul(base, base) if n > 1 else base
        n >>= 1
    return out


def cached_subs(p, mapping):
    """Each term is its coefficient times the powers of the images, one
    factor at a time over `pairwise_mul` and `pairwise_pow`, with each power
    cached per variable; unmapped variables map to themselves."""
    target = next(iter(mapping.values()))
    tvars, field = target.vars, target.field
    images = [
        mapping[v] if v in mapping else variable(v, tvars, field) for v in p.vars
    ]
    out = {}
    cache = [{} for _ in p.vars]
    for e, c in p.terms.items():
        term = Polynomial.constant(c, tvars, field)
        for i, x in enumerate(e):
            if x:
                if x not in cache[i]:
                    cache[i][x] = pairwise_pow(images[i], x)
                term = pairwise_mul(term, cache[i][x])
        for te, tc in term.terms.items():
            out[te] = field.add(out[te], tc) if te in out else tc
    return Polynomial(field, tvars, out)


KERNEL_FIELDS = [QQ, PrimeField(2), PrimeField(32003), PrimeField(2**31 - 1)]
NAMES = ("a", "b", "c", "d", "e")
# distinct prime denominators, whose lcm outgrows each of them
PRIMES = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157]


def kernel_coefficients(field, kind):
    if field != QQ:
        return st.integers(0, field.p - 1)
    if kind == "int":
        return st.integers(-9, 9)
    if kind == "small":
        return st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6]))
    return st.builds(Fraction, st.integers(-9, 9), st.sampled_from(PRIMES))


@st.composite
def kernel_polys(draw, field, vars, kind, max_terms=6):
    coeffs = kernel_coefficients(field, kind)
    if len(vars) == 1 and draw(st.booleans()):
        # dense enough for the 64-bit slot path
        dense = draw(st.lists(coeffs, min_size=32, max_size=40))
        return Polynomial(field, vars, {(i,): c for i, c in enumerate(dense)})
    exps = st.tuples(*[st.integers(0, 3)] * len(vars))
    return Polynomial(field, vars, draw(st.dictionaries(exps, coeffs, max_size=max_terms)))


@st.composite
def kernel_cases(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    kind = draw(st.sampled_from(["int", "small", "primes"])) if field == QQ else None
    vars = NAMES[: draw(st.sampled_from([0, 1, 2, 3, 5]))]
    p = draw(kernel_polys(field, vars, kind))
    if draw(st.booleans()):  # a constant term, or a constant polynomial
        p = p + Polynomial.constant(draw(st.integers(1, 5)), vars, field)
    q = draw(kernel_polys(field, vars, kind))
    return p, q


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
def test_product_matches_pairwise_loop(case):
    p, q = case
    assert (p * q).terms == pairwise_mul(p, q).terms
    assert (q * p).terms == pairwise_mul(p, q).terms
    assert (p * p).terms == pairwise_mul(p, p).terms


@settings(max_examples=100, deadline=None)
@given(kernel_cases(), st.integers(0, 5))
def test_power_matches_square_and_multiply(case, n):
    p, _ = case
    power = p ** n
    assert power.terms == pairwise_pow(p, n).terms
    assert power.vars == p.vars and power.field == p.field
    if n == 1:
        assert power == p and power.nums is not p.nums


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subs_matches_cached_pairwise_substitution(data):
    # target universe: two fresh names plus the source's, so that every
    # unmapped variable passes through; images may be zero or constant
    field = data.draw(st.sampled_from(KERNEL_FIELDS))
    kind = data.draw(st.sampled_from(["int", "small", "primes"])) if field == QQ else None
    source = NAMES[: data.draw(st.sampled_from([0, 1, 2, 3, 5]))]
    target = ("s", "t") + source
    p = data.draw(kernel_polys(field, source, kind, max_terms=5))
    mapping = {"s": data.draw(kernel_polys(field, target, kind, max_terms=3))}
    for v in source:
        if data.draw(st.booleans()):
            mapping[v] = data.draw(kernel_polys(field, target, kind, max_terms=3))
    out = p.subs(mapping)
    assert out.vars == target and out.field == field
    assert out.terms == cached_subs(p, mapping).terms


def test_zero_and_constant_products():
    vars = ("x", "y")
    zero, three = Polynomial.zero(vars), Polynomial.constant(3, vars)
    p = P("x^2 - 2*x*y + 5", vars)
    assert p * zero == zero * p == zero
    assert (p * three).terms == {e: 3 * c for e, c in p.terms.items()}
    assert p ** 0 == zero ** 0 == Polynomial.constant(1, vars)
    assert zero ** 3 == zero
    assert Polynomial.constant(2, ()) ** 5 == Polynomial.constant(32, ())


def test_subs_zero_image_drops_its_terms():
    src, tgt = ("x", "y"), ("s", "y")
    out = P("x^2*y + x + y^3 + 4", src).subs({"x": Polynomial.zero(tgt)})
    assert out == P("y^3 + 4", tgt)


def test_subs_unmapped_variable_passes_through():
    src, tgt = ("x", "y"), ("y", "s", "t")
    out = P("x*y + y^2", src).subs({"x": P("s - t", tgt)})
    assert out == P("s*y - t*y + y^2", tgt)


def test_subs_unmapped_variable_missing_from_target_raises():
    # y is unmapped and not in the target universe, even unused
    with pytest.raises(MadicError):
        P("x^2", ("x", "y")).subs({"x": P("s", ("s", "t"))})


def test_subs_images_over_different_universes_raise():
    with pytest.raises(DomainMismatchError):
        P("x + y", ("x", "y")).subs({"x": P("s", ("s", "t")), "y": P("t", ("t", "s"))})


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse_polynomial("x + w", ("x", "y"))


def test_parse_rational_coefficients():
    p = parse_polynomial("3/2*x - 1/3", ("x",))
    assert p.terms[(1,)] == Fraction(3, 2)
    assert p.terms[(0,)] == Fraction(-1, 3)


def test_parse_implicit_multiplication():
    assert P("(1+x)(1-x)") == P("1 - x^2")


def test_prime_fields_are_decided_by_miller_rabin():
    from madic import CapacityError
    from madic.fields import PRIME_BOUND, is_prime

    assert [n for n in range(60) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1) and not is_prime(561)
    # the least strong pseudoprime to every prime base up to 37, which base
    # 41 finds out; the one up to 41 is the bound, from which no answer is
    # exact
    assert not is_prime(318665857834031151167461)
    for n in (PRIME_BOUND, PRIME_BOUND + 2):
        with pytest.raises(CapacityError, match=str(PRIME_BOUND)):
            PrimeField(n)
    with pytest.raises(MadicError, match="not a prime: 4"):
        PrimeField(4)
    assert PrimeField(2**61 - 1).inv(2) * 2 % (2**61 - 1) == 1


def test_gfp_arithmetic():
    F5 = PrimeField(5)
    p = parse_polynomial("3*x + 4", ("x",), field=F5)
    q = parse_polynomial("2*x + 3", ("x",), field=F5)
    assert (p + q) == parse_polynomial("2", ("x",), field=F5)


def _rand_matrix(rng, n, vars=("x", "y")):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))
                for _ in range(rng.randint(0, 3))
            }
            row.append(Polynomial(QQ, vars, terms))
        rows.append(row)
    return PolyMatrix(rows)


F7 = PrimeField(7)


@st.composite
def poly_matrices(draw, n, vars=("x", "y"), field=QQ, maxdeg=2):
    """An n x n matrix of sparse polynomials, zero entries included."""
    coeff = (
        st.integers(-3, 3) if field is QQ else st.integers(0, field.p - 1)
    ).map(field.convert)
    entry = st.dictionaries(
        st.tuples(*[st.integers(0, maxdeg)] * len(vars)), coeff, max_size=2
    ).map(lambda terms: Polynomial(field, vars, terms))
    return PolyMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@st.composite
def series_entries(draw, vars, N, field=QQ):
    keys = st.tuples(*[st.integers(0, N)] * len(vars))
    terms = draw(st.dictionaries(keys, st.integers(-3, 3), max_size=3))
    return TruncatedSeries(
        field, vars, N, {e: field.convert(c) for e, c in terms.items()}
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(poly_matrices))
def test_determinant_random_matches_sympy(m):
    x, y = sympy.symbols("x y")
    sym = DomainMatrix.from_Matrix(sympy.Matrix([
        [sum((sympy.Rational(c.numerator, c.denominator) * x**i * y**j
              for (i, j), c in e.terms.items()), sympy.Integer(0)) for e in row]
        for row in m.entries
    ]))
    det = sym.domain.to_sympy(sym.det())
    expected = {
        e: Fraction(int(c.p), int(c.q))
        for e, c in sympy.Poly(det, x, y).as_dict().items()
        if c != 0
    }
    assert determinant(m).terms == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_determinant_commutes_with_evaluation(data):
    # evaluation at a point is a ring map, so it commutes with det
    field = data.draw(st.sampled_from([QQ, F7]))
    n = data.draw(st.integers(1, 4))
    m = data.draw(poly_matrices(n, ("x", "z1", "z2"), field))
    N = data.draw(st.integers(1, 8))
    point = SeriesVector(
        [data.draw(series_entries(("x",), N, field)) for _ in range(2)]
    )
    assign = {"z1": 0, "z2": 1}
    evaluated = PolyMatrix(
        [[evaluate(e, point, assign) for e in row] for row in m.entries]
    )
    assert determinant(evaluated) == evaluate(determinant(m), point, assign)


def _leibniz(rows):
    """Naive determinant: the signed sum over all permutations."""
    n = len(rows)
    out = None
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        t = rows[0][perm[0]]
        for i in range(1, n):
            t = t * rows[i][perm[i]]
        if inversions % 2:
            t = -t
        out = t if out is None else out + t
    return out


def _cofactor_adjugate(rows):
    n = len(rows)
    if n == 1:
        e = rows[0][0]
        return [[TruncatedSeries.constant(1, e.vars, e.precision, e.field)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[rows[a][b] for b in range(n) if b != j] for a in range(n) if a != i]
            cof = _leibniz(sub)
            adj[j][i] = -cof if (i + j) % 2 else cof
    return adj


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cramer_columns_equal_adjugate_times_vector(data):
    vars = data.draw(st.sampled_from([("x",), ("x", "y")]))
    n, N = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    entry = series_entries(vars, N)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    q = [data.draw(entry) for _ in range(n)]
    adj = _cofactor_adjugate(rows)
    for j in range(n):
        cramer = PolyMatrix([r[:j] + [qi] + r[j + 1 :] for r, qi in zip(rows, q)])
        expected = adj[j][0] * q[0]
        for i in range(1, n):
            expected = expected + adj[j][i] * q[i]
        assert determinant(cramer) == expected


def test_determinant_matches_sympy():
    rng = random.Random(13)
    xs, ys = sympy.symbols("x y")
    for _ in range(10):
        m = _rand_matrix(rng, 3)
        ours = determinant(m)
        sym = sympy.Matrix(
            [[sympy.sympify(str(e)) for e in row] for row in m.entries]
        ).det()
        assert sympy.simplify(sympy.sympify(str(ours)) - sym) == 0


def test_jacobian_rows_are_equations():
    fs = [P("x*z"), P("y^2")]
    j = jacobian(fs, ["x", "y", "z"])
    assert j.entries[0][0] == P("z")
    assert j.entries[0][2] == P("x")
    assert j.entries[1][1] == P("2*y")


def test_minors_edge_cases():
    fs = [P("x*z"), P("y^2")]
    j = jacobian(fs, ["x", "y", "z"])
    assert minors(j, 0) == [Polynomial.constant(1, ("x", "y", "z"), QQ)]
    assert minors(j, 3) == []
    twos = minors(j, 2)
    assert any(not m.is_zero() for m in twos)


def test_exact_division_error():
    with pytest.raises(MadicError):
        exact_div(P("x^2 + 1"), P("x"))
    assert exact_div(P("x^2 - y^2"), P("x - y")) == P("x + y")
