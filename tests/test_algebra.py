"""Polynomial arithmetic, determinants and the parser."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from madic import (
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


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse_polynomial("x + w", ("x", "y"))


def test_parse_rational_coefficients():
    p = parse_polynomial("3/2*x - 1/3", ("x",))
    assert p.terms[(1,)] == Fraction(3, 2)
    assert p.terms[(0,)] == Fraction(-1, 3)


def test_parse_implicit_multiplication():
    assert P("(1+x)(1-x)") == P("1 - x^2")


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
    from madic.poly import exact_div

    with pytest.raises(MadicError):
        exact_div(P("x^2 + 1"), P("x"))
    assert exact_div(P("x^2 - y^2"), P("x - y")) == P("x + y")
