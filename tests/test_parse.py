"""The polynomial parser against a copy of the parser it replaced.

`reference_parse` is that parser: a token list, then every atom a
Polynomial and every sum, product, quotient and power one Polynomial
operation.  The parser must give the same numerators, denominator and key
order, or the same ParseError message, on texts drawn from the grammar over
QQ and three prime fields.  It differs on purpose in three ways: trailing
whitespace is accepted, a power or a product whose expansion would exceed
`parse.MAX_POWER_BITS` is refused with CapacityError, and an integer past
the interpreter's digit limit is a ParseError at its column.
"""

import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from madic import CapacityError, ParseError, Polynomial, PrimeField, QQ, parse_polynomial
from madic import parse
from madic.parse import MAX_POWER_BITS
from madic.series import mul_terms
from helpers import variable

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            raise ParseError(f"unexpected character {text[pos]!r}", 1, pos + 1)
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Reference:
    def __init__(self, text, vars, field):
        self.tokens = _tokenize(text)
        self.i = 0
        self.vars = tuple(vars)
        self.field = field

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, msg):
        raise ParseError(msg, 1, self.peek()[2] + 1)

    def expect_op(self, op):
        kind, val, _ = self.peek()
        if kind != "op" or val != op:
            self.fail(f"expected {op!r}")
        self.next()

    def parse_expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            negate = val == "-"
            self.next()
        out = self.parse_term()
        if negate:
            out = -out
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                t = self.parse_term()
                out = out + t if val == "+" else out - t
            else:
                return out

    def parse_term(self):
        out = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                out = out * self.parse_factor()
            elif kind == "op" and val == "/":
                self.next()
                d = self.parse_factor()
                if d.degree() != 0:  # not a nonzero constant
                    self.fail("divisor must be a nonzero constant")
                c = self.field.inv(d.terms[(0,) * len(self.vars)])
                out = out * Polynomial.constant(c, self.vars, self.field)
            elif kind in ("int", "ident") or (kind == "op" and val == "("):
                out = out * self.parse_factor()
            else:
                return out

    def parse_factor(self):
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k, e, _ = self.peek()
            if k != "int":
                self.fail("exponent must be a non-negative integer")
            self.next()
            base = base ** e
        return base

    def parse_atom(self):
        kind, val, tok = self.next()
        if kind == "int":
            return Polynomial.constant(val, self.vars, self.field)
        if kind == "ident":
            if val not in self.vars:
                raise ParseError(
                    f"unknown variable {val!r} (declared: {', '.join(self.vars)})",
                    1,
                    tok + 1,
                )
            return variable(val, self.vars, self.field)
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            return -self.parse_factor()
        raise ParseError("expected a term", 1, tok + 1)


def reference_parse(text, vars, field=QQ):
    p = _Reference(text, vars, field)
    out = p.parse_expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("trailing input after polynomial", 1, pos + 1)
    return out


VARS = ("x", "y", "z")
FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]


def outcome(parse, text, field):
    """(numerator items in key order, den), or the error and its message."""
    try:
        p = parse(text, VARS, field)
    except (ParseError, CapacityError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return list(p.nums.items()), p.den


_SPACE = st.sampled_from(["", "", "", " ", "  ", "\t"])
_ATOMS = st.one_of(
    st.integers(0, 40).map(str),
    st.tuples(st.integers(0, 12), st.integers(0, 7)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["x", "y", "z", "x", "y", "w", "x1"]),
)


def _extend(inner):
    return st.one_of(
        st.tuples(inner, _SPACE, st.sampled_from(["+", "-", "*", "/", "", " "]), _SPACE, inner).map("".join),
        inner.map(lambda s: f"({s})"),
        st.tuples(inner, st.integers(0, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
        inner.map(lambda s: "-" + s),
    )


@st.composite
def texts(draw):
    """A text of the grammar, malformed one time in three, without trailing
    whitespace."""
    text = draw(_SPACE) + draw(st.recursive(_ATOMS, _extend, max_leaves=10))
    if draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, len(text)))
        bad = draw(st.sampled_from(["$", ")", "(", "^", "*", "+", "/", "_", "", "^-", " $"]))
        text = text[:i] + bad + text[i + draw(st.integers(0, 1)):]
    return text.rstrip()


EDGE_CASES = [
    "x/0",
    "0^0",
    "3/-2",
    "7/3/2*x",
    "x/(1/2)",
    "x^",
    "(x",
    "x$",
    "",
    "--x",
    "-+x",
    "x*-y^2^3",
    "y^2^3",
    "x^-1",
    "x/y",
    "(x+y)/2",
    "x/(x-x+2)",
    "0*x/0",
    "x)",
    "((2/3)*x)",
    "x - x + y + x",
    "x $",
    "(1+x)(y^2 + x y + x^2)",
    "2 3x",
    "w + x",
    "x^2*y - 3/2*z",
    # a run of digits before a bad character: no backtracking over splits
    "1" * 40 + "$",
]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases_parse_as_the_reference_does(text, field):
    assert outcome(parse_polynomial, text, field) == outcome(reference_parse, text, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=texts())
def test_texts_parse_as_the_reference_does(text, field):
    got = outcome(parse_polynomial, text, field)
    assume(not str(got).startswith("CapacityError"))  # the caps, which the reference lacks
    assert got == outcome(reference_parse, text, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(text=texts(), space=st.sampled_from([" ", "\t", "  \n"]))
def test_trailing_whitespace_moves_only_the_column_of_the_end(text, space, field):
    want = outcome(parse_polynomial, text, field)
    if isinstance(want, str):
        want = want.replace(f"col {len(text) + 1}: ", f"col {len(text + space) + 1}: ")
    assert outcome(parse_polynomial, text + space, field) == want


def test_trailing_whitespace_is_accepted():
    x = parse_polynomial("x", ("x",))
    assert parse_polynomial("x ", ("x",)) == x
    assert parse_polynomial("x\t", ("x",)) == x
    assert parse_polynomial(" x", ("x",)) == x


@pytest.mark.parametrize("text", ["(1+x+y)^400", "2^20000000", "((1+x)^100)^100"])
def test_a_power_past_the_cap_is_refused_before_it_is_built(text):
    with pytest.raises(CapacityError, match=f"a power of more than {MAX_POWER_BITS} bits"):
        parse_polynomial(text, ("x", "y"))


def test_powers_below_the_cap_are_built():
    # 4005 terms over GF(32003), a 262001-bit constant and x^(10^6) are
    # each inside the cap
    assert len(parse_polynomial("(1+x+y)^88", ("x", "y"), PrimeField(32003)).nums) == 4005
    assert parse_polynomial("2^262000", ("x",)).nums == {(0,): 2**262000}
    assert parse_polynomial("x^1000000", ("x",)).nums == {(1000000,): 1}


def test_a_product_past_the_cap_is_refused_before_it_is_built(monkeypatch):
    # the product of 100 factors 1+x+y has 5151 terms, and they were
    # multiplied one by one; now every product the kernel builds is inside
    # the cap, and the refusal comes before the last factor
    sizes = []

    def counting(a, b, *args):
        out = mul_terms(a, b, *args)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(parse, "mul_terms", counting)
    with pytest.raises(CapacityError, match=f"a product of more than {MAX_POWER_BITS} bits"):
        parse_polynomial("*".join(["(1+x+y)"] * 100), ("x", "y"), PrimeField(32003))
    assert max(sizes) * 64 <= MAX_POWER_BITS and len(sizes) < 99


def test_products_below_the_cap_are_built():
    # 4005 terms over GF(32003), as the power (1+x+y)^88 gives them
    text = "(1+x+y)^44*(1+x+y)^44"
    got = parse_polynomial(text, ("x", "y"), PrimeField(32003))
    assert got == parse_polynomial("(1+x+y)^88", ("x", "y"), PrimeField(32003))
