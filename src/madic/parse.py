"""Text syntax for polynomials and truncated-series literals.

Polynomials: identifiers as variables, `^` for powers, `*` optional between
factors, integer or `a/b` rational literals, parentheses, e.g.
`x^2*y - 3/2*z1` or `(1+x)(y^2 + x y + x^2)`.

Series literals are a polynomial followed by a mandatory precision suffix
`O(m^N)`, e.g. `x + x^4 + O(m^20)`.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .fields import QQ
from .poly import Polynomial

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


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


class _Parser:
    def __init__(self, text, vars, field):
        self.text = text
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
                if not d.is_constant() or d.is_zero():
                    self.fail("divisor must be a nonzero constant")
                out = out.scale(self.field.inv(d.constant_coeff()))
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
            return Polynomial.variable(val, self.vars, self.field)
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            return -self.parse_factor()
        raise ParseError("expected a term", 1, tok + 1)


def parse_polynomial(text, vars, field=QQ):
    p = _Parser(text, vars, field)
    out = p.parse_expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("trailing input after polynomial", 1, pos + 1)
    return out


_O_SUFFIX = re.compile(r"^(.*?)[+\s]*O\(\s*m\s*\^\s*(\d+)\s*\)\s*$", re.DOTALL)


def parse_series(text, series_vars, field=QQ):
    """Parse `poly + O(m^N)` into (Polynomial over series_vars, precision N)."""
    m = _O_SUFFIX.match(text.strip())
    if not m:
        raise ParseError("series literal needs a trailing O(m^N) precision marker")
    body, prec = m.group(1).strip(), int(m.group(2))
    if prec <= 0:
        raise ParseError("precision must be positive")
    if not body:
        body = "0"
    return parse_polynomial(body, series_vars, field), prec
