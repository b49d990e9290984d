"""Text syntax for polynomials and truncated-series literals.

Polynomials: identifiers as variables, `^` for powers, `*` optional between
factors, integer or `a/b` rational literals, parentheses, e.g.
`x^2*y - 3/2*z1` or `(1+x)(y^2 + x y + x^2)`.

Series literals are a polynomial followed by a mandatory precision suffix
`O(m^N)`, e.g. `x + x^4 + O(m^20)`.
"""

from __future__ import annotations

import re
import sys
from math import comb, lcm
from operator import add

from .bounds import power_bits
from .errors import CapacityError, ParseError
from .fields import QQ, content_free
from .poly import Polynomial
from .series import mul_terms, pow_terms

# Cap on a power's or a product's terms times bits per term (at least 64, bitlen(p) over
# GF(p)) before it is expanded: C(k + t - 1, t - 1) terms of k * bitlen(t * its largest number)
# bits for a base of t terms; a product adds the bits of its factors, and has at most the
# product of their term counts and the monomials of its degree or less
MAX_POWER_BITS = 1 << 18

_TOKEN = r"\d+(?!\d)|[A-Za-z][A-Za-z0-9_]*(?![A-Za-z0-9_])|[-+*/^()]"
_TOKENS = re.compile(_TOKEN)
# tokens are as long as they can be, so the run of them is found without backtracking
_RUN = re.compile(rf"(?:\s*(?:{_TOKEN}))*")


class _Parser:
    """Recursive descent over the tokens of a valid text, "" after them, into
    numerator form: a sum is (nums, den), content-free, and a product of atoms
    is one term (n, d, e); only factors of several terms meet the kernels."""

    def __init__(self, text, vars, field):
        self.text, self.vars, self.field, self.p, self.i = text, tuple(vars), field, field.characteristic, 0
        self.tokens = _TOKENS.findall(text) + [""]
        self.one = (0,) * len(self.vars)

    def fail(self, msg, i=None):
        """ParseError at token i, by default the next one."""
        starts = [m.start() for m in _TOKENS.finditer(self.text)] + [len(self.text)]
        raise ParseError(msg, 1, starts[self.i if i is None else i] + 1)

    def expr(self):
        tokens, p, out, den, tok = self.tokens, self.p, {}, 1, self.tokens[self.i]
        while True:
            self.i += tok in ("+", "-")
            nums, d = self.term()
            m = lcm(den, d)
            out = {k: v * (m // den) for k, v in out.items()} if m != den else out
            s, den = (-1 if tok == "-" else 1) * (m // d), m
            for k, v in nums.items():
                v = out.get(k, 0) + s * v
                out[k] = v % p if p else v
                if not out[k]:
                    del out[k]  # a sum that vanishes drops at once
            tok = tokens[self.i]
            if tok not in ("+", "-"):
                return content_free(out, den)

    def term(self):
        """The product of factors as (n, d, e) times `poly`, into which a factor
        of several terms is multiplied after the term collected before it."""
        tokens, p = self.tokens, self.p
        n, d, e, poly, tok = 1, 1, self.one, None, "*"
        while True:
            f = self.factor()
            if tok == "/":
                if len(f) != 3 or f[2] != self.one or not f[0]:
                    self.fail("divisor must be a nonzero constant")
                f = (pow(f[0], p - 2, p), 1, f[2]) if p else (f[1] if f[0] > 0 else -f[1], abs(f[0]), f[2])
            if len(f) == 3:
                n, d, e = n * f[0], d * f[1], tuple(map(add, e, f[2]))
                if p:
                    n %= p
            elif poly is None:
                poly = f
            else:
                (a, ad), (b, bd) = self.times(n, d, e, poly), f
                n, d, e = 1, 1, self.one
                if a:  # the cap is one above the product's degree: nothing is truncated
                    cap, nv = max(map(sum, a)) + max(map(sum, b)) + 1, len(self.vars)
                    bits = _height(a, ad).bit_length() + _height(b, bd).bit_length()
                    self.charge(min(len(a) * len(b), comb(cap - 1 + nv, nv)), bits, "a product")
                    a, ad = content_free(mul_terms(a, b, self.field, cap), ad * bd)
                poly = a, ad
            tok = tokens[self.i]
            if tok in ("", "+", "-", ")", "^"):
                return self.times(n, d, e, poly)
            self.i += tok in ("*", "/")

    def charge(self, terms, bits, what):
        """CapacityError when `terms` terms of `bits` bits (see MAX_POWER_BITS) pass the cap."""
        if terms * max(64, self.p.bit_length() if self.p else bits) > MAX_POWER_BITS:
            raise CapacityError(f"{what} of more than {MAX_POWER_BITS} bits")

    def integer(self, i):
        """The integer literal at token i, refused past the interpreter's digit limit."""
        try:
            return int(self.tokens[i])
        except ValueError:
            self.fail(f"an integer literal of more than {sys.get_int_max_str_digits()} digits", i)

    def times(self, n, d, e, poly):
        """(nums, den) of the term (n, d, e), times `poly` unless None."""
        if poly is None or not n:
            return content_free({e: n} if n else {}, d)
        p = self.p
        return content_free({tuple(map(add, k, e)): v * n % p if p else v * n for k, v in poly[0].items()}, poly[1] * d)

    def factor(self):
        base = self.atom()
        if self.tokens[self.i] != "^":
            return base
        self.i += 1
        k = self.tokens[self.i]
        if not k.isdigit():
            self.fail("exponent must be a non-negative integer")
        self.i, k = self.i + 1, self.integer(self.i)
        if k == 0:
            return 1, 1, self.one
        nums, den = self.times(*base, None) if len(base) == 3 else base
        t = len(nums)
        if t:
            self.charge(comb(k + t - 1, t - 1), power_bits(_height(nums, den), k), "a power")
        if t > 1:
            return content_free(pow_terms(nums, k, self.field, k * max(map(sum, nums)) + 1), den**k)
        (e, n), = nums.items() or ((self.one, 0),)
        return pow(n, k, self.p) if self.p else n**k, den**k, tuple(x * k for x in e)

    def atom(self):
        i, tok = self.i, self.tokens[self.i]
        self.i += 1
        if tok.isdigit():
            n = self.integer(i)
            return n % self.p if self.p else n, 1, self.one
        if tok[:1].isalpha():
            if tok not in self.vars:
                self.fail(f"unknown variable {tok!r} (declared: {', '.join(self.vars)})", i)
            j = self.vars.index(tok)
            return 1, 1, self.one[:j] + (1,) + self.one[j + 1:]
        if tok == "(":
            nums, den = self.expr()
            if self.tokens[self.i] != ")":
                self.fail("expected ')'")
            self.i += 1
            if len(nums) > 1:
                return nums, den
            (e, n), = nums.items() or ((self.one, 0),)  # a sum of one term, or none
            return n, den, e
        if tok == "-":
            f, p = self.factor(), self.p
            return (-f[0] % p if p else -f[0],) + f[1:] if len(f) == 3 else self.times(p - 1 if p else -1, 1, self.one, f)
        self.fail("expected a term", i)


def _height(nums, den):
    """The term count times the largest number of a sum in numerator form."""
    return len(nums) * max([den, *map(abs, nums.values())])


def parse_polynomial(text, vars, field=QQ):
    pos = _RUN.match(text).end()
    if text[pos:].strip():
        raise ParseError(f"unexpected character {text[pos]!r}", 1, pos + 1)
    p = _Parser(text, vars, field)
    nums, den = p.expr()
    if p.tokens[p.i]:
        p.fail("trailing input after polynomial")
    return Polynomial._of_nums(field, p.vars, nums, den)


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
