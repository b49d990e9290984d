"""Coefficient fields: exact rationals and prime fields GF(p).

Polynomial coefficients over QQ are `fractions.Fraction` values (always in
lowest terms with positive denominator), prime-field coefficients are plain
ints reduced into [0, p).  A field object bundles that arithmetic.  A series
holds integer numerators over one denominator (`content_free`), residues
over 1 over GF(p), and builds Fractions only for its `terms` view.

The rational field is the default and matches the characteristic-zero
infinite-field setting of the theory; GF(p) exists for the exhaustive
jet-search oracle and is a strictly larger-than-hypotheses mode.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainMismatchError, MadicError


class RationalField:
    """The field of rational numbers with exact Fraction arithmetic."""

    characteristic = 0

    def convert(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str):
            return Fraction(v)
        raise MadicError(f"cannot coerce {v!r} into QQ")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return 1 / a

    def div(self, a, b):
        return a / b

    def is_zero(self, a):
        return a == 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p; elements are ints in [0, p)."""

    def __init__(self, p):
        if p < 2:
            raise MadicError(f"not a prime: {p}")
        n = p
        f = 2
        while f * f <= n:
            if n % f == 0:
                raise MadicError(f"not a prime: {p}")
            f += 1
        self.p = p
        self.characteristic = p

    def convert(self, v):
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (v.numerator % self.p) * pow(den, self.p - 2, self.p) % self.p
        if isinstance(v, str):
            return self.convert(Fraction(v))
        raise MadicError(f"cannot coerce {v!r} into GF({self.p})")

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def common_denominator(field, coeffs):
    """(nums, den) with coeffs[i] == nums[i] / den: over GF(p) the residues
    over 1, over QQ the numerators over the lcm of the denominators."""
    if field.characteristic:
        return list(coeffs), 1
    dens = [c.denominator for c in coeffs]
    den = lcm(*dens)
    return [c.numerator * (den // d) for c, d in zip(coeffs, dens)], den


def content_free(nums, den):
    """(nums, den) over QQ divided by gcd(den, *nums): the one form of a
    numerator dict over a positive den, with den 1 when nums is empty."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            return {k: n // g for k, n in nums.items()}, den // g
    return nums, den


def field_terms(field, items, den):
    """The term dict of (key, number) pairs over `den`, one field element
    per term, without the terms that vanish.  Over QQ a denominator of 1
    builds each Fraction without a gcd; `den` None keeps the numbers as
    they are (numerators of the caller's denominator, or Fractions)."""
    if field.characteristic:
        p = field.p
        return {k: r for k, n in items if (r := n % p)}
    if den is None:
        return {k: n for k, n in items if n}
    if den == 1:
        return {k: Fraction(n) for k, n in items if n}
    return {k: Fraction(n, den) for k, n in items if n}


def check_same_field(a, b):
    if a != b:
        raise DomainMismatchError(f"coefficient domains differ: {a!r} vs {b!r}")
