"""Coefficient fields: exact rationals and prime fields GF(p).

A field object bundles the arithmetic of its elements: over QQ
`fractions.Fraction` values (always in lowest terms with positive
denominator), over GF(p) plain ints reduced into [0, p).

Polynomials and series keep no field elements.  Both hold one exact form
(`exact_form`): integer numerators over one positive denominator, with
their common content removed (`content_free`); over GF(p) the residues over
1.  `ExactForm` is the class of that form, the base of `poly.Polynomial`
and `series.TruncatedSeries`: it holds the operations that do not depend on
precision, the ring check, `+` and `-` (each kind sums through `summed`),
negation, comparison, hashing, printing and the `terms` view.  Field elements are
built only for that view (`field_terms`), on each read, so this is the one
module that imports `fractions`.

The rational field is the default and matches the characteristic-zero
infinite-field setting of the theory; GF(p) exists for the exhaustive
jet-search oracle and is a strictly larger-than-hypotheses mode.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import CapacityError, DomainMismatchError, MadicError

# Miller-Rabin on the prime bases 2..41 is exact below their least strong
# pseudoprime (Sorenson and Webster, 2015); 2..37 pass 318665857834031151167461.
PRIME_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Whether n is prime, by Miller-Rabin on the bases 2..41; CapacityError
    from PRIME_BOUND on, where they no longer decide."""
    if n >= PRIME_BOUND:
        raise CapacityError(f"cannot certify that {n} is prime: the test is exact only below {PRIME_BOUND}")
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    return all(
        pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s)) for a in _WITNESSES
    )


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
        if not is_prime(p):
            raise MadicError(f"not a prime: {p}")
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


def content_free(nums, den):
    """(nums, den) over QQ divided by gcd(den, *nums), with the sign that
    makes den positive: the one form of a numerator dict over a nonzero
    den, with den 1 when nums is empty."""
    if den != 1:
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            return {k: n // g for k, n in nums.items()}, den // g
    return nums, den


def exact_form(field, terms):
    """(nums, den), the one form of a term dict of field elements (over QQ
    Fractions or ints): the nonzero residues over 1, or the nonzero
    numerators over their lcm denominator, content-free."""
    if field.characteristic:
        convert = field.convert
        return {k: r for k, c in terms.items() if (r := convert(c))}, 1
    den = lcm(*(c.denominator for c in terms.values()))
    return content_free({k: c.numerator * (den // c.denominator) for k, c in terms.items() if c}, den)


def field_terms(field, items, den):
    """The term dict of (key, number) pairs over `den`, one field element
    per term, without the terms that vanish; `den` None keeps the numbers
    as they are, numerators of the caller's denominator."""
    if field.characteristic:
        p = field.p
        return {k: r for k, n in items if (r := n % p)}
    if den is None:
        return {k: n for k, n in items if n}
    return {k: Fraction(n, den) for k, n in items if n}


def summed(parts, field):
    """(numerators, den), content-free, of the sum of `parts`, pairs
    (numerator dict, den) over one field; a negative den subtracts."""
    den = lcm(*(d for _, d in parts))
    out = {}
    for nums, d in parts:
        s = den // d
        for k, n in nums.items():
            n *= s
            out[k] = out[k] + n if k in out else n
    return content_free(field_terms(field, out.items(), None), den)


def check_same_field(a, b):
    if a != b:
        raise DomainMismatchError(f"coefficient domains differ: {a!r} vs {b!r}")


class ExactForm:
    """Content-free integer numerators `nums`, keyed by exponent tuple, over
    one positive denominator `den`, in the variables `vars` over `field`.

    A subclass gives its constructors, `_like(nums, den)` (an element of
    the same kind, ring and precision), `_key()` (the ring, which `==` and
    `hash` compare with the form), `_plus(other, sign)`, `__mul__` with
    `__rmul__ = __mul__`, and `__pow__`; `_tail()` is what its printed form
    ends with."""

    __slots__ = ("field", "vars", "nums", "den")

    @property
    def terms(self):
        """The field elements: Fractions over QQ, built on each read, or
        the residues themselves."""
        f = self.field
        return self.nums if f.characteristic else field_terms(f, self.nums.items(), self.den)

    def is_zero(self):
        return not self.nums

    def _check(self, other):
        """`other` as an element of this ring, an int as its constant;
        DomainMismatchError when its field or variables differ."""
        if isinstance(other, int):
            return self._like(field_terms(self.field, [((0,) * len(self.vars), other)], None), 1)
        check_same_field(self.field, other.field)
        if self.vars != other.vars:
            raise DomainMismatchError(f"variables differ: {self.vars} vs {other.vars}")
        return other

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._like(field_terms(self.field, ((e, -n) for e, n in self.nums.items()), None), self.den)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key() and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self._key(), self.den, frozenset(self.nums.items())))

    def _tail(self):
        return ""

    def __str__(self):
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda it: (sum(it[0]), it[0]), reverse=True):
            factors = []
            for v, x in zip(self.vars, e):
                if x == 1:
                    factors.append(v)
                elif x > 1:
                    factors.append(f"{v}^{x}")
            cs = str(c)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors and cs == "-1":
                body = "-" + "*".join(factors)
            elif factors:
                body = cs + "*" + "*".join(factors)
            else:
                body = cs
            parts.append(body)
        s = parts[0] if parts else "0"
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s + self._tail()
