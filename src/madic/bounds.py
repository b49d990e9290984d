"""Effective bound formulas: generator-degree bounds for the Jacobian ideal,
the power-containment exponent, the gamma residual-order threshold for the
approximation pipeline, and the doubly exponential isolated-singularity bound.

Everything is exact big-integer arithmetic; nothing here is ever a float.
Display constants (the K's) are user-configurable and non-normative: the
theory only asserts their existence.

The towers grow doubly exponentially, so every power goes through
`capped_power`, which bounds the bit length of the result from the exponent
before building it and raises CapacityError above MAX_BITS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapacityError, MadicError

# Largest bit length of a bound that is built.  Every bound is reported in
# decimal, and CPython refuses by default to print an int of more than 4300
# digits (about 14,284 bits).
MAX_BITS = 14_000


def power_bits(base, exp):
    """An upper bound on the bit length of base ** exp, from the exponent:
    exact when base is a power of two, otherwise exp * bitlen(base), which
    is less than twice the true length."""
    if base < 2 or exp == 0:
        return 1
    k = base.bit_length()
    if base & (base - 1) == 0:
        return exp * (k - 1) + 1
    return exp * k


def capped_power(base, exp, factor=1):
    """factor * base ** exp for nonnegative ints, refused with CapacityError
    when its estimated bit length exceeds MAX_BITS.  A negative exponent is
    refused, as base ** exp would be a float."""
    if exp < 0:
        raise MadicError(f"a bound with negative exponent {exp}")
    bits = power_bits(base, exp)
    if factor > 1:
        bits += factor.bit_length()
    if bits > MAX_BITS:
        raise CapacityError(f"a bound of more than {MAX_BITS} bits")
    return factor * base**exp


def default_a_fn(m, d):
    """Placeholder for the one-variable approximation rate a(m, d).

    The true function exists but is not constructive; this default is only
    used for bound reporting, never to certify a refinement.
    """
    return max(1, m * d)


def unit_a_fn(m, d):
    """a(m, d) = 1: isolates the combinatorial factors in gamma."""
    return 1


def elkik_degree_bound(m, d):
    """Degree bound for generators of the Jacobian ideal of a presentation
    with m unknowns and equation degrees at most d."""
    _check(m, d)
    return colon_degree_bound(m, d) + (m + 2) * (d - 1)


def colon_degree_bound(m, d):
    """Degree bound for generators of the colon ideals entering the Jacobian
    ideal (Seidenberg-style elimination bound, implemented verbatim)."""
    _check(m, d)
    base = capped_power(d + m + 2, m + 2, d)
    return capped_power(base, capped_power(2, m + 1), m + 2)


def power_exponent(m, d, n):
    """Exponent e with (H + I)^e contained in the Jacobian ideal plus I, for
    any H with the same radical."""
    if n < 1:
        raise MadicError("need n >= 1")
    return capped_power(elkik_degree_bound(m, d), min(n, m + 1))


def gamma(m, d, s, c, a_fn=default_a_fn):
    """Residual-order threshold gamma(m, d, s, c) sufficient for certified
    approximation at distance order c, when the Jacobian ideal evaluated at
    the approximate solution has order < s."""
    _check(m, d)
    if s < 1 or c < 0:
        raise MadicError("need s >= 1 and c >= 0")
    a = a_fn(2 * (m + 1) * s, 4 * m * d * s)
    if not isinstance(a, int) or a <= 0:
        raise MadicError(f"a_fn must return a positive integer, got {a!r}")
    return a * (c + 2 * s + 1)


def beta_estimate(m, d, s, K=2):
    """Linear-coefficient estimate b with beta(c) <= b*(c+1):
    b = (2s+1) * (4mds)^(K^(2(m+1)s)) for a display constant K."""
    _check(m, d)
    if s < 1 or K < 1:
        raise MadicError("need s >= 1 and K >= 1")
    return capped_power(4 * m * d * s, capped_power(K, 2 * (m + 1) * s), 2 * s + 1)


def isolated_singularity_bound(d, m, k, c, inner_constant=2):
    """Residual-order threshold for an isolated singularity:
    d^(inner^(m*k*(D+1))) * (c+1) evaluated at the worst case D = c-1.

    `k` is an exponent with (z_1,...,z_m)^k inside the Jacobian ideal
    (caller-verified); `inner_constant` is the configurable inner constant.
    """
    _check(m, d)
    if k < 1 or c < 0 or inner_constant < 1:
        raise MadicError("need k >= 1, c >= 0 and inner_constant >= 1")
    D = c - 1
    return capped_power(d, capped_power(inner_constant, m * k * (D + 1)), c + 1)


def doubly_exponential_bound(c, K=2):
    """The shape K^(K^c) that bounds Artin functions of isolated
    singularities."""
    if c < 0 or K < 1:
        raise MadicError("need c >= 0 and K >= 1")
    return capped_power(K, capped_power(K, c))


def _check(m, d):
    if m < 1 or d < 2:
        raise MadicError("need m >= 1 and d >= 2")


@dataclass
class BoundReport:
    """All effective bounds for one parameter set, as exact big integers."""

    m: int
    d: int
    n: int
    s: int
    c: int
    elkik_degree_bound: int = field(init=False)
    colon_degree_bound: int = field(init=False)
    power_exponent: int = field(init=False)
    gamma: int = field(init=False)
    beta_estimate: int = field(init=False)
    doubly_exponential_bound: int = field(init=False)

    @classmethod
    def compute(cls, m, d, n, s, c, K=2):
        rep = cls(m, d, n, s, c)
        rep.elkik_degree_bound = elkik_degree_bound(m, d)
        rep.colon_degree_bound = colon_degree_bound(m, d)
        rep.power_exponent = power_exponent(m, d, n)
        rep.gamma = gamma(m, d, s, c)
        rep.beta_estimate = beta_estimate(m, d, s, K)
        rep.doubly_exponential_bound = doubly_exponential_bound(c, K)
        return rep

    def to_json(self):
        """JSON-ready dict; big integers as full decimal strings."""
        return {
            "inputs": {k: getattr(self, k) for k in ("m", "d", "n", "s", "c")},
            "elkik_degree_bound": str(self.elkik_degree_bound),
            "colon_degree_bound": str(self.colon_degree_bound),
            "power_exponent": str(self.power_exponent),
            "gamma": str(self.gamma),
            "beta_estimate": str(self.beta_estimate),
            "doubly_exponential_bound": str(self.doubly_exponential_bound),
        }
