"""Packed monomials and heap-ordered reduction: the kernel of the ideal engine.

A monomial of n variables is packed into one int, laid out for one monomial
order.  The order is a list of blocks of variables, the first block deciding
first (degrevlex is one block, lex one block per variable, an elimination
order two blocks).  Every exponent gets a field of FIELD_BITS bits whose top
bit is a guard bit and stays clear; a block of two or more variables also
gets a field holding its degree, above the fields of its variables; and the
blocks are stacked with the first block in the most significant bits.  Then

- the product of two monomials is one integer add (degree fields add too);
- a divides b iff ``((b | G) - a) & G == G`` for G the guard bits, because a
  field of the difference borrows from its guard bit exactly when the
  exponent in a is the larger one;
- the order key is one int, ``m ^ flip``, where flip complements the
  exponent fields of the blocks of two or more variables: such a block is
  compared by its degree, then by the complemented exponents with the last
  variable highest, i.e. reverse lexicographically; a one-variable block is
  compared by its exponent, so under lex the key is the packed int itself.

Every block degree, and so every exponent, must stay at most MAX_EXPONENT.
Packing an exponent tuple past it, or a product whose field would reach a
guard bit, raises CapacityError; nothing wraps around silently.

`reduce_terms` is the reduction kernel: it keeps the not yet reduced terms
in a dict and their order keys, computed once when a term enters, in a
heap, pops the largest, and skips the entries of terms that cancelled.  Its
divisors are prepared once (`divisor`): leading monomial, leading
coefficient, negated tail and the fieldwise maximum of the tail's
monomials, so one add and one mask per reduction step tell whether any of
its products overflows.

Coefficients are plain ints from packing to unpacking: a polynomial is
packed as its numerators (`Packing.pack_terms` of `Polynomial.nums`), over
its one denominator.  Over GF(p) they are residues, a prepared divisor is
monic and every step reduces mod p inline.  Over QQ a prepared divisor is the primitive integer
multiple of the polynomial with a positive leading coefficient, and a
reduction is a pseudo-reduction that returns (rem, scale), the remainder
being rem / scale: a step by a divisor with leading coefficient lc on a
term c multiplies the work set, the remainder and the scale by lc / g, for
g = gcd(c, lc), only when that is not 1, and adds (c / g) times the
shifted negated tail.  Content is removed by one fixed rule: whenever the
scale's bit length has doubled since the last removal, the work set, the
remainder and the scale are divided by their gcd.  Scaling by a nonzero
integer never changes which terms vanish, so every step picks the same
divisor as reduction over the field would, and rem / scale is the same
remainder.
"""

from __future__ import annotations

import functools
from heapq import heapify, heappop, heappush
from math import gcd
from operator import mul

from .errors import CapacityError

FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_GUARD = 1 << (FIELD_BITS - 1)
_OVERFLOW = f"a monomial exceeds the engine's exponent cap {MAX_EXPONENT}"


class Packing:
    """The packed layout of monomials in `nvars` variables for one monomial
    order, given as blocks (start, stop) of variables, most significant
    first; see the module docstring."""

    __slots__ = ("blocks", "units", "offsets", "guard", "flip", "exponents")

    def __init__(self, nvars, blocks):
        self.blocks = blocks
        self.units = [0] * nvars  # the packed monomial of each variable
        self.offsets = [0] * nvars
        self.guard = self.flip = 0
        self.exponents = 0  # the value bits of every exponent field
        pos = 0
        for a, b in reversed(blocks):
            deg = pos + (b - a) * FIELD_BITS if b - a > 1 else None
            for i in range(a, b):
                self.offsets[i] = pos
                self.units[i] = 1 << pos
                self.guard |= _GUARD << pos
                self.exponents |= MAX_EXPONENT << pos
                if deg is not None:
                    self.units[i] |= 1 << deg
                    self.flip |= MAX_EXPONENT << pos
                pos += FIELD_BITS
            if deg is not None:
                self.guard |= _GUARD << deg
                pos += FIELD_BITS

    def unpack(self, m):
        """The exponent tuple of a packed monomial."""
        return tuple([(m >> o) & MAX_EXPONENT for o in self.offsets])

    def pack_terms(self, terms, table):
        """Pack a term dict; `table` records each exponent tuple under its
        packed monomial, so unpacking gives back the same tuple objects."""
        units = self.units
        out = {}
        for e, c in terms.items():
            if sum(e) > MAX_EXPONENT and any(
                sum(e[a:b]) > MAX_EXPONENT for a, b in self.blocks
            ):
                raise CapacityError(_OVERFLOW)
            m = sum(map(mul, e, units))
            table.setdefault(m, e)
            out[m] = c
        return out

    def unpack_terms(self, terms, table):
        """A term dict with exponent tuples, one tuple per packed monomial
        across every call that shares `table`."""
        out = {}
        for m, c in terms.items():
            e = table.get(m)
            if e is None:
                e = table[m] = self.unpack(m)
            out[e] = c
        return out

    def with_degrees(self, m):
        """(packed monomial, total degree) of the monomial whose exponent
        fields are those of `m` (`m & exponents`).  A degree field of the
        lcm of two packed monomials may reach its guard bit but never
        carries past it (it holds at most twice MAX_EXPONENT): the lcm
        still compares right, and a product formed from it is checked."""
        e = self.unpack(m)
        return sum(map(mul, e, self.units)), sum(e)

    def field_max(self, a, b):
        """Fieldwise maximum of two packed monomials."""
        ge = ((a | self.guard) - b) & self.guard  # guard bit where a >= b
        sel = ge - (ge >> (FIELD_BITS - 1))  # value bits of those fields
        return (a & sel) | (b & ~sel)

    def leading(self, terms):
        """The largest monomial of a nonempty packed term dict."""
        flip = self.flip
        return max(m ^ flip for m in terms) ^ flip


@functools.lru_cache(maxsize=None)
def shared_packing(nvars, blocks):
    """The shared Packing of `nvars` variables and a tuple of blocks."""
    return Packing(nvars, blocks)


def divisor(terms, lt, packing, field):
    """A prepared divisor (lt, lc, negated tail, fieldwise max of the tail)
    of the packed integer term dict `terms` with leading monomial `lt`:
    over QQ its primitive integer multiple with lc > 0, over GF(p) its
    monic multiple with lc = 1.  A product u * tail overflows iff
    u + (fieldwise max) reaches a guard bit."""
    lc = terms[lt]
    if field.characteristic:
        p = field.p
        ninv = -pow(lc, p - 2, p) if lc != 1 else -1
        tail = [(m, c * ninv % p) for m, c in terms.items() if m != lt]
        lc = 1
    else:
        content = gcd(*terms.values())
        if lc < 0:
            content = -content
        if content != 1:
            lc //= content
            tail = [(m, -(c // content)) for m, c in terms.items() if m != lt]
        else:
            tail = [(m, -c) for m, c in terms.items() if m != lt]
    return lt, lc, tail, functools.reduce(packing.field_max, (m for m, _ in tail), 0)


def reduce_terms(terms, divisors, packing, field, quotient=None):
    """Fully reduce the packed integer term dict `terms`, which is
    consumed, by prepared divisors.

    Each step takes the largest remaining term and the first divisor whose
    leading monomial divides it.  Returns (rem, scale): the remainder is
    rem / scale, its terms in decreasing order; over GF(p) scale is 1.  If
    `quotient` is a dict, each step records its cofactor in it, so with a
    single divisor terms / scale == quotient / scale * divisor + rem /
    scale.
    """
    if field.characteristic:
        return _reduce_modular(terms, divisors, packing, field.p, quotient), 1
    return _reduce_integral(terms, divisors, packing, quotient)


def _reduce_modular(work, divisors, packing, p, quotient):
    """`reduce_terms` over GF(p): monic divisors, residues reduced inline."""
    G, flip = packing.guard, packing.flip
    heap = [-(m ^ flip) for m in work]
    heapify(heap)
    rem = {}
    while heap:
        m = -heappop(heap) ^ flip
        c = work.pop(m, None)
        if c is None:
            continue  # the term cancelled after its key was pushed
        mg = m | G
        for lt, _, tail, hi in divisors:
            if (mg - lt) & G == G:
                q = m - lt
                if (q + hi) & G:
                    raise CapacityError(_OVERFLOW)
                if quotient is not None:
                    quotient[q] = c
                for t, nc in tail:
                    n = q + t
                    old = work.get(n)
                    if old is None:
                        work[n] = c * nc % p
                        heappush(heap, -(n ^ flip))
                    else:
                        v = (old + c * nc) % p
                        if v:
                            work[n] = v
                        else:
                            del work[n]
                break
        else:
            rem[m] = c
    return rem


def _reduce_integral(work, divisors, packing, quotient):
    """`reduce_terms` over QQ, by pseudo-reduction on integers.

    Reducing a term c by a divisor with leading coefficient lc takes
    g = gcd(c, lc); unless lc / g is 1, the work set, the remainder, the
    quotient and the scale are multiplied by lc / g, and then (c / g) times
    the shifted negated tail is added.  Whenever the scale's bit length
    has doubled since the last content removal, all of them are divided
    by their gcd.
    """
    G, flip = packing.guard, packing.flip
    heap = [-(m ^ flip) for m in work]
    heapify(heap)
    rem = {}
    parts = (work, rem) if quotient is None else (work, rem, quotient)
    scale = 1
    limit = 1  # remove the content once scale.bit_length() reaches 2 * limit
    while heap:
        m = -heappop(heap) ^ flip
        c = work.pop(m, None)
        if c is None:
            continue  # the term cancelled after its key was pushed
        mg = m | G
        for lt, lc, tail, hi in divisors:
            if (mg - lt) & G == G:
                q = m - lt
                if (q + hi) & G:
                    raise CapacityError(_OVERFLOW)
                a = 1
                if lc != 1:
                    g = gcd(c, lc)
                    c //= g
                    a = lc // g
                    if a != 1:
                        scale *= a
                        for d in parts:
                            for k in d:
                                d[k] *= a
                if quotient is not None:
                    quotient[q] = c
                for t, nc in tail:
                    n = q + t
                    old = work.get(n)
                    if old is None:
                        work[n] = c * nc
                        heappush(heap, -(n ^ flip))
                    else:
                        v = old + c * nc
                        if v:
                            work[n] = v
                        else:
                            del work[n]
                if a != 1 and scale.bit_length() >= 2 * limit:
                    scale = _remove_content(scale, parts)
                    limit = scale.bit_length()
                break
        else:
            rem[m] = c
    return rem, scale


def _remove_content(scale, parts):
    """Divide the term dicts `parts`, in place, and `scale` by their gcd;
    returns the new scale."""
    g = gcd(scale, *[v for d in parts for v in d.values()])
    if g != 1:
        for d in parts:
            for k in d:
                d[k] //= g
        scale //= g
    return scale
