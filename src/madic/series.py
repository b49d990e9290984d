"""Truncated formal power series in one or two variables.

A TruncatedSeries stores the terms of total degree < N (the precision) of an
element of k[[x]] or k[[x,y]].  The m-adic order of an apparently-zero
truncated series cannot be certified, so `ord` returns a lower-bound marker
`at least N` in that case and callers must branch on it explicitly.

Norms e^{-ord} are never materialized as floats: every comparison is an
integer comparison on orders.

A TruncatedSeries is a `fields.ExactForm`, as a polynomial is: integer
numerators, keyed by exponent tuple, over one positive denominator, with
their common content removed.  Over GF(p) these are the residues over 1, so
both fields share it.  The base class gives the ring check, negation, `==`
and `hash` (which compare the form and the precision), printing (with
` + O(m^N)` appended) and `terms`, the Fractions over QQ, built on each read
for printing and JSON; sums and differences are taken at the lower of the
two precisions.  The kernels and the series operations take and return
numerators.

Every truncated product of the series and polynomial layers goes through
one exact sparse kernel, `mul_terms`, over numerator dicts keyed by
exponent tuples of one length or, for a univariate dict, by plain degrees:

- each exponent tuple is packed into one int with its exponents as digits
  in base cap, so that adding packed keys adds exponents;
- one operand is sorted by total degree, so the inner loop over it stops at
  the degree cap instead of testing every pair;
- numbers are accumulated as plain ints, numerators over QQ and residues
  over GF(p), where each output number is reduced once; the product's
  denominator, the product of the operands', is the caller's;
- each term of an operand of one or two terms shifts and scales the
  other, with no packing (a constant only scales), and the parts are added;
- a dense univariate product is one big-int multiply (Kronecker
  substitution): each operand's numbers go into one int, a 64-bit slot per
  degree from its lowest degree, and the slots of the product below the cap
  are read back.  It is taken only by one fixed rule on the numbers, the
  same over both fields: both operands keep at least _SLOT_MIN_TERMS terms
  below the cap, span at most _SLOT_SPAN slots per term, and bits(max |a|)
  + bits(max |b|) + bits(min(len a, len b)), plus 1 when a number is
  negative, is at most 64, so that no slot sum can overflow.  Wider numbers
  and multivariate keys take the pairwise loop.

Both fields are exact, so the result does not depend on the accumulation
order or representation.  `LinearChange.apply_series` and Weierstrass
division read a series' numerators in the same way.

On the pairwise loop a square (`a is b`) pairs each term only with the
terms after it in degree order, doubled, and adds the diagonal, so each
cross product is computed once.

Every quotient by a unit, and so every inverse, goes through one kernel,
`quotient_numerators`, by the coefficient recurrence of power-series
division Q_m = (a_m - sum_{k != 0} w_k Q_{m-k}) / w_0 in order of total
degree from ord a: each Q_m is one sum reduced once, as in `mul_terms`.  A
unit of t terms costs t products per output term (in one variable at most
4t: a dense w is one dot product over the deg w <= 4t terms before Q_m).
A quotient a / w (`TruncatedSeries.over`) costs about w^-1's; 1/w is a = 1.

`substitute_numerators` is the one substitution kernel, behind `evaluate`
and `Polynomial.subs`.  It drops a term before any product once its order
reaches the cap, since the kernel keeps no degree below the sum of its
operands' orders, and multiplies the rest as numerator dicts through
`mul_terms`, with powers and monomial prefixes cached.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from math import gcd
from operator import add, itemgetter, mul, sub
from struct import pack, unpack

from .errors import MadicError, PrecisionError
from .fields import QQ, ExactForm, content_free, exact_form, field_terms, summed


@dataclass(frozen=True)
class OrderValue:
    """Either a finite m-adic order, or `at least N` for a series whose
    stored terms all vanish."""

    value: int
    finite: bool = True

    @classmethod
    def at_least(cls, n):
        return cls(n, False)

    def ge(self, k):
        """True when the order is certainly >= k."""
        return self.value >= k

    def lt(self, k):
        """True when the order is certainly < k."""
        return self.finite and self.value < k

    def __str__(self):
        return str(self.value) if self.finite else f"at-least-precision({self.value})"

    def to_json(self):
        if self.finite:
            return {"kind": "finite", "value": self.value}
        return {"kind": "at-least-precision", "value": self.value}


# -- the product kernel ------------------------------------------------


def _packed(terms, cap, width=None):
    """(packed key, degree, coefficient) for each term of degree < cap.

    A degree key packs to itself, and an exponent tuple to the number with
    its exponents as digits in base `width` (cap unless given): (i,) to i,
    (i, j) to i*width + j, () to 0.  So the sum of two packed keys is the
    packed key of their product as long as the product's degree stays below
    cap."""
    key = next(iter(terms))
    if isinstance(key, int):
        return [(e, e, c) for e, c in terms.items() if e < cap]
    width = width or cap
    positions = zip(*terms)
    keys = degs = next(positions, [0] * len(terms))
    for exps in positions:
        keys = list(map(add, map(mul, keys, repeat(width)), exps))
        degs = list(map(add, degs, exps))
    return [t for t in zip(keys, degs, terms.values()) if t[1] < cap]


def _unpacked(items, key, width):
    """The (packed key, value) pairs with keys of the same kind as `key`, a
    degree or a nonempty tuple; `width` is the packing's base (`_packed`)."""
    if isinstance(key, int):
        return items
    items = list(items)
    keys, digits = [k for k, _ in items], []
    for _ in key[1:]:
        digits.append([k % width for k in keys])
        keys = [k // width for k in keys]
    return zip(zip(keys, *reversed(digits)), [n for _, n in items])


# Terms per operand and slots per term of the slot path's rule (see the
# module docstring): crossovers against the pairwise loop, measured over
# GF(32003).  Dense operands win from about 16 terms, operands with a term
# in every fourth slot break even at 32 to 48, and sparser ones lose by the
# slots they pack (32 terms over 8192 slots ran 90 times slower).
_SLOT_MIN_TERMS = 32
_SLOT_SPAN = 4

# the top bit of one little-endian 64-bit slot
_SLOT_TOP = b"\0\0\0\0\0\0\0\x80"


def _slot_int(degs, nums, low, span, fmt, top):
    """The int with nums[i] in 64-bit slot degs[i] - low of `span` slots,
    packed by `fmt` and unbiased by the bytes `top` of each slot."""
    slots = [0] * span
    for d, n in zip(degs, nums):
        slots[d - low] = n
    bias = int.from_bytes(top * span, "little")
    return (int.from_bytes(pack(fmt % span, *slots), "little") ^ bias) - bias


def _slot_product(a, b, cap, square):
    """The (degree, number) pairs of the product of univariate packed
    operands `a` and `b` (see `_packed`) below degree cap, by Kronecker
    substitution; None when an operand is too sparse or a slot could
    overflow.  `square` says that b is a.

    Each operand becomes one int with a 64-bit slot per degree from its
    lowest, and one multiply puts every sum of the product in its own slot.
    A slot sums at most min(len a, len b) products, so it holds its number
    exactly when bits(max |a|) + bits(max |b|) + bits(min(len a, len b)),
    plus 1 when a number is negative, is at most 64.  Signed numbers pack in
    two's complement: flipping the top bit of each slot adds 2^63 to it, so
    the packed int minus that bias is the operand, and the product plus the
    bias has every slot in [0, 2^64).
    """
    a_nums = [n for _, _, n in a]
    b_nums = a_nums if square else [n for _, _, n in b]
    a_min, a_max = min(a_nums), max(a_nums)
    b_min, b_max = (a_min, a_max) if square else (min(b_nums), max(b_nums))
    signed = a_min < 0 or b_min < 0
    if (
        max(a_max, -a_min).bit_length() + max(b_max, -b_min).bit_length()
        + min(len(a), len(b)).bit_length() + signed > 64
    ):
        return None
    a_degs = [d for _, d, _ in a]
    b_degs = a_degs if square else [d for _, d, _ in b]
    a_low, b_low = min(a_degs), min(b_degs)
    a_span, b_span = max(a_degs) - a_low + 1, max(b_degs) - b_low + 1
    if a_span > _SLOT_SPAN * len(a) or b_span > _SLOT_SPAN * len(b):
        return None
    fmt, top = ("<%dq", _SLOT_TOP) if signed else ("<%dQ", b"")
    A = _slot_int(a_degs, a_nums, a_low, a_span, fmt, top)
    B = A if square else _slot_int(b_degs, b_nums, b_low, b_span, fmt, top)
    low = a_low + b_low
    n = min(a_span + b_span - 1, cap - low)
    if n <= 0:
        return []
    bias = int.from_bytes(top * n, "little")
    product = ((A * B + bias) & ((1 << 64 * n) - 1)) ^ bias
    values = unpack(fmt % n, product.to_bytes(8 * n, "little"))
    return [(low + i, v) for i, v in enumerate(values) if v]


def mul_terms(a, b, field, cap):
    """The exact product of numerator dicts `a` and `b` over `field`,
    keeping the terms of total degree < cap, zero-free.

    Over GF(p) the values are residues, over QQ integer numerators; the
    product's are those of the product of the operands' denominators.  Keys
    are exponent tuples, all of one length, or plain degrees for univariate
    dicts; the product has keys of the same kind.  See the module docstring
    for how the product is accumulated.  A univariate product whose integer
    numbers fit 64-bit slots is one big-int multiply (`_slot_product`, by
    the rule in the module docstring); a square (`a is b`) packs its
    operand once, and on the pairwise loop computes each cross product once.
    """
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= 2:
        # each term of a monomial or binomial shifts and scales b and the
        # parts are added, with no packing (from three terms on, packing wins
        # over QQ)
        out = {}
        for ea, ca in a.items():
            if isinstance(ea, int):
                part = {ea + k: ca * cb for k, cb in b.items() if ea + k < cap}
            elif not any(ea):  # a constant only scales
                part = {k: ca * cb for k, cb in b.items() if sum(k) < cap}
            else:
                room = cap - sum(ea)
                part = {tuple(map(add, ea, k)): ca * cb for k, cb in b.items() if sum(k) < room}
            if not out:
                out = part
                continue
            for e, c in part.items():
                out[e] = out[e] + c if e in out else c
        return field_terms(field, out.items(), None)
    key = next(iter(a))
    square = a is b
    a = _packed(a, cap)
    b = a if square else _packed(b, cap)
    if not a or not b:
        return {}
    b.sort(key=itemgetter(1))
    if min(len(a), len(b)) >= _SLOT_MIN_TERMS and (isinstance(key, int) or len(key) == 1):
        items = _slot_product(a, b, cap, square)
        if items is not None:
            return field_terms(field, _unpacked(items, key, cap), None)
    b_degs = [d for _, d, _ in b]
    inner = [(k, n) for k, _, n in b]
    # a list indexed by packed key, unless fewer pairs than slots
    size = max(k for k, _, _ in a) + max(k for k, _ in inner) + 1
    acc = [0] * size if len(a) * len(b) >= size else defaultdict(int)
    if square:
        # a is sorted too: each pair i < j once, doubled, and the diagonal
        for i, (ka, da, na) in enumerate(a):
            if 2 * da >= cap:
                break
            acc[2 * ka] += na * na
            na += na
            for kb, nb in inner[i + 1 : bisect_left(b_degs, cap - da)]:
                acc[ka + kb] += na * nb
    else:
        for ka, da, na in a:
            for kb, nb in inner[: bisect_left(b_degs, cap - da)]:
                acc[ka + kb] += na * nb
    items = acc.items() if isinstance(acc, dict) else enumerate(acc)
    return field_terms(field, _unpacked(((k, n) for k, n in items if n), key, cap), None)


def pow_terms(terms, n, field, cap):
    """The n-th power (n >= 1) of term dict `terms`, truncated like
    `mul_terms`, by square-and-multiply."""
    out = None
    while n:
        if n & 1:
            out = terms if out is None else mul_terms(out, terms, field, cap)
        n >>= 1
        if n:
            terms = mul_terms(terms, terms, field, cap)
    return out


def _over_common(g, n0, common, table, filled):
    """(numerator, common): g / (n0 * common) reduced and put over the running
    common denominator, which grows to a multiple of the reduced one when
    needed, rescaling the numerators at `filled` in `table` by that factor."""
    c = gcd(g, n0 * common) * (1 if n0 > 0 else -1)
    num, below = g // c, n0 * common // c
    grow = below // gcd(common, below)
    common *= grow
    for i in filled if grow != 1 else ():
        table[i] *= grow
    return num * (common // below), common


def quotient_numerators(a, a_den, w, w_den, field, cap):
    """(numerators, den), content-free, of the quotient a / w of the
    numerator dict `a` over a_den by the unit with numerator dict `w` over
    w_den, keeping the terms of total degree < cap; keys as in `mul_terms`.
    The inverse of w is the case a = 1.

    By the coefficient recurrence of power-series division (Knuth, TAOCP
    vol. 2, 4.7), in order of total degree from ord a upward,
    Q_m = (a_m - sum_{k != 0} w_k Q_{m-k}) / w_0.  Each Q_m is one sum of
    products of plain numbers, reduced once.  Over GF(p) these are
    residues, with -w_k/w_0 and a_m/w_0 taken once per term.  Over QQ the
    recurrence runs on A = a * a_den * w_den / g, g = gcd(a_den, w_den), an
    int dict, and the result is divided by a_den / g at the end.  Its
    numbers are the numerators n_k of w and those of Q_0, ..., Q_{m-1} over
    their running common denominator, the lcm of their own:
    Q_m = (A_m * common - sum) / (n_0 * common) (`_over_common`, which
    grows common and rescales the stored ones).  Only the terms of w with
    deg k <= deg m - ord a enter Q_m, and a unit of one term only scales a.

    Degree and 1-tuple keys are read once into lists by degree: Q_m is one
    C-level dot product of the at most deg w terms before it with w's
    numbers reversed when deg w <= _SLOT_SPAN * t, else of the t that w's terms
    reach.  Bivariate keys pack as i*2cap + j (`_packed`) into a zero table
    at an offset of cap*2cap: for a k of w not below m in both exponents,
    m - k lands below the offset or on a j slot >= cap, where none is kept.
    """
    key = next(iter(w), None)
    zero = (0,) * len(key) if isinstance(key, tuple) else 0
    n0 = w.get(zero)
    if n0 is None or field.is_zero(n0):
        raise MadicError("series is not a unit")
    if zero == (0,):  # as degree keys, which pack to themselves
        a, w = {e: c for (e,), c in a.items()}, {e: c for (e,), c in w.items()}
    p = field.characteristic
    top = _packed(a, cap, 2 * cap) if a else []
    if not top:
        return {}, 1
    low = min(d for _, d, _ in top)
    if p:
        first, scale = pow(n0, p - 2, p), 1
        top = {k: first * c % p for k, _, c in top}
    else:
        g = gcd(a_den, w_den)
        first, scale = w_den // g, a_den // g
        top = {k: c * first for k, _, c in top}
    rest = sorted((d, k, c) for k, d, c in _packed(w, cap, 2 * cap) if 0 < d < cap - low)
    if not rest:
        if p:
            return dict(_unpacked(top.items(), key, 2 * cap)), 1
        nums = dict(_unpacked(((k, c if n0 > 0 else -c) for k, c in top.items()), key, 2 * cap))
        return content_free(nums, scale * abs(n0))
    degs, keys = [d for d, _, _ in rest], [k for _, k, _ in rest]
    coeffs = [-first * c % p for _, _, c in rest] if p else [c for _, _, c in rest]
    lead, common, filled = top.get, 1, []
    if zero in (0, (0,)):  # Q[D + i] is Q_{low+i}, after D zeros; rev[j] is coeffs' for D - j
        D, Q, rev = degs[-1], [0] * degs[-1], dict(zip(degs, coeffs))
        rev = list(map(rev.get, range(D, 0, -1), repeat(0))) if D <= _SLOT_SPAN * len(degs) else None
        for i, c in enumerate(map(lead, range(low, cap), repeat(0))):
            if rev:
                g = sum(map(mul, Q[i:], rev)) if i >= D else sum(map(mul, Q[D:], rev[D - i :]))
            else:
                g = sum(map(mul, coeffs, map(Q.__getitem__, map(sub, repeat(D + i), degs))))
            g = (g + c) % p if p else c * common - g
            if g and not p:
                g, common = _over_common(g, n0, common, Q, filled)
                filled.append(len(Q))
            Q.append(g)
        nums = {e: q for e, q in zip(zip(range(low, cap)) if zero else range(low, cap), Q[D:]) if q}
    else:
        width, offset = 2 * cap, 2 * cap * cap
        table = [0] * (offset + (cap - 1) * width + 1)
        for d in range(low, cap):
            t = bisect_right(degs, d - low)
            ks, cs = keys[:t], coeffs[:t]
            for m in range(offset + d, offset + d * width + 1, width - 1):
                g = sum(map(mul, cs, map(table.__getitem__, map(sub, repeat(m), ks))))
                c = lead(m - offset, 0)
                g = (g + c) % p if p else c * common - g
                if g:
                    if not p:
                        g, common = _over_common(g, n0, common, table, filled)
                    table[m] = g
                    filled.append(m)
        nums = dict(_unpacked(((m - offset, table[m]) for m in filled), key, 2 * cap))
    return content_free(nums, common * scale) if scale != 1 else (nums, common)


class TruncatedSeries(ExactForm):
    """k[[x]] or k[[x, y]] mod m^precision: content-free numerators `nums`
    over `den` (see the module docstring), and the view `terms`."""

    __slots__ = ("precision",)

    def __init__(self, field, vars, precision, terms):
        vars = tuple(vars)
        if len(vars) not in (1, 2):
            raise MadicError("series live in one or two variables")
        if precision <= 0:
            raise MadicError("precision must be positive")
        self.field, self.vars, self.precision = field, vars, precision
        self.nums, self.den = exact_form(field, {e: c for e, c in terms.items() if sum(e) < precision})

    # -- constructors -------------------------------------------------

    @classmethod
    def _of_nums(cls, field, vars, precision, nums, den):
        """A series of content-free, nonzero numerators `nums` of degree <
        precision over `den`, as the kernels return them, kept, not copied."""
        out = cls.__new__(cls)
        out.field, out.vars, out.precision = field, vars, precision
        out.nums, out.den = nums, den
        return out

    def _like(self, nums, den):
        return TruncatedSeries._of_nums(self.field, self.vars, self.precision, nums, den)

    @classmethod
    def zero(cls, vars, precision, field=QQ):
        return cls(field, vars, precision, {})

    @classmethod
    def constant(cls, value, vars, precision, field=QQ):
        c = value if isinstance(value, int) else field.convert(value)
        return cls(field, vars, precision, {(0,) * len(vars): c})

    @classmethod
    def from_polynomial(cls, p, precision):
        out = cls(p.field, p.vars, precision, {})
        nums = {e: n for e, n in p.nums.items() if sum(e) < precision}
        out.nums, out.den = content_free(nums, p.den)
        return out

    # -- basics -------------------------------------------------------

    def _key(self):
        return self.field, self.vars, self.precision

    def _tail(self):
        return f" + O(m^{self.precision})"

    def order(self):
        if not self.nums:
            return OrderValue.at_least(self.precision)
        return OrderValue(min(sum(e) for e in self.nums))

    def is_unit(self):
        return (0,) * len(self.vars) in self.nums

    def truncate(self, precision):
        if precision > self.precision:
            raise PrecisionError(f"cannot raise precision {self.precision} -> {precision}")
        if precision <= 0:
            raise PrecisionError(f"cannot truncate to precision {precision}")
        if precision == self.precision:
            return self
        nums = {e: n for e, n in self.nums.items() if sum(e) < precision}
        return TruncatedSeries._of_nums(
            self.field, self.vars, precision, *content_free(nums, self.den)
        )

    # -- arithmetic ---------------------------------------------------

    def _plus(self, other, sign):
        """self + sign * other, at the lower precision."""
        other = self._check(other)
        prec = min(self.precision, other.precision)
        a, b = self.truncate(prec), other.truncate(prec)
        nums, den = summed([(a.nums, a.den), (b.nums, sign * b.den)], self.field)
        return TruncatedSeries._of_nums(self.field, self.vars, prec, nums, den)

    def __mul__(self, other):
        other = self._check(other)
        f, prec = self.field, min(self.precision, other.precision)
        nums = mul_terms(self.nums, other.nums, f, prec)
        return TruncatedSeries._of_nums(f, self.vars, prec, *content_free(nums, self.den * other.den))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise MadicError("negative series power")
        if n == 0:
            return TruncatedSeries.constant(1, self.vars, self.precision, self.field)
        nums = pow_terms(self.nums, n, self.field, self.precision)
        return self._like(*content_free(nums, self.den ** n))

    def inverse(self, precision=None):
        """Multiplicative inverse of a unit to `precision` (default and at
        most the series' own; the inverse is unique modulo m^precision), by
        the coefficient recurrence of `quotient_numerators` with a = 1."""
        if precision is None:
            precision = self.precision
        elif precision > self.precision:
            raise PrecisionError(f"cannot invert at precision {precision} > {self.precision}")
        elif precision <= 0:
            raise PrecisionError(f"cannot invert at precision {precision}")
        one = {(0,) * len(self.vars): 1}
        nums, den = quotient_numerators(one, 1, self.nums, self.den, self.field, precision)
        return TruncatedSeries._of_nums(self.field, self.vars, precision, nums, den)

    def over(self, w, precision=None):
        """The quotient self / w by a unit w to `precision` (default and at
        most the lower of the two; the quotient is unique modulo
        m^precision), by the coefficient recurrence of
        `quotient_numerators`: no inverse of w is formed."""
        self._check(w)
        most = min(self.precision, w.precision)
        if precision is None:
            precision = most
        elif precision > most:
            raise PrecisionError(f"cannot divide at precision {precision} > {most}")
        elif precision <= 0:
            raise PrecisionError(f"cannot divide at precision {precision}")
        nums, den = quotient_numerators(self.nums, self.den, w.nums, w.den, self.field, precision)
        return TruncatedSeries._of_nums(self.field, self.vars, precision, nums, den)

    def __repr__(self):
        return f"<series {self}>"


class SeriesVector:
    """A nonempty tuple of series over a common ring at uniform precision."""

    def __init__(self, entries):
        entries = list(entries)
        if not entries:
            raise MadicError("empty series vector")
        first = entries[0]
        for s in entries[1:]:
            first._check(s)
            if s.precision != first.precision:
                raise MadicError("series vector requires uniform precision")
        self.entries = entries
        self.vars = first.vars
        self.field = first.field
        self.precision = first.precision

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def order(self):
        """Min of the coordinate orders (the vector norm's exponent)."""
        finite = [s.order() for s in self.entries]
        vals = [o for o in finite if o.finite]
        if not vals:
            return OrderValue.at_least(self.precision)
        return min(vals, key=lambda o: o.value)

    def __str__(self):
        return "(" + ", ".join(str(s) for s in self.entries) + ")"


def substitute_numerators(nums, den, through, images, width, field, cap):
    """(numerators, den), content-free, below total degree cap, of the
    numerator dict `nums` over `den` with images substituted for some of its
    variables.

    Over a prime `field`, `nums` over `den` may also be the form of a QQ
    polynomial: its numbers are read mod p.  Each (i, p) in `through`
    carries exponent i to position p of the result's keys, tuples of length
    `width`; each (i, nums, den, order) in `images` replaces the variable of
    exponent i by the numerator dict `nums` over den, keyed like the result,
    of that order (cap or more for a zero image).

    A term c * s * M, with s its monomial in the carried variables and M the
    one in the replaced ones, is dropped before any product when deg(s) +
    sum x_i * order_i over the x_i-th powers in M reaches cap.  The others
    are grouped as sum C_M * M, the C_M over den; M's value, over the
    product of its images' denominators, is the cached value of its prefix
    times the cached power of its last variable, both through `mul_terms`.
    """
    p = field.characteristic
    if p:  # den is 1 unless nums over den is a QQ polynomial's
        scale, den = field.inv(den), 1
    groups = {}
    for e, c in nums.items():
        low = 0
        mono = []
        for i, _, _, o in images:
            x = e[i]
            if x:
                low += x * o
                mono.append((i, x))
        key = [0] * width
        for i, q in through:
            key[q] = e[i]
            low += e[i]
        if low < cap and (c := c * scale % p if p else c):
            groups.setdefault(tuple(mono), {})[tuple(key)] = c
    image = {i: (z, d) for i, z, d, _ in images}
    # values of monomials in the replaced variables, keyed like the groups
    values = {}

    def value(mono):
        # extend the longest cached prefix one variable at a time
        n = len(mono)
        while n and mono[:n] not in values:
            n -= 1
        out = values[mono[:n]] if n else None
        for k in range(n, len(mono)):
            power = values.get(mono[k : k + 1])
            if power is None:
                i, x = mono[k]
                z, d = image[i]
                power = values[mono[k : k + 1]] = pow_terms(z, x, field, cap), d ** x
            out = power if out is None else (mul_terms(out[0], power[0], field, cap), out[1] * power[1])
            values[mono[: k + 1]] = out
        return out

    parts = []
    for mono, coeffs in groups.items():
        if mono:
            vals, d = value(mono)
            coeffs = mul_terms(coeffs, vals, field, cap)
        parts.append((coeffs, d * den if mono else den))
    return summed(parts, field)


def evaluate(f, zbar, assignment):
    """Substitute a series vector into a polynomial, exactly modulo m^N for
    N the vector's precision: series variables of f map to themselves, and
    each other variable v to coordinate assignment[v] of `zbar`."""
    prec, svars = zbar.precision, zbar.vars
    through, images = [], []
    for i, v in enumerate(f.vars):
        if v in svars:
            through.append((i, svars.index(v)))
        elif v in assignment:
            z = zbar[assignment[v]]
            images.append((i, z.nums, z.den, min(map(sum, z.nums), default=prec)))
        elif any(e[i] for e in f.nums):
            raise MadicError(f"unassigned unknown {v!r} in evaluation")
    nums, den = substitute_numerators(f.nums, f.den, through, images, len(svars), zbar.field, prec)
    return TruncatedSeries._of_nums(zbar.field, svars, prec, nums, den)

