"""Weierstrass preparation and division at finite precision, y-regularization
by a shear, the remainder of Euclidean division by the generic monic
polynomial, and certified exact division of truncated series.

Division is the classical x-adic recursion: slice the dividend and divisor
into coefficients of powers of x, then solve slice by slice, inverting the
unit part of the divisor's x^0 slice in k[[y]].  Stored terms are treated as
the exact representative of the series; results are truncated back to the
working precision.  Each slice is kept only to the y-degree the output can
reach, (N-1-i)(1 + r - ord(u)) for slice i at precision N.  Over GF(p),
when the residues fit 64-bit slots (see `weierstrass_divide`), each divisor
slice and each final quotient slice is packed once into one int, a slot
per y-degree, and a slice's products with the divisor are one big-int sum
read back once (Kronecker substitution); otherwise they are summed in one
integer pass.  A unit part of 1, as in a distinguished divisor, is not
multiplied at all.

Preparation returns the unit's inverse with the distinguished polynomial:
dividing y^r by u yields the inverse directly, and division needs nothing
else; a caller that wants the unit itself inverts it.  Certified division
by a fixed divisor goes through a PreparedDivisor: the shear, the
distinguished polynomial and the unit's inverse (or, for a unit or a
univariate divisor, its inverse) are computed once, on first use, and
reused for every dividend.  The per-dividend checks (exactness, precision,
remainder orders, quotient order) still run on every call, so each
quotient and each refusal is the one a fresh division would give.

The paper's generic Euclidean division returns only the remainder's
coefficients: Euclid runs on the V-slices of the dividend, and multiplying a
slice by a generic coefficient A_p is an exponent bump, so no polynomial
product and no quotient is formed.  The solver reads its reduced system from
numbers instead (`solver.ReducedRows`).
"""

from __future__ import annotations

import random
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from math import comb, lcm
from struct import pack, unpack

from .errors import MadicError, PrecisionError
from .fields import QQ, check_same_field, content_free, field_terms, summed
from .poly import Polynomial
from .series import OrderValue, TruncatedSeries, mul_terms, quotient_numerators


def y_regular_order(u):
    """Order of u(0, y) as a univariate series; a marker if it vanishes."""
    if len(u.vars) != 2:
        raise MadicError("y-regularity is a bivariate notion")
    degs = [e[1] for e in u.nums if e[0] == 0]
    if not degs:
        return OrderValue.at_least(u.precision)
    return OrderValue(min(degs))


class LinearChange:
    """The shear x -> x + lam*y, y -> y, the only linear change `regularize`
    needs.  Its inverse, the shear at -lam, is built on first use and kept,
    and the inverse of that is the change itself, held by a weak reference
    so that the pair is freed without the cyclic collector."""

    def __init__(self, lam, field=QQ):
        self.field = field
        self.lam = field.convert(lam)
        self._rows = None  # see _binomial_rows
        self._inverse = None  # the shear at -lam, or a weakref to its inverse

    def is_identity(self):
        return self.field.is_zero(self.lam)

    def inverse(self):
        inv = self._inverse
        if isinstance(inv, weakref.ref):
            inv = inv()
        if inv is None:
            inv = LinearChange(self.field.neg(self.lam), self.field)
            inv._inverse = weakref.ref(self)
            self._inverse = inv
        return inv

    def apply_series(self, s):
        """Substitute the shear into a bivariate truncated series.

        Monomials map to homogeneous polynomials of the same degree, so the
        m-adic order and the precision are preserved.  One pass: each term
        c x^i y^j adds c sum_k C(i, k) lam^k x^(i-k) y^(j+k), read from the
        binomial powers of x + lam*y, into one accumulator of the series'
        numerators.  The identity shear returns s itself.
        """
        if self.is_identity():
            return s
        if len(s.vars) != 2:
            raise MadicError("linear changes act on bivariate series")
        f = s.field
        check_same_field(f, self.field)
        N = s.precision
        if not s.nums:
            return s
        imax = max(i for i, _ in s.nums)
        # x^i -> xpow[i] / dx^i; each term carries dx^(imax-i) to share one
        # denominator
        xpow, dx = self._binomial_rows(imax)
        # packed key of x^(i-k) y^(j+k) is i*N + j - k*(N-1)
        acc = [0] * (N * N)
        for (i, j), n in s.nums.items():
            top, n = i * N + j, n * dx ** (imax - i)
            for k, c in xpow[i]:
                acc[top - k * (N - 1)] += n * c
        out = field_terms(f, ((divmod(k, N), v) for k, v in enumerate(acc) if v), None)
        return TruncatedSeries._of_nums(f, s.vars, N, *content_free(out, s.den * dx ** imax))

    def _binomial_rows(self, top):
        """The binomial powers of x + lam*y as (rows, den): with the image
        written (u x + v y) / den over its common denominator, row n, for
        n = 0..top, holds the nonzero (k, coefficient of x^(n-k) y^k) of
        (u x + v y)^n, reduced mod p over GF(p).  The rows stay on the
        change and grow on demand, so a change applied to many series
        expands each power once."""
        field = self.field
        if self._rows is None:
            den = self.lam.denominator  # 1 for a residue
            self._rows = ((den, self.lam.numerator), den, [])
        (u, v), den, rows = self._rows
        for n in range(len(rows), top + 1):
            row = [(k, comb(n, k) * u ** (n - k) * v ** k) for k in range(n + 1)]
            if field.characteristic:
                row = [(k, c % field.p) for k, c in row]
            rows.append([(k, c) for k, c in row if c])
        return rows, den

    def __repr__(self):
        return f"LinearChange({self.lam!r})"


_SHEAR_TRIES = 256
_SHEAR_SEED = 0


def regularize(u):
    """Find a shear x -> x + lam*y making u y-regular of order exactly ord(u).

    Over the rationals lam runs over 0, 1, 2, ...; over a prime field lam=0
    is tried first, then nonzero residues from a generator seeded with
    _SHEAR_SEED, so every run tries the same shears.  It gives up after
    _SHEAR_TRIES candidates.
    """
    o = u.order()
    if not o.finite:
        raise PrecisionError("series is zero to precision; cannot regularize")
    if o.value >= u.precision:
        raise PrecisionError("precision too low to certify the order")
    p = u.field.characteristic
    rng = random.Random(_SHEAR_SEED)
    for t in range(_SHEAR_TRIES):
        lam = rng.randrange(1, p) if p and t else t
        change = LinearChange(lam, u.field)
        v = change.apply_series(u)
        yo = y_regular_order(v)
        if yo.finite and yo.value == o.value:
            return change, v
    raise MadicError("no shear made the series y-regular of its order")


def from_y_coefficients(coords, vars, cap, field):
    """sum_j coords[j] y^j below total degree cap, over vars = (x, y), for
    coords[j] univariate in x: numerator n of x^d in coords[j] sits at key
    (d, j)."""
    parts = [({(d, j): n for (d,), n in s.nums.items() if d + j < cap}, s.den) for j, s in enumerate(coords)]
    return TruncatedSeries._of_nums(field, tuple(vars), cap, *summed(parts, field))


@dataclass
class DistinguishedPolynomial:
    """y^r + a_1(x) y^(r-1) + ... + a_r(x) with every a_i(0) = 0.

    `field` defaults to the coefficients' field, and to QQ for r = 0 with no
    field given; `prepare` always passes the field of the prepared series.
    """

    r: int
    coeffs: list  # univariate TruncatedSeries a_1 ... a_r
    field: object = None

    def __post_init__(self):
        if len(self.coeffs) != self.r:
            raise MadicError("need exactly r coefficient series")
        if self.field is None:
            self.field = self.coeffs[0].field if self.coeffs else QQ
        for a in self.coeffs:
            check_same_field(a.field, self.field)
            if len(a.vars) != 1:
                raise MadicError("coefficients must be univariate")
            if a.is_unit():
                raise MadicError("a_i(0) must vanish for a Weierstrass polynomial")

    def to_series(self, vars, precision):
        """The distinguished polynomial as a bivariate series in `vars`:
        sum_j c_j y^j for (c_0, ..., c_r) = (a_r, ..., a_1, 1)."""
        one = TruncatedSeries.constant(1, vars[:1], precision, self.field)
        return from_y_coefficients([*reversed(self.coeffs), one], vars, precision, self.field)

    def serialize(self):
        parts = [f"y^{self.r}"]
        for p, a in enumerate(self.coeffs, start=1):
            parts.append(f"[{a}] y^{self.r - p}" if self.r - p else f"[{a}]")
        return " + ".join(parts)


def _x_slices(terms):
    """Split bivariate terms into {x_exp: {y_exp: coeff}}."""
    slices = {}
    for (i, j), c in terms.items():
        slices.setdefault(i, {})[j] = c
    return slices


def _y_slice(sl, den):
    """A nonempty y-slice {degree: numerator} over den, sorted by degree, as
    (degrees, numerators, den)."""
    degs = sorted(sl)
    return degs, [sl[d] for d in degs], den


_NO_SLICE = ([], [], 1)


def _sub_products(fld, g, pairs, top):
    """(numerators, den), content-free, of g - sum of a*b over the (a, b) in
    `pairs`, all y-slices as `_y_slice` gives them, to y-degree < top: one
    integer accumulator over the lcm of the operands' denominators."""
    den = lcm(g[2], *(a[2] * b[2] for a, b in pairs))
    ops = [(a[0], a[1], b[0], b[1], den // (a[2] * b[2])) for a, b in pairs]
    acc = [0] * top
    g_degs, g_scale = g[0], den // g[2]
    for d, n in zip(g_degs[: bisect_left(g_degs, top)], g[1]):
        acc[d] = n * g_scale
    for a_degs, a_nums, b_degs, b_nums, scale in ops:
        for da, na in zip(a_degs, a_nums):
            lim = top - da
            if lim <= 0:
                break
            na *= scale
            for db, nb in zip(b_degs[: bisect_left(b_degs, lim)], b_nums):
                acc[da + db] -= na * nb
    return content_free(field_terms(fld, ((k, n) for k, n in enumerate(acc) if n), None), den)


def _slot_row(nums):
    """The int with nums[k], each in [0, 2^64), in its 64-bit slot k."""
    return int.from_bytes(pack("<%dQ" % len(nums), *nums), "little")


def _slot_values(x, n):
    """Slots 0..n-1 of the int x, as ints."""
    return unpack("<%dQ" % n, (x & ((1 << 64 * n) - 1)).to_bytes(8 * n, "little"))


def _slot_slices(p, gslices, uslices, e_inv, caps, r):
    """The slice recursion of `weierstrass_divide` over GF(p) on packed
    y-slices, as (quotient terms, [terms of rem_0, ..., rem_{r-1}]).

    Each divisor slice u_j (0 < j < N) is packed once, and each quotient
    slice once, when it is final, into one int with a 64-bit slot per
    y-degree.  Slice i's sum sum_j u_j q_{i-j} is then one big-int
    accumulation, read once below y-degree caps[i] + r + 1; g_i is
    subtracted and each slot reduced mod p once.  The product by the unit's
    inverse (e_inv, None when it is 1) is one more multiply.
    """
    N = len(caps)
    U = [(j, _slot_row([sl.get(k, 0) for k in range(max(sl) + 1)]))
         for j, sl in sorted(uslices.items()) if 0 < j < N]
    E = e_inv and _slot_row([e_inv.get(k, 0) for k in range(max(e_inv) + 1)])
    Q, q_terms, rem_terms = {}, {}, [{} for _ in range(r)]
    for i, cap in enumerate(caps):
        acc = 0
        for j, Uj in U:
            if j > i:
                break
            if i - j in Q:
                acc += Uj * Q[i - j]
        top = cap + r + 1
        h = [-v % p for v in _slot_values(acc, top)] if acc else [0] * top
        for k, c in gslices.get(i, {}).items():
            if k < top:
                h[k] = (h[k] + c) % p
        for k, c in enumerate(h[:r]):
            if c:
                rem_terms[k][(i,)] = c
        q = h[r:]
        if any(q):
            if E:
                q = [v % p for v in _slot_values(_slot_row(q) * E, cap + 1)]
            Q[i] = _slot_row(q)
            q_terms.update(((i, j), c) for j, c in enumerate(q[: N - i]) if c)
    return q_terms, rem_terms


def weierstrass_divide(g, u, r):
    """Divide g by a y-regular series u of order r:
    g = u*q + sum_j rem_j(x) y^j with j < r.

    Returns (q, [rem_0, ..., rem_{r-1}]); q is bivariate, the remainders are
    univariate series in x.  Stored terms are treated as exact; outputs are
    truncated to the common precision.

    Over GF(p) the slices are packed (`_slot_slices`) when
    2 bits(p-1) + bits(max(#terms of u, cap_0 + 1)) <= 64, cap_0 + 1 being
    N when ord(u) = r: a slot of a slice sum receives at most one product
    of two residues per term of u, and a slot of a product by the unit's
    inverse at most cap_0 + 1, so no slot overflows.  GF(32003) meets the
    rule; GF(2^31 - 1), and QQ, take the integer slice sums of
    `_sub_products`.
    """
    g._check(u)
    N = min(g.precision, u.precision)
    fld = g.field
    yo = y_regular_order(u)
    if not yo.finite or yo.value != r:
        raise MadicError(
            "divisor is not y-regular of the stated order; regularize first"
        )
    # Write u_j, g_j, q_j for the coefficients of x^j, series in y.  Slice
    # i of the quotient is q_i = (h_i div y^r) / (u_0 / y^r), with
    # h_i = g_i - sum_{j>=1} u_j q_{i-j}, and rem_i = h_i mod y^r.  With
    # s = r - ord(u) >= 0, u_j has y-order >= ord(u) - j, so q_i up to y^D
    # reads q_{i-j} only up to y^(D+j+s), and rem_i reads it only below
    # y^(j+s).  The output keeps q_i up to y^(N-1-i), so slice i keeps
    # y-degrees up to cap_i = (N-1-i)(1+s): these are the smallest caps
    # with cap_{i-j} >= cap_i + j + s for every j >= 1.  No dropped term
    # reaches a kept one, so the output is the exact division of the
    # stored terms, and for s = 0 slice i keeps only N - i degrees.
    s = r - u.order().value
    caps = [(N - 1 - i) * (1 + s) for i in range(N)]
    uslices = _x_slices(u.nums)
    gslices = _x_slices(g.nums)
    e_unit = {j - r: c for j, c in uslices.get(0, {}).items()}
    if min(e_unit) != 0:
        raise MadicError("divisor x^0 slice has unexpected y-order")
    # the unit's inverse to y-degree cap_0, by the coefficient recurrence;
    # None when it is 1 (a distinguished divisor), which multiplies nothing
    e_inv, e_den = quotient_numerators({0: 1}, 1, e_unit, u.den, fld, caps[0] + 1)
    if e_inv == {0: 1} and e_den == 1:
        e_inv = None
    p = fld.characteristic
    if p and 2 * (p - 1).bit_length() + max(len(u.nums), caps[0] + 1).bit_length() <= 64:
        q_terms, rem_terms = _slot_slices(p, gslices, uslices, e_inv, caps, r)
        q, rems = (q_terms, 1), [(terms, 1) for terms in rem_terms]
    else:
        # each slice over its own denominator, joined over their lcm
        u_int = {j: _y_slice(sl, u.den) for j, sl in uslices.items() if 0 < j < N}
        q_int, q_parts, rem_parts = {}, [], [[] for _ in range(r)]
        for i in range(N):
            gi = gslices.get(i)
            pairs = [(uj, q_int[i - j]) for j, uj in u_int.items() if i - j in q_int]
            h, den = _sub_products(fld, _y_slice(gi, g.den) if gi else _NO_SLICE, pairs, caps[i] + r + 1)
            tail = {}
            for k, c in h.items():
                if k < r:
                    rem_parts[k].append(({(i,): c}, den))
                else:
                    tail[k - r] = c
            if e_inv is not None:
                tail, den = content_free(mul_terms(tail, e_inv, fld, caps[i] + 1), den * e_den)
            if tail:
                q_int[i] = _y_slice(tail, den)
                q_parts.append(({(i, j): c for j, c in tail.items() if i + j < N}, den))
        q, rems = summed(q_parts, fld), [summed(parts, fld) for parts in rem_parts]
    xvar = (g.vars[0],)
    rems = [TruncatedSeries._of_nums(fld, xvar, N, *rem) for rem in rems]
    return TruncatedSeries._of_nums(fld, g.vars, N, *q), rems


def prepare(u):
    """Weierstrass preparation: u = unit * dist, for u y-regular of order r.

    Returns (inverse_of_unit, dist).  Computed by dividing y^r by u; the
    remainder gives the distinguished coefficients and the quotient is the
    unit's inverse, so the unit itself is never computed (callers that want
    it call `.inverse()`).  For r = 0, u is the unit and its inverse is
    returned.  Deterministic, so re-running reproduces identical
    coefficients.
    """
    yo = y_regular_order(u)
    if not yo.finite:
        raise MadicError("series is not y-regular; apply regularize() first")
    r = yo.value
    if r >= u.precision:
        raise PrecisionError("y-regular order at or beyond precision")
    if r == 0:
        return u.inverse(), DistinguishedPolynomial(0, [], u.field)
    fld = u.field
    yr = TruncatedSeries(fld, u.vars, u.precision, {(0, r): 1})
    q, rems = weierstrass_divide(yr, u, r)
    # y^r = u*q + rem  =>  u*q = y^r - rem =: dist, and unit = q^{-1}
    coeffs = []
    for p in range(1, r + 1):
        coeffs.append(-rems[r - p])
    return q, DistinguishedPolynomial(r, coeffs, fld)


def w_divide(g, a):
    """Weierstrass division of a bivariate series by a distinguished
    polynomial: g = a*q + sum_{j<r} rem_j(x) y^j."""
    if a.r == 0:
        return g, []
    aser = a.to_series(g.vars, g.precision)
    return weierstrass_divide(g, aser, a.r)


def generic_euclid(P, r, v_var, a_vars):
    """Remainder of P by the generic monic polynomial
    A(V) = V^r + A_1 V^(r-1) + ... + A_r with indeterminate coefficients.

    Returns [R_0, ..., R_{r-1}], the coefficients of V^l in the remainder,
    as polynomials over P's universe extended by V and the A_p, with V at
    exponent 0.  Euclid on the V-slices of P: from the top degree e >= r
    down, slice P_e is popped and A_p * P_e subtracted from slice e - p,
    which is one exponent bump per term; the quotient is never built.
    """
    if len(a_vars) != r:
        raise MadicError("need exactly r generic coefficient variables")
    vars = tuple(P.vars) + tuple(v for v in (v_var, *a_vars) if v not in P.vars)
    P = P.extend_vars(vars)
    fld, p = P.field, P.field.characteristic
    vi = vars.index(v_var)
    # the slices hold numerators over P.den, residues over GF(p)
    slices = {}
    for e, n in P.nums.items():
        slices.setdefault(e[vi], {})[e[:vi] + (0,) + e[vi + 1:]] = n
    a_idx = [vars.index(a) for a in a_vars]
    for e in range(max(slices, default=-1), r - 1, -1):
        Pe = [(x, n) for x, n in slices.pop(e, {}).items() if n]
        for k, ai in enumerate(a_idx, start=1):
            low = slices.setdefault(e - k, {})
            for x, n in Pe:
                x = x[:ai] + (x[ai] + 1,) + x[ai + 1:]
                v = low.get(x, 0) - n
                low[x] = v % p if p else v
    rems = (field_terms(fld, slices.get(l, {}).items(), None) for l in range(r))
    return [Polynomial._of_nums(fld, vars, *content_free(nums, P.den)) for nums in rems]


class PreparedDivisor:
    """A divisor u prepared once for repeated certified exact division.

    Holds what every division by u needs and that depends on u alone: for a
    univariate u of order k, the unit u/x^k at precision u.precision - k,
    by which each dividend v/x^k is divided in one recurrence
    (`TruncatedSeries.over`, which forms no inverse); for a bivariate unit
    u, u^-1; for a bivariate u of order r, the shear from `regularize`
    (which keeps its inverse), the distinguished polynomial from `prepare`
    and the inverse of the unit.  The bivariate preparation runs on the
    first call of `prepare` or bivariate division, so constructing a
    divisor never raises: a u that cannot be prepared raises there.
    """

    def __init__(self, u):
        self.u = u
        self.order = u.order()
        self.change = None
        self.dist = None
        self._inverse = None  # u^-1 or the unit's inverse, bivariate
        self._shifted = None  # u / x^k, univariate

    def prepare(self):
        """Set `change` and `dist` of a bivariate u, once."""
        if self.dist is None:
            self.change, u_reg = regularize(self.u)
            self._inverse, self.dist = prepare(u_reg)

    def divide(self, v, w_quotient=None):
        """Certified exact division v / u; see `divide_series`."""
        u = self.u
        v._check(u)
        uo = self.order
        if not uo.finite:
            raise MadicError("division by a series that vanishes to precision")
        if len(v.vars) == 1:
            k = uo.value
            if any(e < k for e, in v.nums):
                raise MadicError("series division is not exact")
            if self._shifted is None:
                self._shifted = _shifted(u, k, u.precision - k)
            q = _shifted(v, k, min(v.precision, u.precision) - k).over(self._shifted)
        elif uo.value == 0:
            if self._inverse is None:
                self._inverse = u.inverse()
            q = v * self._inverse
        else:
            r = uo.value
            N = min(v.precision, u.precision)
            if N <= 2 * r + 1:
                raise PrecisionError("precision too low for series division")
            self.prepare()
            change = self.change
            if w_quotient is None:
                w_quotient = w_divide(change.apply_series(v), self.dist)[0]
            q = change.inverse().apply_series(w_quotient * self._inverse).truncate(N - r)
            # exact iff u*q gives v back to precision N; the remainders of
            # the division are fixed only below N - 2r
            if not (u * TruncatedSeries._of_nums(q.field, q.vars, N, q.nums, q.den) - v).is_zero():
                raise MadicError("series division is not exact")
        return q


def _shifted(s, k, precision):
    """s / x^k at `precision`, for a univariate s with no term below x^k."""
    if precision <= 0:
        raise MadicError("precision must be positive")
    if not k:
        return s.truncate(precision)
    nums = {(e - k,): n for (e,), n in s.nums.items() if e - k < precision}
    return TruncatedSeries._of_nums(s.field, s.vars, precision, *content_free(nums, s.den))


def divide_series(v, u, w_quotient=None):
    """Certified exact division v / u of truncated series.

    `u` is a series or a PreparedDivisor; pass a PreparedDivisor to divide
    many dividends by one u without preparing it again.  Raises MadicError
    when v is not a multiple of u to the available precision.  The
    quotient's precision drops by ord(u).  `w_quotient`, for a
    bivariate u, is the quotient of the sheared v by u's distinguished
    polynomial when the caller has it; every check still runs.
    """
    if not isinstance(u, PreparedDivisor):
        u = PreparedDivisor(u)
    return u.divide(v, w_quotient)
