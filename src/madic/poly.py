"""Sparse exact multivariate polynomials, Jacobian matrices and minors.

A polynomial is a map from exponent tuples to nonzero coefficients, together
with an ordered variable universe and a coefficient field.  All arithmetic is
exact; no zero coefficient is ever stored.

The degree of the zero polynomial is the distinguished marker NEG_INF, which
compares below every integer.
"""

from __future__ import annotations

import itertools

from .errors import DomainMismatchError, MadicError
from .fields import QQ, check_same_field, field_terms
from .monomials import divisor, reduce_terms, shared_packing

# Degree of the zero polynomial.
NEG_INF = float("-inf")


class Polynomial:
    __slots__ = ("field", "vars", "terms")

    def __init__(self, field, vars, terms):
        self.field = field
        self.vars = tuple(vars)
        self.terms = {e: c for e, c in terms.items() if not field.is_zero(c)}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars, field=QQ):
        return cls(field, vars, {})

    @classmethod
    def constant(cls, value, vars, field=QQ):
        c = field.convert(value)
        if field.is_zero(c):
            return cls(field, vars, {})
        return cls(field, vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, name, vars, field=QQ):
        vars = tuple(vars)
        if name not in vars:
            raise MadicError(f"unknown variable {name!r} (universe {vars})")
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(field, vars, {tuple(e): field.one()})

    @classmethod
    def monomial(cls, exponents, coeff, vars, field=QQ):
        c = field.convert(coeff)
        if field.is_zero(c):
            return cls(field, vars, {})
        return cls(field, vars, {tuple(exponents): c})

    # -- structural helpers -------------------------------------------

    def _check_compatible(self, other):
        check_same_field(self.field, other.field)
        if self.vars != other.vars:
            raise DomainMismatchError(
                f"variable universes differ: {self.vars} vs {other.vars}"
            )

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_coeff(self):
        return self.terms.get((0,) * len(self.vars), self.field.zero())

    def degree(self):
        """Max total degree, NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        if not self.terms:
            return NEG_INF
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def extend_vars(self, new_vars):
        """Re-embed into a larger (or reordered) variable universe."""
        new_vars = tuple(new_vars)
        pos = []
        for v in self.vars:
            if v not in new_vars:
                raise MadicError(f"variable {v!r} missing from new universe")
            pos.append(new_vars.index(v))
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vars)
            for p, x in zip(pos, e):
                ne[p] = x
            terms[tuple(ne)] = c
        return Polynomial(self.field, new_vars, terms)

    def used_vars(self):
        used = set()
        for e in self.terms:
            for v, x in zip(self.vars, e):
                if x:
                    used.add(v)
        return used

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int,)):
            other = Polynomial.constant(other, self.vars, self.field)
        self._check_compatible(other)
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = f.add(out.get(e, f.zero()), c)
        return Polynomial(f, self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return Polynomial(f, self.vars, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other, self.vars, self.field)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other, self.vars, self.field)
        self._check_compatible(other)
        f = self.field
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                prev = out.get(e)
                out[e] = f.mul(ca, cb) if prev is None else f.add(prev, f.mul(ca, cb))
        return Polynomial(f, self.vars, out)

    __rmul__ = __mul__

    def scale(self, c):
        f = self.field
        c = f.convert(c)
        return Polynomial(f, self.vars, {e: f.mul(cc, c) for e, cc in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise MadicError("negative polynomial power")
        out = Polynomial.constant(1, self.vars, self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.field == other.field
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.vars, frozenset(self.terms.items())))

    # -- calculus and substitution ------------------------------------

    def diff(self, name):
        """Formal partial derivative with respect to one variable."""
        if name not in self.vars:
            raise MadicError(f"unknown variable {name!r}")
        i = self.vars.index(name)
        f = self.field
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            coeff = f.mul(c, f.convert(e[i]))
            key = tuple(ne)
            out[key] = f.add(out.get(key, f.zero()), coeff)
        return Polynomial(f, self.vars, out)

    def subs(self, mapping):
        """Substitute polynomials for variables.

        `mapping` sends variable names to Polynomial values over a common
        target universe; unmapped variables must exist in the target universe
        and map to themselves.
        """
        if not mapping:
            return self
        target = next(iter(mapping.values()))
        tvars, field = target.vars, target.field
        images = []
        for v in self.vars:
            if v in mapping:
                img = mapping[v]
                if img.vars != tvars:
                    raise DomainMismatchError("substitution images disagree on universe")
                images.append(img)
            else:
                images.append(Polynomial.variable(v, tvars, field))
        out = Polynomial.zero(tvars, field)
        cache = [dict() for _ in self.vars]
        for e, c in self.terms.items():
            term = Polynomial.constant(c, tvars, field)
            for i, x in enumerate(e):
                if x == 0:
                    continue
                if x not in cache[i]:
                    cache[i][x] = images[i] ** x
                term = term * cache[i][x]
            out = out + term
        return out

    # -- printing -----------------------------------------------------

    def _sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda it: (sum(it[0]), it[0]), reverse=True
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self._sorted_terms():
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
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s

    def __repr__(self):
        return f"<poly {self} over {self.field!r}>"


def exact_div(p, g):
    """Exact division p / g; raises MadicError if g does not divide p.

    Single-divisor multivariate division by the heap-ordered reduction of
    the ideal engine, under degrevlex: a lone polynomial is a Groebner basis
    of the ideal it generates, so the remainder vanishes iff p is a
    multiple of g, and then the quotient is p / g whatever the order.
    """
    p._check_compatible(g)
    if g.is_zero():
        raise MadicError("division by the zero polynomial")
    f = p.field
    pk = shared_packing(len(p.vars), ((0, len(p.vars)),))
    table = {}
    gterms, _ = pk.pack_integers(g.terms, f, table)
    glt = pk.leading(gterms)
    d = divisor(gterms, glt, pk, f)
    terms, den = pk.pack_integers(p.terms, f, table)
    quo = {}
    rem, scale = reduce_terms(terms, [d], pk, f, quo)
    if rem:
        raise MadicError("polynomial division is not exact")
    # p = quo / (den * scale) * d, where d is g times (d's lc) / (g's lc):
    # the quotient is rescaled once, one field element per term
    lc = g.terms[table[glt]]
    if not f.characteristic:
        num, den = d[1] * lc.denominator, den * scale * lc.numerator
        quo = field_terms(f, ((q, c * num) for q, c in quo.items()), den)
    elif lc != 1:
        inv = f.inv(lc)
        quo = {q: c * inv % f.p for q, c in quo.items()}
    return Polynomial(f, p.vars, pk.unpack_terms(quo, table))


class PolyMatrix:
    """Dense matrix of polynomials over a shared universe, or of series
    over a shared ring."""

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise MadicError("ragged matrix")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self):
        return PolyMatrix([list(col) for col in zip(*self.entries)])

    def submatrix(self, rows, cols):
        return PolyMatrix([[self.entries[i][j] for j in cols] for i in rows])


def jacobian(fs, diff_vars):
    """Jacobian matrix: entry (i, j) is the partial of fs[i] by diff_vars[j].

    Rows index the equations, columns the differentiation variables.
    """
    if len(set(diff_vars)) != len(diff_vars):
        raise MadicError("differentiation variables must be distinct")
    return PolyMatrix([[f.diff(v) for v in diff_vars] for f in fs])


def determinant(M):
    """Exact determinant of a square matrix over a commutative ring.

    Entries may be Polynomials or TruncatedSeries of one precision: only
    +, - and * are used, never a division.  Laplace expansion along the
    rows, bottom up, computing each minor once: for a column subset S, the
    minor on the last |S| rows and the columns S is the signed sum over
    j in S of the row's entry j times the minor on S without j.  That is
    n*2^(n-1) - n products (9 at 3x3, 28 at 4x4); zero entries and zero
    minors are skipped.
    """
    n = M.rows
    if n != M.cols:
        raise MadicError("determinant of non-square matrix")
    if n == 0:
        raise MadicError("empty determinant handled by caller")
    # column subsets as bit masks
    dets = {1 << j: a for j, a in enumerate(M.entries[n - 1]) if a.terms}
    for row in reversed(M.entries[: n - 1]):
        above = {}
        for T, d in dets.items():
            for j, a in enumerate(row):
                if T >> j & 1 or not a.terms:
                    continue
                # j sits after the columns of T below it in T + {j}
                odd = (T & ((1 << j) - 1)).bit_count() & 1
                S = T | 1 << j
                t = a * d
                if S in above:
                    above[S] = above[S] - t if odd else above[S] + t
                else:
                    above[S] = -t if odd else t
        dets = {S: d for S, d in above.items() if d.terms}
    full = dets.get((1 << n) - 1)
    if full is None:
        z = M[0, 0]
        return z - z
    return full


def minors(M, h):
    """All h x h minors of M; h=0 yields [1], h above a dimension yields []."""
    if h < 0:
        raise MadicError("negative minor size")
    if h > M.rows or h > M.cols:
        return []
    some = M[0, 0] if M.rows else None
    if h == 0:
        if some is None:
            raise MadicError("cannot build minors of an empty matrix at h=0")
        return [Polynomial.constant(1, some.vars, some.field)]
    out = []
    for rows in itertools.combinations(range(M.rows), h):
        for cols in itertools.combinations(range(M.cols), h):
            out.append(determinant(M.submatrix(rows, cols)))
    return out
