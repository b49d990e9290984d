"""Sparse exact multivariate polynomials, Jacobian matrices and minors.

A polynomial is a map from exponent tuples to nonzero coefficients, together
with an ordered variable universe and a coefficient field.  All arithmetic is
exact; no zero coefficient is ever stored.

A Polynomial is a `fields.ExactForm`, as a series is: integer numerators
`nums`, content-free over one positive denominator `den`, and over GF(p)
the residues over 1.  The base class gives the ring check, sums,
differences, negation, `==`, `hash`, printing and the `terms` view (Fractions
over QQ, built on each read).  This module gives the constructors and the
operations only a polynomial has; every operation, the Groebner engine's
results included, builds its output through `_of_nums`.

Products, powers and substitutions run on the series kernels, with a cap
above the result's degree so that nothing is truncated.

The degree of the zero polynomial is the distinguished marker NEG_INF, which
compares below every integer.
"""

from __future__ import annotations

import itertools
from math import comb, prod
from operator import mul

from .errors import DomainMismatchError, MadicError
from .fields import QQ, ExactForm, check_same_field, content_free, exact_form, field_terms, summed
from .series import mul_terms, pow_terms, substitute_numerators

# Degree of the zero polynomial.
NEG_INF = float("-inf")


class Polynomial(ExactForm):
    """Numerators `nums` over `den` (see the module docstring), and `terms`."""

    __slots__ = ()

    def __init__(self, field, vars, terms):
        self.field = field
        self.vars = tuple(vars)
        self.nums, self.den = exact_form(field, terms)

    # -- constructors -------------------------------------------------

    @classmethod
    def _of_nums(cls, field, vars, nums, den):
        """A polynomial of content-free, nonzero numerators `nums` over
        `den`, as the kernels return them, kept, not copied."""
        out = cls.__new__(cls)
        out.field, out.vars, out.nums, out.den = field, vars, nums, den
        return out

    def _like(self, nums, den):
        return Polynomial._of_nums(self.field, self.vars, nums, den)

    @classmethod
    def zero(cls, vars, field=QQ):
        return cls(field, vars, {})

    @classmethod
    def constant(cls, value, vars, field=QQ):
        return cls(field, vars, {(0,) * len(vars): field.convert(value)})

    # -- structural helpers -------------------------------------------

    def _key(self):
        return self.field, self.vars

    def degree(self):
        """Max total degree, NEG_INF for the zero polynomial."""
        if not self.nums:
            return NEG_INF
        return max(sum(e) for e in self.nums)

    def extend_vars(self, new_vars):
        """Re-embed into a larger (or reordered) variable universe."""
        new_vars = tuple(new_vars)
        pos = []
        for v in self.vars:
            if v not in new_vars:
                raise MadicError(f"variable {v!r} missing from new universe")
            pos.append(new_vars.index(v))
        nums = {}
        for e, n in self.nums.items():
            ne = [0] * len(new_vars)
            for p, x in zip(pos, e):
                ne[p] = x
            nums[tuple(ne)] = n
        return Polynomial._of_nums(self.field, new_vars, nums, self.den)

    # -- arithmetic ---------------------------------------------------

    def _plus(self, other, sign):
        """self + sign * other."""
        other = self._check(other)
        return self._like(*summed([(self.nums, self.den), (other.nums, sign * other.den)], self.field))

    def __mul__(self, other):
        other = self._check(other)
        f, a, b = self.field, self.nums, other.nums
        if not a or not b:
            return self._like({}, 1)
        # cap one above the product's degree: nothing is truncated
        cap = max(map(sum, a)) + max(map(sum, b)) + 1
        return self._like(*content_free(mul_terms(a, b, f, cap), self.den * other.den))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise MadicError("negative polynomial power")
        if n == 0:
            return Polynomial.constant(1, self.vars, self.field)
        f, nums = self.field, self.nums
        power = pow_terms(nums, n, f, n * max(map(sum, nums), default=0) + 1)
        # n = 1 returns the argument, and no two polynomials share a dict
        power = dict(power) if power is nums else power
        return self._like(*content_free(power, self.den ** n))

    # -- calculus and substitution ------------------------------------

    def diff(self, name):
        """Formal partial derivative with respect to one variable."""
        if name not in self.vars:
            raise MadicError(f"unknown variable {name!r}")
        f, i = self.field, self.vars.index(name)
        # e -> e - 1 at i is one to one
        nums = field_terms(f, ((e[:i] + (e[i] - 1,) + e[i + 1:], n * e[i])
                               for e, n in self.nums.items() if e[i]), None)
        return self._like(*content_free(nums, self.den))

    def hasse(self, names):
        """Hasse derivatives in `names`: alpha -> T_alpha with f(u + t) =
        sum_alpha T_alpha(u) t^alpha.  Term c*u^e gives c * prod_j
        binom(e_j, alpha_j) * u^(e - alpha): no division by alpha!"""
        idx = [self.vars.index(v) for v in names]
        p, out = self.field.characteristic, {}
        for e, n in self.nums.items():
            for alpha in itertools.product(*(range(e[i] + 1) for i in idx)):
                k = n * prod(map(comb, (e[i] for i in idx), alpha))
                if p:
                    k %= p
                if k:
                    rest = list(e)
                    for i, a in zip(idx, alpha):
                        rest[i] -= a
                    # e -> e - alpha is one to one, so no two terms meet
                    out.setdefault(alpha, {})[tuple(rest)] = k
        return {a: self._like(*content_free(t, self.den)) for a, t in out.items()}

    def subs(self, mapping):
        """Substitute polynomials for variables.

        `mapping` sends variable names to Polynomial values over a common
        target universe; unmapped variables must exist in the target universe
        and map to themselves.  Only terms with a zero image drop.
        """
        if not mapping:
            return self
        target = next(iter(mapping.values()))
        tvars, field = target.vars, target.field
        through, images, weights = [], [], []
        for i, v in enumerate(self.vars):
            if v in mapping:
                img = mapping[v]
                if img.vars != tvars:
                    raise DomainMismatchError("substitution images disagree on universe")
                check_same_field(img.field, field)
                images.append((i, img.nums, img.den))
                weights.append(max(map(sum, img.nums), default=0))
            elif v in tvars:
                through.append((i, tvars.index(v)))
                weights.append(1)
            else:
                raise MadicError(f"unknown variable {v!r} (universe {tvars})")
        cap = max((sum(map(mul, e, weights)) for e in self.nums), default=0) + 1
        images = [(i, z, d, min(map(sum, z), default=cap)) for i, z, d in images]
        nums, den = substitute_numerators(self.nums, self.den, through, images, len(tvars), field, cap)
        return Polynomial._of_nums(field, tvars, nums, den)

    def __repr__(self):
        return f"<poly {self} over {self.field!r}>"


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
    dets = {1 << j: a for j, a in enumerate(M.entries[n - 1]) if not a.is_zero()}
    for row in reversed(M.entries[: n - 1]):
        above = {}
        for T, d in dets.items():
            for j, a in enumerate(row):
                if T >> j & 1 or a.is_zero():
                    continue
                # j sits after the columns of T below it in T + {j}
                odd = (T & ((1 << j) - 1)).bit_count() & 1
                S = T | 1 << j
                t = a * d
                if S in above:
                    above[S] = above[S] - t if odd else above[S] + t
                else:
                    above[S] = -t if odd else t
        dets = {S: d for S, d in above.items() if not d.is_zero()}
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
