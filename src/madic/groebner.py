"""Groebner-basis engine: Buchberger, membership, intersection, colon ideals,
the Elkik Jacobian ideal and radical membership via the Rabinowitsch trick.

Default order is degrevlex.  Ideal equality is decided by mutual
normal-form reduction of generators, never by comparing bases.

Inside the engine a monomial is one packed int laid out for the order (see
`monomials`): a product is one add, a divisibility test a subtract and a
mask, an order key one xor.  `_groebner` is the packed core: packed integer
term dicts in, the reduced basis out as (numerators, leading coefficient)
pairs; `buchberger` is its Polynomial face.  Intersections and colons stay
packed from the first intersection to the Ideal that `colon` returns, whose
Polynomials are built when a caller reads them.  The tag variable t of an
intersection is the top field of a block(1) packing of (t, x), whose lower
block is the degrevlex packing of x bit for bit: t*g adds t's unit to each
monomial, and a t-free basis element is already packed for x.  Radical
membership enters a cached degrevlex basis as a known Groebner basis, with
w put first, so that degrevlex on the w-free monomials is the old order.
Every basis element is prepared once (leading monomial, leading
coefficient, negated tail, the tail's fieldwise maximum for the overflow
check), and an Ideal keeps the prepared divisors of its cached basis.

The generators enter by total degree, each reduced by the basis so far,
and S-pairs are taken by least sugar, then least lcm (Giovini, Mora,
Niesi, Robbiano, Traverso, ISSAC 1991): a generator's sugar is its total
degree, a pair's is max over its i, j of sugar_i + deg lcm - deg lt_i, and
a new element inherits its pair's.  When an element h joins, the
Gebauer-Moeller update (JSC 1988) runs once, on plain ints restricted to
their exponent fields: it keeps one new pair per minimal lcm and drops the
coprime ones, drops each old pair (i, j) whose lcm lt_h divides and
differs from lcm(i, h) and lcm(j, h), and an element whose leading
monomial lt_h divides makes no new pairs.  A nonzero constant ends the run.

Over QQ the engine works on integers from packing to unpacking: a
polynomial enters as its numerators, a prepared divisor is a primitive
integer polynomial with a positive leading coefficient, every reduction
returns (rem, scale) with remainder rem / scale (see `monomials`), and
S-polynomials cross-multiply by the leading coefficients over their gcd.
A reduced basis element leaves as its integer remainder over its leading
coefficient.  Over GF(p) divisors are monic and coefficients are residues
throughout.  No Fraction is built.
"""

from __future__ import annotations

import functools
import itertools
from heapq import heapify, heappop, heappush
from math import gcd
from operator import itemgetter

from .errors import CapacityError, DomainMismatchError, MadicError
from .fields import content_free
from .monomials import FIELD_BITS, MAX_EXPONENT, divisor, reduce_terms, shared_packing
from .poly import Polynomial, jacobian, minors

ELKIK_SUBSET_CAP = 20


class MonomialOrder:
    """A global monomial order: degrevlex, lex, or a two-block elimination
    order (first `split` variables dominate, degrevlex inside each block)."""

    def __init__(self, kind="degrevlex", split=0):
        if kind not in ("degrevlex", "lex", "block"):
            raise MadicError(f"unknown monomial order {kind!r}")
        self.kind = kind
        self.split = split

    def packing(self, nvars):
        """The packed monomial layout of this order on `nvars` variables."""
        if self.kind == "lex":
            blocks = [(i, i + 1) for i in range(nvars)]
        else:
            k = min(self.split, nvars)
            blocks = [b for b in ((0, k), (k, nvars)) if b[0] < b[1]]
        return shared_packing(nvars, tuple(blocks))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.split == other.split
        )

    def __repr__(self):
        if self.kind == "block":
            return f"block({self.split})"
        return self.kind


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")
_TAGGED = MonomialOrder("block", split=1)  # the tag variable t of `intersect` first


def normal_form_terms(terms, divisors, packing, field):
    """Fully reduce a packed integer term dict, which is consumed, by
    prepared divisors: (rem, scale) with remainder rem / scale (see
    `monomials.reduce_terms`).  Groebner reductions enter the kernel here,
    so traces count them apart from exact division."""
    return reduce_terms(terms, divisors, packing, field)


def _divisors(polys, packing, table):
    """Prepared divisors of the nonzero polynomials, in list order."""
    out = []
    for g in polys:
        if not g.is_zero():
            terms = packing.pack_terms(g.nums, table)
            out.append(divisor(terms, packing.leading(terms), packing, g.field))
    return out


def normal_form(p, basis, order=DEGREVLEX):
    """Normal form of p modulo a Groebner basis; zero iff p is a member."""
    table = {}
    pk = order.packing(len(p.vars))
    divisors = _divisors(basis, pk, table)
    rem, scale = normal_form_terms(pk.pack_terms(p.nums, table), divisors, pk, p.field)
    return Polynomial._of_nums(p.field, p.vars, *content_free(pk.unpack_terms(rem, table), p.den * scale))


def buchberger(gens, order=DEGREVLEX):
    """Reduced Groebner basis of the ideal generated by `gens`: the packed
    core `_groebner` on their numerators, under `order`."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    field, vars = gens[0].field, gens[0].vars
    for g in gens:
        if g.vars != vars or g.field != field:
            raise DomainMismatchError("generators over different rings")
    pk, table = order.packing(len(vars)), {}
    minimal = _groebner([(pk.pack_terms(g.nums, table), g.degree()) for g in gens], pk, field)
    return _polys(_reduce_basis(minimal, pk, field), pk, field, vars, table)


def _groebner(gens, pk, field, known=()):
    """A minimal Groebner basis, as prepared divisors, of `gens`, (packed
    integer term dict, total degree) pairs whose dicts are consumed, and of
    `known`, the prepared divisors of a reduced basis under a degree order,
    with no S-pair among them; the basis 1 as soon as a nonzero constant
    joins.  `_reduce_basis` makes it reduced."""
    G, E, flip, S = pk.guard, pk.exponents, pk.flip, FIELD_BITS - 1
    basis = list(known)
    exps = [d[0] & E for d in basis]  # leading monomials on their exponent fields alone
    excess = [0] * len(basis)  # sugar less the degree of the leading monomial
    live = list(range(len(basis)))  # elements whose leading monomial no later one divides
    pairs = []  # heap of (sugar, lcm key, i, j, lcm, lcm's exponent fields)

    def join(rem, sugar):
        """Append rem to the basis and update the pairs (Gebauer-Moeller)."""
        nonlocal pairs, live
        lt = next(iter(rem))
        v, h = lt & E, len(basis)
        ex = sugar - sum(pk.unpack(lt))
        # the fieldwise max of e and v: v's fields, and e's where e >= v
        lcms = [(e & (s := (ge := ((e | G) - v) & G) - (ge >> S))) | (v & ~s) for e in exps]
        # an old pair whose lcm lt_h divides, and differs from both its
        # lcms with h, is covered by those
        kept = [p for p in pairs if (((w := p[5]) | G) - v) & G != G or lcms[p[2]] == w or lcms[p[3]] == w]
        if len(kept) < len(pairs):
            heapify(kept)
            pairs = kept
        # one new pair per minimal lcm, none where a pair of that lcm is
        # coprime; a proper divisor is a smaller int, so it comes first
        by_lcm = {}
        for k in live:
            by_lcm.setdefault(lcms[k], []).append(k)
        minimal = []
        for m in sorted(by_lcm):
            if any(((m | G) - d) & G == G for d in minimal):
                continue
            minimal.append(m)
            if all(m != exps[k] + v for k in by_lcm[m]):
                k = by_lcm[m][0]
                lcm, deg = pk.with_degrees(m)
                heappush(pairs, (deg + max(excess[k], ex), lcm ^ flip, k, h, lcm, m))
        live = [k for k in live if ((exps[k] | G) - v) & G != G] + [h]
        basis.append(divisor(rem, lt, pk, field))
        exps.append(v)
        excess.append(ex)

    def entries():
        yield from sorted(gens, key=itemgetter(1))
        while pairs:
            sugar, _, i, j, lcm, _ = heappop(pairs)
            yield _spoly(basis[i], basis[j], lcm, pk, field), sugar

    for terms, sugar in entries():
        rem, _ = normal_form_terms(terms, basis, pk, field)
        if rem:
            if not next(iter(rem)):
                return [(0, 1, [], 0)]
            join(rem, sugar)
    return [basis[k] for k in live]


def _spoly(f, g, lcm, pk, field):
    """S-polynomial, up to sign and a nonzero factor, of two prepared
    divisors: with h = gcd(lc_f, lc_g) their leading terms cancel in
    (lc_g/h)*u_f*f - (lc_f/h)*u_g*g, leaving the integer term dict
    (lc_f/h)*u_g*tail_g - (lc_g/h)*u_f*tail_f (reduced mod p over GF(p))."""
    ltf, lcf, tailf, hif = f
    ltg, lcg, tailg, hig = g
    uf, ug = lcm - ltf, lcm - ltg
    if (uf + hif) & pk.guard or (ug + hig) & pk.guard:
        raise CapacityError(f"an S-polynomial exceeds the exponent cap {MAX_EXPONENT}")
    h = gcd(lcf, lcg)
    af, ag = lcg // h, lcf // h
    res = {uf + e: af * c for e, c in tailf}
    p = field.characteristic
    for e, c in tailg:
        ne = ug + e
        v = res.get(ne, 0) - ag * c
        if p:
            v %= p
        if v:
            res[ne] = v
        else:
            res.pop(ne, None)
    return res


def _reduce_basis(minimal, pk, field):
    """The reduced basis, as (rem, lc) pairs by ascending leading monomial,
    from a minimal one, given as prepared divisors."""
    # tail-reduce each element against the others; the leading term stays
    # and becomes the denominator: rem over rem[lt] is monic (over GF(p)
    # divisors are monic already, and rem[lt] is 1)
    p = field.characteristic
    reduced = []
    for i, (lt, lc, tail, _) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        terms = {lt: lc}
        terms.update((e, -c % p if p else -c) for e, c in tail)
        rem, _ = normal_form_terms(terms, others, pk, field)
        reduced.append((lt ^ pk.flip, rem, rem[lt]))
    reduced.sort(key=itemgetter(0))
    return [(r, lc) for _, r, lc in reduced]


def _polys(packed, pk, field, vars, table):
    """Polynomials of packed (numerators, den) pairs."""
    return [Polynomial._of_nums(field, vars, *content_free(pk.unpack_terms(r, table), d)) for r, d in packed]


class Ideal:
    """An ideal given by generators, with a lazily cached reduced basis.
    `intersect` and `colon` build it from its nonzero generators packed
    (`packed`), and its Polynomials are built on their first read."""

    def __init__(self, generators, order=DEGREVLEX):
        self._generators = list(generators)
        if not self._generators:
            raise MadicError("an Ideal needs at least one generator (possibly 0)")
        self.vars = self._generators[0].vars
        self.field = self._generators[0].field
        for g in self._generators:
            if g.vars != self.vars or g.field != self.field:
                raise DomainMismatchError("generators over different rings")
        self.order = order
        self.cached_basis = None  # the reduced basis under `order`
        self._divisors = None  # prepared divisors of cached_basis
        self._packed = None

    @classmethod
    def _of_packed(cls, vars, field, packed):
        """The ideal of packed (numerators, den) pairs, kept, not copied."""
        out = cls.__new__(cls)
        out.vars, out.field, out.order, out._packed = vars, field, DEGREVLEX, packed
        out._generators = out.cached_basis = out._divisors = None
        return out

    @property
    def generators(self):
        if self._generators is None:
            pk = DEGREVLEX.packing(len(self.vars))
            zero = [Polynomial.zero(self.vars, self.field)]
            self._generators = _polys(self._packed, pk, self.field, self.vars, {}) or zero
        return self._generators

    def packed(self):
        """The nonzero generators as (numerators, den) pairs under the
        degrevlex packing, built once; callers copy before consuming."""
        if self._packed is None:
            pk, table = DEGREVLEX.packing(len(self.vars)), {}
            self._packed = [(pk.pack_terms(g.nums, table), g.den) for g in self._generators if not g.is_zero()]
        return self._packed

    def groebner(self):
        if self.cached_basis is None:
            self.cached_basis = buchberger(self.generators, self.order)
        return self

    def prepared(self):
        """The prepared divisors of the cached basis, built once."""
        self.groebner()
        if self._divisors is None:
            self._divisors = _divisors(self.cached_basis, self.order.packing(len(self.vars)), {})
        return self._divisors

    def contains(self, p):
        """Whether p reduces to zero by the cached basis."""
        if p.vars != self.vars or p.field != self.field:
            raise DomainMismatchError("polynomial and ideal over different rings")
        pk = self.order.packing(len(self.vars))
        return not normal_form_terms(pk.pack_terms(p.nums, {}), self.prepared(), pk, p.field)[0]

    def is_zero(self):
        return not self.packed()

    def __add__(self, other):
        if isinstance(other, Ideal):
            return Ideal(self.generators + other.generators, self.order)
        return NotImplemented

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators[:6])
        more = ", ..." if len(self.generators) > 6 else ""
        return f"Ideal({gens}{more})"


def ideal_equal(I, J):
    """Ideal equality by mutual normal-form reduction of generators."""
    return all(I.contains(g) for g in J.generators) and all(
        J.contains(g) for g in I.generators
    )


def _degree(nums, pk):
    """The total degree of a nonzero packed term dict under degrevlex."""
    return sum(pk.unpack(max(nums)))


def intersect(I, J):
    """I ∩ J by eliminating a tag variable t from t*I + (1-t)*J, t the top
    field of a block(1) packing of (t, x), whose t-free part is degrevlex."""
    if I.vars != J.vars or I.field != J.field:
        raise DomainMismatchError("ideals over different rings")
    if I.is_zero() or J.is_zero():
        return Ideal([Polynomial.zero(I.vars, I.field)])
    n, field, p = len(I.vars), I.field, I.field.characteristic
    pk, dpk = _TAGGED.packing(n + 1), DEGREVLEX.packing(n)
    T = pk.units[0]
    gens = [({m + T: c for m, c in g.items()}, _degree(g, dpk) + 1) for g, _ in I.packed()]
    gens += [(g | {m + T: -c % p if p else -c for m, c in g.items()}, _degree(g, dpk) + 1) for g, _ in J.packed()]
    # the t-free elements of the minimal basis reduce by each other alone
    return Ideal._of_packed(I.vars, field, _reduce_basis([d for d in _groebner(gens, pk, field) if d[0] < T], pk, field))


def exact_quotient(terms, den, gterms, gden, pk, field):
    """(nums, den), content-free, of the exact quotient of terms / den by
    gterms / gden, packed integer term dicts (`terms` is consumed; over
    GF(p) both dens are 1); raises MadicError if it is not exact.  A lone
    polynomial is a Groebner basis of the ideal it generates, so one
    reduction by it decides, under any order.
    """
    glt, quo = pk.leading(gterms), {}
    d = divisor(gterms, glt, pk, field)
    rem, scale = reduce_terms(terms, [d], pk, field, quo)
    if rem:
        raise MadicError("polynomial division is not exact")
    # terms * scale = quo * d for d = gterms * lc(d) / lc(gterms): the
    # quotient is quo * lc(d) * gden / (lc(gterms) * den * scale), which
    # over GF(p) is quo / lc(gterms)
    lc = gterms[glt]
    if field.characteristic:
        inv = field.inv(lc)
        return {q: c * inv % field.p for q, c in quo.items()}, 1
    num = d[1] * gden
    return content_free({q: c * num for q, c in quo.items()}, den * scale * lc)


def colon(J, I):
    """The ideal quotient (J : I) = {g : g*I ⊆ J}.

    (J : I) is the intersection over the nonzero generators g of I of
    (J : (g)) = (J ∩ (g)) / g.  A generator g of I that is also a generator
    of J has (J : (g)) = (1) and is skipped: no intersection is run for it.
    The generators returned are those of the full computation:
      - J = (0) gives the zero ideal, and I = (0) gives (1);
      - exactly one nonzero g gives (J ∩ (g)) / g as it is, and (1 / lc(g))
        when g is a generator of J;
      - two or more nonzero generators give the reduced degrevlex basis of
        (J : I), which is (1) when every one of them is a generator of J.
    """
    if J.vars != I.vars or J.field != I.field:
        raise DomainMismatchError("ideals over different rings")
    nonzero = [g for g in I.generators if not g.is_zero()]
    if not nonzero:
        # (J : (0)) is the whole ring
        return Ideal([Polynomial.constant(1, J.vars, J.field)])
    if J.is_zero():
        return Ideal([Polynomial.zero(J.vars, J.field)])
    rest = [g for g in nonzero if g not in J.generators]
    if not rest:
        return _whole_colon(nonzero)
    # each quotient (J ∩ (g)) / g stays packed for the intersections after it
    field, pk = J.field, DEGREVLEX.packing(len(J.vars))
    quots = []
    for g in rest:
        G = Ideal([g])
        meet, ((gterms, gden),) = intersect(J, G).packed(), G.packed()
        quots.append(Ideal._of_packed(J.vars, field, [exact_quotient(dict(h), d, gterms, gden, pk, field) for h, d in meet]))
    if len(nonzero) == 1:
        return quots[0]
    if len(quots) == 1:
        gens = [(dict(h), _degree(h, pk)) for h, _ in quots[0].packed()]
        return Ideal._of_packed(J.vars, field, _reduce_basis(_groebner(gens, pk, field), pk, field))
    return functools.reduce(intersect, quots)


def _whole_colon(nonzero):
    """(J : I), the whole ring, when the nonzero generators of I are all
    generators of J, with the generator that the intersections give and
    no Groebner basis: for exactly one, f, whose reduced basis is
    f / lc(f) (lc in degrevlex, f's own variable order), (J ∩ (f)) / f =
    (1 / lc(f)); otherwise the reduced basis (1)."""
    vars, field = nonzero[0].vars, nonzero[0].field
    c = field.one()
    if len(nonzero) == 1:
        # lc(f) is f's leading numerator over f.den
        pk = DEGREVLEX.packing(len(vars))
        nums = pk.pack_terms(nonzero[0].nums, {})
        c = field.div(nonzero[0].den, field.convert(nums[pk.leading(nums)]))
    return Ideal([Polynomial.constant(c, vars, field)])


def colon_ideals(fs, h_max):
    """((f_i, i in E) : I) for I = (fs), keyed by each subset E of at most
    h_max equations, E = () included, by size, then in combinations order:
    the subset enumeration of the Jacobian ideal.  E = every equation gives
    (I : I), the whole ring, with no intersection (see `colon`)."""
    fs = list(fs)
    if not fs:
        raise MadicError("need at least one equation")
    n = len(fs)
    if n > ELKIK_SUBSET_CAP:
        raise CapacityError(
            f"subset enumeration over {n} equations exceeds the cap of "
            f"{ELKIK_SUBSET_CAP} (2^n blow-up)"
        )
    I = Ideal(fs)
    zero = Polynomial.zero(fs[0].vars, fs[0].field)
    return {
        E: colon(Ideal([fs[i] for i in E] or [zero]), I)
        for h in range(min(n, h_max) + 1)
        for E in itertools.combinations(range(n), h)
    }


def elkik_ideal(fs, diff_vars):
    """Jacobian ideal of a presentation: the sum over all subsets E of the
    equations of (|E|x|E| Jacobian minors of the rows E) * ((f_i, i in E) : I).

    Returns the raw generator list as an Ideal, without Groebner
    post-processing.  The empty subset contributes (1) * ((0) : I), which is
    zero over a domain.  Subsets E beyond the column count have no minor.
    """
    fs = list(fs)
    colons = colon_ideals(fs, len(diff_vars))
    vars, field = fs[0].vars, fs[0].field
    jac = jacobian(fs, diff_vars)
    gens = []
    for E, col in colons.items():
        if E:
            sub_minors = minors(jac.submatrix(E, range(len(diff_vars))), len(E))
        else:
            sub_minors = [Polynomial.constant(1, vars, field)]
        for d in sub_minors:
            if d.is_zero():
                continue
            for k in col.generators:
                p = d * k
                if not p.is_zero():
                    gens.append(p)
    if not gens:
        gens = [Polynomial.zero(vars, field)]
    return Ideal(gens)


def radical_member(p, I):
    """p ∈ √I, decided by the Rabinowitsch trick: 1 ∈ I + (1 - w*p) under
    degrevlex on (w, x).  Put first, w has the lowest field, and degrevlex
    on the w-free monomials is degrevlex on x: a cached degrevlex basis of
    I is a Groebner basis there too, and enters as known, so only 1 - w*p
    is reduced and paired.  Otherwise I's basis or generators enter."""
    if p.vars != I.vars or p.field != I.field:
        raise DomainMismatchError("polynomial and ideal over different rings")
    n, field, q = len(I.vars), I.field, I.field.characteristic
    xpk, pk = DEGREVLEX.packing(n), DEGREVLEX.packing(n + 1)

    def lift(m):
        # every field moves up one; the degree field is new for n = 1
        return m << FIELD_BITS | (m << 2 * FIELD_BITS if n == 1 else 0)

    rab = {lift(m) + pk.units[0]: -c % q if q else -c for m, c in xpk.pack_terms(p.nums, {}).items()}
    gens, known = [(rab | {0: p.den}, p.degree() + 1)], []
    if I.cached_basis is not None and I.order == DEGREVLEX:
        known = [(lift(lt), lc, [(lift(m), c) for m, c in tail], lift(hi)) for lt, lc, tail, hi in I.prepared()]
    else:
        gens += [({lift(m): c for m, c in xpk.pack_terms(g.nums, {}).items()}, g.degree())
                 for g in I.cached_basis or I.generators if not g.is_zero()]
    return any(not d[0] for d in _groebner(gens, pk, field, known))
