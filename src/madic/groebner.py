"""Groebner-basis engine: Buchberger, membership, intersection, colon ideals,
the Elkik Jacobian ideal and radical membership via the Rabinowitsch trick.

Default order is degrevlex; intersections eliminate a fresh tag variable with
a block order.  Ideal equality is decided by mutual normal-form reduction of
generators, never by comparing bases.

Inside the engine a monomial is one packed int laid out for the order (see
`monomials`): a product is one add, a divisibility test a subtract and a
mask, an order key one xor.  Exponent tuples appear only at the Polynomial
boundary, through one table per call, so the polynomials one call returns
share one tuple per distinct monomial.  Reduction is heap-ordered: a term's
key is computed once, when it enters the work set.  Every basis element is
prepared once, when it joins the basis (leading monomial, leading
coefficient, negated tail, the tail's fieldwise maximum for the overflow
check), and an Ideal keeps the prepared divisors of its cached basis for
membership and normal forms.

Over QQ the engine works on integers from packing to unpacking: each
generator's denominators are cleared once, a prepared divisor is a
primitive integer polynomial with a positive leading coefficient, every
reduction returns (rem, scale) with remainder rem / scale (see
`monomials` for the pseudo-reduction and its content-removal rule), and
S-polynomials cross-multiply by the leading coefficients over their gcd.
Fractions are built only at the Polynomial boundary: one per term of each
reduced basis element, made monic, and of each normal form, rem / (D *
scale) for the dividend's common denominator D.  Over GF(p) divisors are
monic and coefficients are residues throughout.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from math import gcd
from operator import itemgetter

from .errors import CapacityError, DomainMismatchError, MadicError
from .fields import field_terms
from .monomials import MAX_EXPONENT, divisor, reduce_terms, shared_packing
from .poly import Polynomial, exact_div, jacobian, minors

# Fresh variables injected by the engine; the public parser cannot produce
# identifiers starting with an underscore, so collisions are impossible.
TAG_VAR = "_t"
RABINOWITSCH_VAR = "_w"

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


def normal_form_terms(terms, divisors, packing, field):
    """Fully reduce a packed integer term dict, which is consumed, by
    prepared divisors: (rem, scale) with remainder rem / scale (see
    `monomials.reduce_terms`).  Groebner reductions enter the kernel here,
    so traces count them apart from exact division."""
    return reduce_terms(terms, divisors, packing, field)


def _over(field, terms, den):
    """The integer term dict `terms` divided by `den`, as field elements:
    over GF(p) the terms are residues and den is 1, so they are returned
    as they are."""
    return terms if field.characteristic else field_terms(field, terms.items(), den)


def _divisors(polys, packing, table):
    """Prepared divisors of the nonzero polynomials, in list order."""
    out = []
    for g in polys:
        if not g.is_zero():
            terms, _ = packing.pack_integers(g.terms, g.field, table)
            out.append(divisor(terms, packing.leading(terms), packing, g.field))
    return out


def normal_form(p, basis, order=DEGREVLEX):
    """Normal form of p modulo a Groebner basis; zero iff p is a member."""
    table = {}
    if isinstance(basis, Ideal):
        rem, den, pk = basis.groebner(order)._remainder(p, table)
    else:
        pk = order.packing(len(p.vars))
        divisors = _divisors(basis, pk, table)
        terms, den = pk.pack_integers(p.terms, p.field, table)
        rem, scale = normal_form_terms(terms, divisors, pk, p.field)
        den *= scale
    return Polynomial(p.field, p.vars, pk.unpack_terms(_over(p.field, rem, den), table))


def buchberger(gens, order=DEGREVLEX):
    """Reduced Groebner basis of the ideal generated by `gens`.

    Every basis element is kept as a prepared divisor (leading monomial,
    leading coefficient, negated tail, the tail's fieldwise maximum) from
    the moment it joins, so neither the pair loop nor a reduction re-derives
    leading data.  Over QQ each generator is scaled to integers once, and
    the basis stays integral until `_reduce_basis` makes it monic.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    field = gens[0].field
    vars = gens[0].vars
    for g in gens:
        if g.vars != vars or g.field != field:
            raise DomainMismatchError("generators over different rings")
    pk = order.packing(len(vars))
    G = pk.guard
    table = {}

    basis = []
    for g in gens:
        terms, _ = pk.pack_integers(g.terms, field, table)
        rem, _ = normal_form_terms(terms, basis, pk, field)
        if rem:
            basis.append(divisor(rem, next(iter(rem)), pk, field))

    lts = [d[0] for d in basis]
    exps = [pk.unpack(lt) for lt in lts]
    pairs = []
    counter = itertools.count()

    def push_pair(i, j):
        lcm = pk.lcm(exps[i], exps[j])
        heapq.heappush(pairs, (lcm ^ pk.flip, next(counter), i, j, lcm))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push_pair(i, j)

    done = set()
    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        done.add((i, j))
        # product criterion: coprime leading monomials
        if lcm == lts[i] + lts[j]:
            continue
        # chain criterion: some lt_k divides the lcm and the pairs of k with
        # i and j are done (k is neither, as no pair (k, k) is ever done)
        lg = lcm | G
        if any(
            (lg - lt) & G == G
            and ((k, i) if k < i else (i, k)) in done
            and ((k, j) if k < j else (j, k)) in done
            for k, lt in enumerate(lts)
        ):
            continue
        s = _spoly(basis[i], basis[j], lcm, pk, field)
        rem, _ = normal_form_terms(s, basis, pk, field)
        if not rem:
            continue
        lt = next(iter(rem))
        basis.append(divisor(rem, lt, pk, field))
        lts.append(lt)
        exps.append(pk.unpack(lt))
        new = len(basis) - 1
        for k in range(new):
            push_pair(k, new)

    return _reduce_basis(basis, pk, field, vars, table)


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


def _reduce_basis(basis, pk, field, vars, table):
    # minimalize: drop generators whose leading term another one divides
    lts = [d[0] for d in basis]
    minimal = [
        basis[i]
        for i, lt in enumerate(lts)
        if not any(
            j != i and pk.divides(lts[j], lt) and (lts[j] != lt or j < i)
            for j in range(len(basis))
        )
    ]
    # tail-reduce each element against the others; the leading term stays
    # and is divided out, one Fraction per term over QQ
    p = field.characteristic
    reduced = []
    for i, (lt, lc, tail, _) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        terms = {lt: lc}
        terms.update((e, -c % p if p else -c) for e, c in tail)
        rem, _ = normal_form_terms(terms, others, pk, field)
        reduced.append((lt ^ pk.flip, _over(field, rem, rem[lt])))
    reduced.sort(key=itemgetter(0))
    return [Polynomial(field, vars, pk.unpack_terms(rem, table)) for _, rem in reduced]


class Ideal:
    """An ideal given by generators, with a lazily cached reduced basis."""

    def __init__(self, generators, order=DEGREVLEX):
        self.generators = list(generators)
        if not self.generators:
            raise MadicError("an Ideal needs at least one generator (possibly 0)")
        self.vars = self.generators[0].vars
        self.field = self.generators[0].field
        for g in self.generators:
            if g.vars != self.vars or g.field != self.field:
                raise DomainMismatchError("generators over different rings")
        self.default_order = order
        self.cached_basis = None
        self.basis_order = None
        self._divisors = None  # prepared divisors of cached_basis

    def groebner(self, order=None):
        order = order or self.default_order
        if self.cached_basis is None or self.basis_order != order:
            self.cached_basis = buchberger(self.generators, order)
            self.basis_order = order
            self._divisors = None
        return self

    def _remainder(self, p, table):
        """(rem, den, packing): the packed integer remainder of p modulo
        the cached basis is rem / den."""
        if p.vars != self.vars or p.field != self.field:
            raise DomainMismatchError("polynomial and ideal over different rings")
        pk = self.basis_order.packing(len(self.vars))
        if self._divisors is None:
            self._divisors = _divisors(self.cached_basis, pk, {})
        terms, den = pk.pack_integers(p.terms, p.field, table)
        rem, scale = normal_form_terms(terms, self._divisors, pk, p.field)
        return rem, den * scale, pk

    def normal_form(self, p):
        self.groebner()
        return normal_form(p, self, self.basis_order)

    def contains(self, p):
        self.groebner()
        return not self._remainder(p, {})[0]

    def is_zero(self):
        return all(g.is_zero() for g in self.generators)

    def __add__(self, other):
        if isinstance(other, Ideal):
            return Ideal(self.generators + other.generators, self.default_order)
        return NotImplemented

    def serialize(self):
        return [str(g) for g in self.generators]

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators[:6])
        more = ", ..." if len(self.generators) > 6 else ""
        return f"Ideal({gens}{more})"


def ideal_equal(I, J):
    """Ideal equality by mutual normal-form reduction of generators."""
    return all(I.contains(g) for g in J.generators) and all(
        J.contains(g) for g in I.generators
    )


def _with_fresh_var(polys, name):
    some = polys[0]
    new_vars = (name,) + some.vars
    return [p.extend_vars(new_vars) for p in polys], new_vars


def _drop_var(p, name, target_vars):
    i = p.vars.index(name)
    terms = {}
    for e, c in p.terms.items():
        if e[i] != 0:
            raise MadicError("polynomial still involves the eliminated variable")
        terms[tuple(x for k, x in enumerate(e) if k != i)] = c
    return Polynomial(p.field, target_vars, terms)


def intersect(I, J):
    """I ∩ J by eliminating a tag variable t from t*I + (1-t)*J."""
    if I.vars != J.vars or I.field != J.field:
        raise DomainMismatchError("ideals over different rings")
    if I.is_zero() or J.is_zero():
        return Ideal([Polynomial.zero(I.vars, I.field)])
    polys = I.generators + J.generators
    lifted, new_vars = _with_fresh_var(polys, TAG_VAR)
    t = Polynomial.variable(TAG_VAR, new_vars, I.field)
    one = Polynomial.constant(1, new_vars, I.field)
    gens = [t * g for g in lifted[: len(I.generators)]]
    gens += [(one - t) * g for g in lifted[len(I.generators) :]]
    basis = buchberger(gens, MonomialOrder("block", split=1))
    kept = []
    for g in basis:
        if g.terms and all(e[0] == 0 for e in g.terms):
            kept.append(_drop_var(g, TAG_VAR, I.vars))
    if not kept:
        kept = [Polynomial.zero(I.vars, I.field)]
    return Ideal(kept)


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
    quots = []
    for g in rest:
        meet = intersect(J, Ideal([g]))
        quots.append(Ideal([exact_div(h, g) for h in meet.generators if not h.is_zero()]))
    if len(nonzero) == 1:
        return quots[0]
    if len(quots) == 1:
        return Ideal(buchberger(quots[0].generators))
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
        pk = DEGREVLEX.packing(len(vars))
        terms = pk.pack_terms(nonzero[0].terms, {})
        c = field.inv(terms[pk.leading(terms)])
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
    """p ∈ √I, decided by the Rabinowitsch trick: 1 ∈ I + (1 - w*p)."""
    lifted, new_vars = _with_fresh_var(I.generators + [p], RABINOWITSCH_VAR)
    w = Polynomial.variable(RABINOWITSCH_VAR, new_vars, I.field)
    one = Polynomial.constant(1, new_vars, I.field)
    gens = lifted[:-1] + [one - w * lifted[-1]]
    basis = buchberger(gens, DEGREVLEX)
    return len(basis) == 1 and basis[0].is_constant() and not basis[0].is_zero()
