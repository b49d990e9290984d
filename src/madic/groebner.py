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
made monic and prepared once, when it joins the basis (leading monomial,
negated tail, the tail's fieldwise maximum for the overflow check), and an
Ideal keeps the prepared divisors of its cached basis for membership and
normal forms.
"""

from __future__ import annotations

import heapq
import itertools
from operator import itemgetter

from .errors import CapacityError, DomainMismatchError, MadicError
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
    """Fully reduce a packed term dict, which is consumed, by prepared
    divisors (see `monomials.reduce_terms`).  Groebner reductions enter the
    kernel here, so traces count them apart from exact division."""
    return reduce_terms(terms, divisors, packing, field)


def _divisors(polys, packing, table):
    """Prepared monic divisors of the nonzero polynomials, in list order."""
    out = []
    for g in polys:
        if not g.is_zero():
            terms = packing.pack_terms(g.terms, table)
            out.append(divisor(terms, packing.leading(terms), packing, g.field))
    return out


def normal_form(p, basis, order=DEGREVLEX):
    """Normal form of p modulo a Groebner basis; zero iff p is a member."""
    table = {}
    if isinstance(basis, Ideal):
        rem, pk = basis.groebner(order)._remainder(p, table)
    else:
        pk = order.packing(len(p.vars))
        divisors = _divisors(basis, pk, table)
        rem = normal_form_terms(pk.pack_terms(p.terms, table), divisors, pk, p.field)
    return Polynomial(p.field, p.vars, pk.unpack_terms(rem, table))


def buchberger(gens, order=DEGREVLEX):
    """Reduced Groebner basis of the ideal generated by `gens`.

    Every basis element is kept as a prepared monic divisor (leading
    monomial, negated tail, the tail's fieldwise maximum) from the moment it
    joins, so neither the pair loop nor a reduction re-derives leading data.
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
        rem = normal_form_terms(pk.pack_terms(g.terms, table), basis, pk, field)
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
        rem = normal_form_terms(s, basis, pk, field)
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
    """S-polynomial, up to sign, of two prepared monic divisors: their
    leading terms cancel, leaving u_g*tail_g - u_f*tail_f."""
    ltf, tailf, hif = f
    ltg, tailg, hig = g
    uf, ug = lcm - ltf, lcm - ltg
    if (uf + hif) & pk.guard or (ug + hig) & pk.guard:
        raise CapacityError(f"an S-polynomial exceeds the exponent cap {MAX_EXPONENT}")
    res = {uf + e: c for e, c in tailf}
    sub, is_zero = field.sub, field.is_zero
    for e, c in tailg:
        ne = ug + e
        v = sub(res.get(ne, field.zero()), c)
        if is_zero(v):
            res.pop(ne, None)
        else:
            res[ne] = v
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
    one, neg = field.one(), field.neg
    reduced = []
    for i, (lt, tail, _) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        terms = {lt: one}
        terms.update((e, neg(c)) for e, c in tail)
        reduced.append((lt ^ pk.flip, normal_form_terms(terms, others, pk, field)))
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
        """Packed remainder of p modulo the cached basis, and its packing."""
        if p.vars != self.vars or p.field != self.field:
            raise DomainMismatchError("polynomial and ideal over different rings")
        pk = self.basis_order.packing(len(self.vars))
        if self._divisors is None:
            self._divisors = _divisors(self.cached_basis, pk, {})
        terms = pk.pack_terms(p.terms, table)
        return normal_form_terms(terms, self._divisors, pk, p.field), pk

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

    Computed per generator of I via (J : (g)) = (J ∩ (g)) / g, then
    intersected over the generators.
    """
    if J.vars != I.vars or J.field != I.field:
        raise DomainMismatchError("ideals over different rings")
    result = None
    nonzero = [g for g in I.generators if not g.is_zero()]
    if not nonzero:
        # (J : (0)) is the whole ring
        return Ideal([Polynomial.constant(1, J.vars, J.field)])
    for g in nonzero:
        if J.is_zero():
            quot = Ideal([Polynomial.zero(J.vars, J.field)])
        else:
            meet = intersect(J, Ideal([g]))
            quot = Ideal(
                [exact_div(h, g) for h in meet.generators if not h.is_zero()]
                or [Polynomial.zero(J.vars, J.field)]
            )
        result = quot if result is None else intersect(result, quot)
    return result


def elkik_ideal(fs, diff_vars):
    """Jacobian ideal of a presentation: the sum over all subsets E of the
    equations of (|E|x|E| Jacobian minors of the rows E) * ((f_i, i in E) : I).

    Returns the raw generator list as an Ideal, without Groebner
    post-processing.  The empty subset contributes (1) * ((0) : I), which is
    zero over a domain.
    """
    fs = list(fs)
    if not fs:
        raise MadicError("need at least one equation")
    n = len(fs)
    if n > ELKIK_SUBSET_CAP:
        raise CapacityError(
            f"subset enumeration over {n} equations exceeds the cap of "
            f"{ELKIK_SUBSET_CAP} (2^n blow-up)"
        )
    vars = fs[0].vars
    field = fs[0].field
    I = Ideal(fs)
    jac = jacobian(fs, diff_vars)
    gens = []
    for h in range(0, n + 1):
        if h > len(diff_vars):
            break  # the minor ideal is zero for h beyond the column count
        for E in itertools.combinations(range(n), h):
            if h == 0:
                sub_minors = [Polynomial.constant(1, vars, field)]
                col = colon(Ideal([Polynomial.zero(vars, field)]), I)
            else:
                sub = jac.submatrix(E, range(len(diff_vars)))
                sub_minors = minors(sub, h)
                col = colon(Ideal([fs[i] for i in E]), I)
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
