"""Output checks that do not trust madic's own arithmetic.

- `audit_certificate` re-evaluates each equation at the refined point with a
  small truncated-series evaluator written here, and measures each
  coordinate move;
- `SympyOracle` recomputes reduced Groebner bases, the Jacobian ideal H of a
  presentation, ideal equality, membership and radical membership with the
  installed sympy;
- `digest` hashes an op's deterministic `to_json` output.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction


def _ring(field):
    """Plain add/mul/normalise for the coefficients madic stores."""
    p = getattr(field, "p", None)
    if p is None:
        return (lambda a, b: a + b), (lambda a, b: a * b), Fraction
    return (lambda a, b: (a + b) % p), (lambda a, b: (a * b) % p), (lambda v: v % p)


def trunc_mul(a, b, precision, add, mul):
    out = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) >= precision:
                continue
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = add(out[e], mul(ca, cb)) if e in out else mul(ca, cb)
    return {e: c for e, c in out.items() if c != 0}


def evaluate_terms(poly, series_vars, values, assignment, precision, field):
    """Terms of poly(series vars, values) below total degree `precision`.

    `poly` is a madic Polynomial whose variables are the series variables
    followed by unknowns; `values` are term dicts indexed through
    `assignment`.
    """
    add, mul, norm = _ring(field)
    k = len(series_vars)
    unit = (0,) * k
    powers = {}

    def power(name, n):
        key = (name, n)
        if key not in powers:
            base = values[assignment[name]]
            powers[key] = (
                base if n == 1 else trunc_mul(power(name, n - 1), base, precision, add, mul)
            )
        return powers[key]

    out = {}
    for e, c in poly.terms.items():
        shift = tuple(e[poly.vars.index(v)] for v in series_vars)
        if sum(shift) >= precision:
            continue
        term = {unit: norm(c)}
        for v, x in zip(poly.vars, e):
            if x and v not in series_vars:
                term = trunc_mul(term, power(v, x), precision, add, mul)
        for ee, cc in term.items():
            ne = tuple(a + b for a, b in zip(ee, shift))
            if sum(ne) < precision:
                out[ne] = add(out[ne], cc) if ne in out else cc
    return {e: c for e, c in out.items() if c != 0}


def audit_certificate(fs, zbar, refined, assignment, c):
    """Problems found with a certificate claimed for zbar: empty when every
    equation vanishes at `refined` to its precision and every coordinate
    moved by order at least c."""
    problems = []
    N = refined.precision
    values = [s.terms for s in refined]
    for i, f in enumerate(fs):
        res = evaluate_terms(f, refined.vars, values, assignment, N, refined.field)
        if res:
            low = min(sum(e) for e in res)
            problems.append(f"equation {i + 1} has residual order {low} < {N}")
    add, _, norm = _ring(refined.field)
    for i, (new, old) in enumerate(zip(refined, zbar)):
        prec = min(new.precision, old.precision)
        diff = dict(new.terms)
        for e, v in old.terms.items():
            diff[e] = add(diff.get(e, 0), -v)
        orders = [sum(e) for e, v in diff.items() if norm(v) != 0 and sum(e) < prec]
        if orders and min(orders) < c:
            problems.append(f"coordinate {i + 1} moved by order {min(orders)} < {c}")
    return problems


def digest(payload):
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def qq_bits(coeffs):
    """Largest numerator or denominator bit length among rational values."""
    best = 0
    for v in coeffs:
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _canonical(terms, p):
    """A basis element as a sorted tuple, scaled so its largest term under
    degree-then-lex has coefficient 1; reduced bases are unique up to these
    scalars."""
    if p is not None:
        terms = {e: int(c) % p for e, c in terms.items() if int(c) % p}
    else:
        terms = {e: Fraction(c) for e, c in terms.items() if c != 0}
    lead = terms[max(terms, key=lambda e: (sum(e), e))]
    if p is not None:
        inv = pow(lead, p - 2, p)
        return tuple(sorted((e, c * inv % p) for e, c in terms.items()))
    return tuple(sorted((e, c / lead) for e, c in terms.items()))


def canonical_basis(polys, p):
    return sorted(_canonical(dict(g.terms), p) for g in polys if g.terms)


def rescaled_basis(canonical, scale, p):
    """The reduced basis of the system rescaled by v -> s_v*v, from the
    reduced basis of the unscaled one.  A diagonal rescaling multiplies each
    coefficient by a monomial in the s_v, so leading monomials, and hence
    reducedness, are preserved; only the normalisation changes."""
    out = []
    for element in canonical:
        terms = {}
        for e, c in element:
            f = Fraction(c)
            for s, x in zip(scale, e):
                f *= Fraction(s) ** x
            terms[e] = f if p is None else f.numerator * pow(f.denominator, p - 2, p) % p
        out.append(_canonical(terms, p))
    return sorted(out)


class SympyOracle:
    """Reduced degrevlex Groebner bases and ideal verdicts from sympy."""

    def __init__(self):
        import sympy

        self.sympy = sympy

    def _polys(self, polys, gens, p):
        sp = self.sympy
        domain = sp.GF(p) if p is not None else sp.QQ
        out = []
        for g in polys:
            terms = {
                e: (int(c) if p is not None else sp.Rational(c.numerator, c.denominator))
                for e, c in g.terms.items()
            }
            out.append(sp.Poly.from_dict(terms, *gens, domain=domain))
        return out

    def _gb(self, exprs, gens, p, order):
        sp = self.sympy
        kw = {"modulus": p} if p is not None else {"domain": sp.QQ}
        return sp.groebner([e for e in exprs if e != 0], *gens, order=order, **kw)

    def groebner(self, polys, names, p):
        gens = self.sympy.symbols(names)
        return self._gb([q.as_expr() for q in self._polys(polys, gens, p)], gens, p, "grevlex")

    def _intersect(self, A, B, gens, p):
        """A ∩ B: the t-free part of a lex basis of t*A + (1-t)*B."""
        t = self.sympy.Symbol("_t_oracle")
        G = self._gb([t * a for a in A] + [(1 - t) * b for b in B], (t, *gens), p, "lex")
        return [g for g in G.exprs if not g.has(t)]

    def _colon(self, J, fs, gens, p):
        """(J : (fs)) as the intersection over g in fs of (J ∩ (g)) / g."""
        sp = self.sympy
        kw = {"modulus": p} if p is not None else {}
        out = None
        for g in fs:
            if g in J:
                continue  # (J : g) is the whole ring
            quot = []
            for h in self._intersect(J, [g], gens, p):
                q, r = sp.div(h, g, *gens, **kw)
                assert r == 0, "J ∩ (g) has an element g does not divide"
                quot.append(q)
            out = quot if out is None else self._intersect(out, quot, gens, p)
        return [sp.Integer(1)] if out is None else out

    def elkik_basis(self, polys, names, p):
        """Reduced basis of H + I for I = (polys), where H is the sum over
        non-empty subsets E of the equations of (|E|x|E| minors of the
        Jacobian rows E) * ((f_i, i in E) : I), differentiating by every
        variable.  The empty subset adds (0) : I = (0)."""
        sp = self.sympy
        gens = sp.symbols(names)
        fs = [q.as_expr() for q in self._polys(polys, gens, p)]
        jac = sp.Matrix([[sp.diff(f, v) for v in gens] for f in fs])
        H = []
        for h in range(1, min(len(fs), len(gens)) + 1):
            for E in itertools.combinations(range(len(fs)), h):
                col = self._colon([fs[i] for i in E], fs, gens, p)
                for cols in itertools.combinations(range(len(gens)), h):
                    d = sp.expand(jac.extract(list(E), list(cols)).det())
                    H += [sp.expand(d * k) for k in col]
        return self._gb(H + fs, gens, p, "grevlex")

    @staticmethod
    def canonical(G, p):
        return sorted(_canonical(dict(g.terms()), p) for g in G.polys)

    def contains(self, G, poly, names, p):
        return bool(G.contains(self._polys([poly], self.sympy.symbols(names), p)[0]))

    def radical_contains(self, G, poly, names, p):
        """Rabinowitsch: poly is in the radical iff 1 is in G + (1 - w*poly)."""
        sp = self.sympy
        gens = sp.symbols(names)
        w = sp.Symbol("_w_oracle")
        q = self._polys([poly], gens, p)[0].as_expr()
        F = [g.as_expr() for g in G.polys] + [1 - w * q]
        kw = {"modulus": p} if p is not None else {"domain": sp.QQ}
        H = sp.groebner(F, *gens, w, order="grevlex", **kw)
        return len(H.exprs) == 1 and H.exprs[0].is_number and H.exprs[0] != 0
