"""Certified m-adic Newton refinement of approximate polynomial-system
solutions over power-series rings.

The pipeline mirrors the constructive two-variable argument: pick a Jacobian
minor times colon-ideal witness that stays large at the approximate solution,
Weierstrass-prepare the squared minor, divide the approximate solution by the
distinguished polynomial to reduce to a system over k[[x]], solve that system
(Newton or exhaustive jet search), reconstruct, and finish with a Tougeron
Newton iteration.  Success is always certified a posteriori by residual and
distance checks; the existence-only rate function only enters reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bounds import capped_power, default_a_fn, gamma
from .errors import (
    CapacityError,
    HypothesisError,
    MadicError,
    PrecisionError,
    UnsupportedInstanceError,
)
from .fields import PrimeField
from .groebner import Ideal, colon, elkik_ideal
from .poly import PolyMatrix, Polynomial, determinant, jacobian
from .series import (
    OrderValue,
    SeriesVector,
    TruncatedSeries,
    evaluate,
    ideal_order,
)
from .weierstrass import (
    DistinguishedPolynomial,
    PreparedDivisor,
    divide_series,
    generic_euclid,
    prepare,
    regularize,
    w_divide,
)

STATUS_OK = "certified-to-precision"
STATUS_STALLED = "stalled"
STATUS_HYPOTHESIS = "hypothesis-violated"


@dataclass
class SolverConfig:
    a_fn: callable = default_a_fn
    strategy: str = "newton"
    jet_length: int = 4
    jet_cap: int = 1_000_000
    max_steps: int = 64
    # display constants for probe reports; existence-only in the theory
    K: int = 2
    K1: str = "1/e"
    K2: str = "log 2"
    K3: int = 2


@dataclass
class MinorSelection:
    subset: tuple  # equation indices E
    columns: tuple  # unknown names of the selected Jacobian columns
    minor: Polynomial  # the |E| x |E| determinant
    cofactor: Polynomial  # chosen generator of ((f_i, i in E) : I)
    minor_order: int  # ord of the minor at the approximate solution
    squared_order: int  # r = ord of the squared minor

    def to_json(self):
        return {
            "subset": [i + 1 for i in self.subset],
            "columns": list(self.columns),
            "minor": str(self.minor),
            "cofactor": str(self.cofactor),
            "minor_order": self.minor_order,
            "squared_order": self.squared_order,
        }


def _series_json(s):
    terms = sorted(s.terms.items(), key=lambda it: (sum(it[0]), it[0]))
    return {
        "vars": list(s.vars),
        "precision": s.precision,
        "terms": [[list(e), str(c)] for e, c in terms],
    }


@dataclass
class RefinementCertificate:
    refined: SeriesVector
    residual_order: OrderValue
    coordinate_orders: list  # ord of each refined - approximate coordinate
    trace: list  # min residual order after each Newton step
    status: str
    iterations: int = 0
    gamma_bound: int | None = None
    meets_gamma: bool | None = None
    target_order: int | None = None
    selection: MinorSelection | None = None

    @property
    def certified(self):
        return self.status == STATUS_OK

    def to_json(self):
        return {
            "status": self.status,
            "iterations": self.iterations,
            "residual_order": self.residual_order.to_json(),
            "coordinate_orders": [o.to_json() for o in self.coordinate_orders],
            "trace": list(self.trace),
            "gamma_bound": None if self.gamma_bound is None else str(self.gamma_bound),
            "meets_gamma": self.meets_gamma,
            "target_order": self.target_order,
            "selection": self.selection.to_json() if self.selection else None,
            "refined": [_series_json(s) for s in self.refined],
        }


def _lift(s, precision):
    """Re-embed the stored representative at a higher precision.

    Truncated arithmetic drops claimed digits on every division; the
    representative convention (tails are zero) keeps the pipeline at a fixed
    working precision.  All final certificates are re-checked at that
    precision.
    """
    return TruncatedSeries(s.field, s.vars, precision, s.terms)


def select_minor(fs, zbar, assignment, s):
    """Pick a subset E of equations, a Jacobian minor and a colon-ideal
    witness whose product stays below order s at the approximate solution.

    Among candidates the one minimizing ord of the squared minor wins;
    ties break on lexicographically smallest E, then column set, then
    generator index.  Raises HypothesisError when every product has order
    at least s.
    """
    fs = list(fs)
    unknowns = sorted(assignment, key=assignment.get)
    I = Ideal(fs)
    jac = jacobian(fs, unknowns)
    jbar = _evaluated(jac, zbar, assignment)
    best = None
    min_product_order = None
    for h in range(1, min(len(fs), len(unknowns)) + 1):
        for E in itertools.combinations(range(len(fs)), h):
            col_ideal = colon(Ideal([fs[i] for i in E]), I)
            kgens = [g for g in col_ideal.generators if not g.is_zero()]
            if not kgens:
                continue
            kvals = [evaluate(k, zbar, assignment).order() for k in kgens]
            for cols in itertools.combinations(range(len(unknowns)), h):
                dord = determinant(jbar.submatrix(E, cols)).order()
                if not dord.finite:
                    continue
                for gi, kord in enumerate(kvals):
                    if not kord.finite:
                        continue
                    prod = dord.value + kord.value
                    if min_product_order is None or prod < min_product_order:
                        min_product_order = prod
                    if prod >= s:
                        continue
                    measure = (2 * dord.value, E, cols, gi)
                    if best is None or measure < best[0]:
                        best = (measure, kgens[gi])
    if best is None:
        raise HypothesisError(
            "no Jacobian-minor/colon-witness product has order below "
            f"s={s} at the approximate solution",
            measured=min_product_order,
        )
    (squared, E, cols, _), k = best
    return MinorSelection(
        subset=E,
        columns=tuple(unknowns[c] for c in cols),
        minor=determinant(jac.submatrix(E, cols)),
        cofactor=k,
        minor_order=squared // 2,
        squared_order=squared,
    )


def _evaluated(jac, zbar, assignment):
    """The matrix of polynomials `jac` evaluated at zbar, entry by entry."""
    return PolyMatrix(
        [[evaluate(p, zbar, assignment) for p in row] for row in jac.entries]
    )


def tougeron_refine(fs, columns, zbar, assignment, c, max_steps=64,
                    prepared=None):
    """Newton iteration under the Tougeron hypothesis.

    delta is the Jacobian minor of fs on `columns`.  Requires each residual
    f_i(zbar) to be an exact multiple of delta(zbar)^2 with quotient of
    order >= c.  Updates only the selected coordinates by the adjugate of
    the square Jacobian submatrix J times the quotients q, taken as Cramer
    columns (entry j is det J with column j replaced by q), so the only
    divisions are by delta(zbar)^2 (certified above) and by units.

    delta(zbar)^2 and delta(zbar) are each prepared once, on first use, and
    shared by every division of the run and the final distance audit.
    `prepared`, a PreparedDivisor from an earlier stage, stands in for
    delta(zbar)^2 when its series equals delta(zbar)^2 exactly.
    """
    fs = list(fs)
    if len(fs) != len(columns):
        raise MadicError("need as many equations as selected columns")
    N = zbar.precision
    jac = jacobian(fs, columns)
    jbar = _evaluated(jac, zbar, assignment)
    dbar = det = determinant(jbar)
    if not dbar.order().finite:
        raise HypothesisError("minor vanishes at the approximate solution")
    dsq = _lift(dbar * dbar, N)
    if prepared is None or prepared.u != dsq:
        prepared = PreparedDivisor(dsq)
    dsq_div, dbar_div = prepared, PreparedDivisor(dbar)

    residuals = [evaluate(f, zbar, assignment) for f in fs]
    quotients = []
    for res in residuals:
        if res.is_zero_to_precision():
            quotients.append(TruncatedSeries.zero(zbar.vars, N, zbar.field))
            continue
        try:
            q = divide_series(res, dsq_div)
        except MadicError as exc:
            raise HypothesisError(
                f"residual is not an exact multiple of the squared minor: {exc}"
            ) from exc
        if not q.order().ge(c):
            raise HypothesisError(
                f"residual/minor^2 has order {q.order()}, below target {c}",
                measured=q.order(),
            )
        quotients.append(_lift(q, N))

    col_index = [assignment[v] for v in columns]
    current = list(zbar.entries)
    trace = []
    stall = 0
    steps = 0
    status = STATUS_OK

    def res_order(rs):
        finite = [r.order() for r in rs if r.order().finite]
        if not finite:
            return OrderValue.at_least(N)
        return min(finite, key=lambda o: o.value)

    while any(not r.is_zero_to_precision() for r in residuals):
        if steps >= max_steps:
            status = STATUS_STALLED
            break
        if steps:
            jbar = _evaluated(jac, SeriesVector(current), assignment)
            det = determinant(jbar)
        try:
            w = divide_series(det, dbar_div)
        except MadicError as exc:
            status = STATUS_STALLED
            break
        if not w.is_unit():
            status = STATUS_STALLED
            break
        winv = _lift(w.inverse(), N)
        for jj, ci in enumerate(col_index):
            cramer = PolyMatrix(
                [r[:jj] + [q] + r[jj + 1 :] for r, q in zip(jbar.entries, quotients)]
            )
            step = _lift(dbar * determinant(cramer) * winv, N)
            current[ci] = _lift(current[ci] - step, N)
        steps += 1
        vec = SeriesVector(current)
        residuals = [evaluate(f, vec, assignment) for f in fs]
        new_quotients = []
        for res in residuals:
            if res.is_zero_to_precision():
                new_quotients.append(TruncatedSeries.zero(zbar.vars, N, zbar.field))
                continue
            try:
                new_quotients.append(_lift(divide_series(res, dsq_div), N))
            except MadicError:
                status = STATUS_STALLED
                res = None
                break
        if res is None and status == STATUS_STALLED:
            break
        quotients = new_quotients
        o = res_order(residuals)
        prev = trace[-1] if trace else None
        trace.append(o.value)
        if prev is not None and o.finite and o.value <= prev:
            stall += 1
            if stall >= 3:
                status = STATUS_STALLED
                break
        else:
            stall = 0

    # every exit leaves `residuals` evaluated at the current vector
    refined = SeriesVector([_lift(s, N) for s in current])
    coord_orders = [(a - b).order() for a, b in zip(refined, zbar)]
    cert = RefinementCertificate(
        refined=refined,
        residual_order=res_order(residuals),
        coordinate_orders=coord_orders,
        trace=trace,
        status=status,
        iterations=steps,
        target_order=c,
    )
    if status == STATUS_OK:
        # success contract: residual vanishes to precision and the move
        # stays within (delta(zbar)) m^c
        if any(r.order().finite for r in residuals):
            cert.status = STATUS_STALLED
        else:
            for a, b in zip(refined, zbar):
                diff = a - b
                if diff.is_zero_to_precision():
                    continue
                try:
                    divide_series(diff, dbar_div, order_check=c)
                except MadicError:
                    cert.status = STATUS_STALLED
                    break
    return cert


@dataclass
class OneVarSystem:
    """The reduced system over k[[x]] produced by Weierstrass division.

    `g_polys[l]` are the constraints tying the distinguished coefficients to
    the squared minor; `f_polys[(k, l)]` are the reduced equation components.
    All live in the variables (x, unknowns); the approximate point lists the
    unknown values in `unknown_names` order.
    """

    g_polys: list
    f_polys: dict
    unknown_names: list
    assignment: dict
    point: SeriesVector
    r: int
    degree_bounds: dict
    # reconstruction data: the prepared squared minor carries the shear
    # and the distinguished polynomial
    divisor: PreparedDivisor | None = None
    w_quotients: list | None = None
    selection: MinorSelection | None = None
    num_unknowns: int = 0  # m of the ambient problem

    def equations(self):
        eqs = [g for g in self.g_polys if not g.is_zero()]
        eqs += [f for f in self.f_polys.values() if not f.is_zero()]
        return eqs

    @classmethod
    def from_univariate(cls, fs, zbar, assignment):
        """Wrap a system that already lives over k[[x]], so both solution
        strategies can run on it directly."""
        if len(zbar.vars) != 1:
            raise MadicError("from_univariate needs a univariate instance")
        unknowns = sorted(assignment, key=assignment.get)
        return cls(
            g_polys=[],
            f_polys={(k, 0): f for k, f in enumerate(fs)},
            unknown_names=unknowns,
            assignment=dict(assignment),
            point=zbar,
            r=0,
            degree_bounds={},
            num_unknowns=len(unknowns),
        )


def build_one_var_system(fs, selection, zbar, assignment, N=None):
    """Reduce a bivariate instance to a system over k[[x]].

    Regularizes and prepares the squared minor evaluated at zbar, divides
    each coordinate of zbar by the distinguished polynomial, and performs the
    generic Euclidean division of the squared minor and of the selected
    equations at the truncated-unknown substitution.
    """
    if len(zbar.vars) != 2:
        raise MadicError("the one-variable reduction needs a bivariate instance")
    N = N or zbar.precision
    fs = list(fs)
    unknowns = sorted(assignment, key=assignment.get)
    m = len(unknowns)
    d = max(2, max(int(f.degree()) for f in fs if not f.is_zero()))
    svars = zbar.vars

    delta = selection.minor
    dbar = evaluate(delta, zbar, assignment)
    dsq_bar = dbar * dbar
    r_ord = dsq_bar.order()
    if not r_ord.finite:
        raise PrecisionError("squared minor vanishes to working precision")
    r = r_ord.value
    if r == 0:
        raise MadicError("squared minor is a unit; bypass directly to refinement")

    change, reg = regularize(dsq_bar)
    if change.is_identity():
        fs_t, delta_t, z_t = fs, delta, zbar
    else:
        fs_t = [change.apply_poly(f, svars) for f in fs]
        delta_t = change.apply_poly(delta, svars)
        z_t = SeriesVector([change.apply_series(z) for z in zbar])
    inverse = []  # the unit's inverse, for the prepared divisor below
    _, dist = prepare(reg, inverse)

    w_quotients = []
    coeff_series = []  # per unknown: list of r univariate series
    for i in range(m):
        q, rems = w_divide(z_t[i], dist)
        w_quotients.append(q)
        coeff_series.append(rems)

    z_names = [f"_z_{i}_{j}" for i in range(m) for j in range(r)]
    a_names = [f"_a_{p}" for p in range(1, r + 1)]
    unknown_names = z_names + a_names
    sys_vars = svars + tuple(unknown_names)
    fld = zbar.field

    ystar = Polynomial.variable(svars[1], sys_vars, fld)
    subs_map = {}
    for i, u in enumerate(unknowns):
        zi = Polynomial.zero(sys_vars, fld)
        for j in range(r):
            zi = zi + Polynomial.variable(f"_z_{i}_{j}", sys_vars, fld) * ystar ** j
        subs_map[u] = zi

    def reduce_poly(p):
        pstar = p.extend_vars(tuple(p.vars)).subs(
            {u: subs_map[u] for u in unknowns if u in p.vars}
        )
        if pstar.vars != sys_vars:
            pstar = pstar.extend_vars(sys_vars)
        return generic_euclid(pstar, r, svars[1], a_names)

    dsq_poly = delta_t * delta_t
    gres = reduce_poly(dsq_poly)
    g_polys = [gres.remainder_coefficient(l) for l in range(r)]
    f_polys = {}
    for k in selection.subset:
        fres = reduce_poly(fs_t[k])
        for l in range(r):
            f_polys[(k, l)] = fres.remainder_coefficient(l)

    deg_bounds = {
        "d": d,
        "m": m,
        "r": r,
        "f_bound": {(k, l): d * r - l for (k, l) in f_polys},
        "g_bound": [2 * m * (d - 1) * r - l for l in range(r)],
        "f_ok": all(
            p.degree() <= d * r - l for (k, l), p in f_polys.items()
        ),
        "g_ok": all(
            g.degree() <= 2 * m * (d - 1) * r - l
            for l, g in enumerate(g_polys)
        ),
    }

    point_entries = []
    for i in range(m):
        for j in range(r):
            point_entries.append(_lift(coeff_series[i][j], N))
    for p in range(r):
        point_entries.append(_lift(dist.coeffs[p], N))
    point = SeriesVector(point_entries)
    sys_assignment = {name: idx for idx, name in enumerate(unknown_names)}

    return OneVarSystem(
        g_polys=g_polys,
        f_polys=f_polys,
        unknown_names=unknown_names,
        assignment=sys_assignment,
        point=point,
        r=r,
        degree_bounds=deg_bounds,
        divisor=PreparedDivisor.from_preparation(dsq_bar, change, inverse[0], dist),
        w_quotients=w_quotients,
        selection=selection,
        num_unknowns=m,
    )


_SUBSET_SEARCH_CAP = 4000


def solve_one_var(sys, c, strategy="newton", config=None):
    """Solve the reduced univariate system to precision, staying within
    distance order c of the approximate point."""
    config = config or SolverConfig()
    eqs = sys.equations()
    values = [evaluate(e, sys.point, sys.assignment) for e in eqs]
    live = [e for e, v in zip(eqs, values) if not v.is_zero_to_precision()]
    if not live:
        return sys.point
    if strategy == "newton":
        residual = min(v.order().value for v in values if v.terms)
        return _one_var_newton(sys, eqs, live, residual, c, config)
    if strategy == "jet-search":
        return _one_var_jet_search(sys, eqs, c, config)
    raise MadicError(f"unknown strategy {strategy!r}")


def _one_var_newton(sys, eqs, live, residual, c, config):
    """Newton on the reduced system.  `live` are the equations that do not
    vanish at the point and `residual` is their least order there.

    Refines on the square Jacobian submatrix of least order w at the point
    among those with residual >= 2w + c, the first in combinations order
    on ties.  The Jacobian is evaluated at the point once and each
    candidate is ranked by the order of its series determinant."""
    unknowns = sys.unknown_names
    point = sys.point
    jbar = _evaluated(jacobian(live, unknowns), point, sys.assignment)
    k = min(len(live), len(unknowns))
    best = None
    tried = 0
    for esub in itertools.combinations(range(len(live)), k):
        for csub in itertools.combinations(range(len(unknowns)), k):
            tried += 1
            if tried > _SUBSET_SEARCH_CAP:
                break
            w = determinant(jbar.submatrix(esub, csub)).order()
            if not w.finite or residual < 2 * w.value + c:
                continue
            if best is None or w.value < best[0]:
                best = (w.value, esub, csub)
        if tried > _SUBSET_SEARCH_CAP:
            break
    if best is None:
        raise UnsupportedInstanceError(
            "newton strategy: no square Jacobian submatrix with residual "
            "order above twice its order plus the target"
        )
    _, esub, csub = best
    cert = tougeron_refine(
        [live[i] for i in esub], [unknowns[j] for j in csub], point,
        sys.assignment, c, config.max_steps,
    )
    if not cert.certified:
        raise UnsupportedInstanceError(
            f"newton strategy failed on the reduced system: {cert.status}"
        )
    refined = cert.refined
    for e in eqs:
        if evaluate(e, refined, sys.assignment).order().finite:
            raise UnsupportedInstanceError(
                "newton strategy: an unselected reduced equation does not "
                "vanish at the refined point"
            )
    return refined


def _one_var_jet_search(sys, eqs, c, config):
    fld = sys.point.field
    if not isinstance(fld, PrimeField):
        raise UnsupportedInstanceError("jet-search needs a prime-field instance")
    p = fld.p
    L = config.jet_length
    M = len(sys.unknown_names)
    total = p ** (M * L)
    if total > config.jet_cap:
        raise UnsupportedInstanceError(
            f"jet search space {p}^{M * L} exceeds the cap {config.jet_cap}"
        )
    xvar = sys.point.vars
    best = None
    best_dist = -1
    for coeffs in itertools.product(range(p), repeat=M * L):
        entries = []
        for ui in range(M):
            chunk = coeffs[ui * L : (ui + 1) * L]
            terms = {(i,): v for i, v in enumerate(chunk) if v}
            entries.append(TruncatedSeries(fld, xvar, L, terms))
        cand = SeriesVector(entries)
        if any(
            evaluate(e, cand, sys.assignment).order().finite for e in eqs
        ):
            continue
        trunc_point = SeriesVector([s.truncate(L) for s in sys.point])
        diff = [a - b for a, b in zip(cand, trunc_point)]
        orders = [s.order() for s in diff]
        dist = min((o.value for o in orders), default=L)
        if dist > best_dist:
            best_dist = dist
            best = cand
    if best is None:
        raise UnsupportedInstanceError(
            f"jet search found no solution at jet length {L}"
        )
    if best_dist < min(c, L):
        raise UnsupportedInstanceError(
            f"jet search solutions all differ from the approximate point "
            f"below order {min(c, L)}"
        )
    return best


def _reconstruct(sys, solved, N):
    """Rebuild the bivariate solution from the solved univariate point."""
    m = sys.num_unknowns
    r = sys.r
    fld = solved.field
    svars = sys.w_quotients[0].vars
    a_solved = []
    for p in range(r):
        a = solved[m * r + p]
        if not fld.is_zero(a.constant_term()):
            raise MadicError("solved distinguished coefficient has a unit term")
        a_solved.append(_lift(a, N))
    dist2 = DistinguishedPolynomial(r, a_solved, fld)
    dist2_series = dist2.to_series(svars, N)
    entries = []
    yser = TruncatedSeries.variable(svars[1], svars, N, fld)
    for i in range(m):
        zi = _lift(dist2_series * _lift(sys.w_quotients[i], N), N)
        for j in range(r):
            uni = solved[i * r + j]
            biv = TruncatedSeries(
                fld, svars, N, {(e[0], 0): cc for e, cc in uni.terms.items()}
            )
            zi = zi + biv * yser ** j
        entries.append(_lift(zi, N))
    vec = SeriesVector(entries)
    change = sys.divisor.change
    if not change.is_identity():
        inv = change.inverse()
        vec = SeriesVector([inv.apply_series(s) for s in vec])
    return vec


def approximate_solve(fs, zbar, assignment, c, config=None):
    """End-to-end certified approximation: given f(zbar) of high order,
    produce a nearby solution to working precision with a certificate.

    The gamma threshold derived from the configured rate function is
    recorded and reported but never trusted: every claim in the certificate
    is re-checked by independent evaluation.
    """
    config = config or SolverConfig()
    fs = list(fs)
    unknowns = sorted(assignment, key=assignment.get)
    m = len(unknowns)
    d = max(2, max((int(f.degree()) for f in fs if not f.is_zero()), default=2))
    N = zbar.precision

    H = elkik_ideal(fs, unknowns)
    hord = ideal_order(H.generators, zbar, assignment)
    if not hord.finite:
        raise HypothesisError(
            "the Jacobian ideal vanishes at the approximate solution to "
            "working precision",
            measured=hord,
        )
    s = hord.value + 1
    gamma_bound = gamma(m, d, s, c, config.a_fn)
    resid = ideal_order(fs, zbar, assignment)
    meets_gamma = resid.ge(gamma_bound)

    if not resid.finite:
        cert = RefinementCertificate(
            refined=zbar,
            residual_order=resid,
            coordinate_orders=[OrderValue.at_least(N) for _ in zbar],
            trace=[],
            status=STATUS_OK,
            iterations=0,
        )
        cert.gamma_bound = gamma_bound
        cert.meets_gamma = meets_gamma
        cert.target_order = c
        return cert

    selection = select_minor(fs, zbar, assignment, s)
    sel_fs = [fs[i] for i in selection.subset]
    r = selection.squared_order

    if r == 0 or len(zbar.vars) == 1:
        cert = tougeron_refine(
            sel_fs, selection.columns, zbar, assignment, c, config.max_steps,
        )
    else:
        sys = build_one_var_system(fs, selection, zbar, assignment, N)
        solved = solve_one_var(sys, c + 2 * s, config.strategy, config)
        z2 = _reconstruct(sys, solved, N)
        cert = tougeron_refine(
            sel_fs, selection.columns, z2, assignment, c, config.max_steps,
            prepared=sys.divisor,
        )
        # distances in the certificate must refer to the original input
        cert.coordinate_orders = [
            (a - b).order() for a, b in zip(cert.refined, zbar)
        ]

    cert.selection = selection
    cert.gamma_bound = gamma_bound
    cert.meets_gamma = meets_gamma
    cert.target_order = c
    if not cert.certified:
        return cert

    # final audit, independent of the solver's internal state
    for f in fs:
        if evaluate(f, cert.refined, assignment).order().finite:
            cert.status = STATUS_STALLED
            return cert
    for o in cert.coordinate_orders:
        if not o.ge(c):
            cert.status = STATUS_STALLED
            return cert
    k_before = evaluate(selection.cofactor, zbar, assignment).order()
    k_after = evaluate(selection.cofactor, cert.refined, assignment).order()
    if k_before.finite and (not k_after.finite or k_after.value != k_before.value):
        cert.status = STATUS_STALLED
    return cert


@dataclass
class ProbeRow:
    label: str
    target_order: int
    residual_order: OrderValue
    elkik_order: OrderValue
    s: int | None
    gamma_bound: int | None
    gamma_met: bool
    succeeded: bool
    achieved_order: OrderValue | None
    lhs_exponent: int | None
    rhs_exponent: int | None
    defect: bool
    note: str = ""

    def to_json(self):
        return {
            "label": self.label,
            "target_order": self.target_order,
            "residual_order": self.residual_order.to_json(),
            "elkik_order": self.elkik_order.to_json(),
            "s": self.s,
            "gamma_bound": None if self.gamma_bound is None else str(self.gamma_bound),
            "gamma_met": self.gamma_met,
            "succeeded": self.succeeded,
            "achieved_order": None
            if self.achieved_order is None
            else self.achieved_order.to_json(),
            "lhs_exponent": self.lhs_exponent,
            "rhs_exponent": None if self.rhs_exponent is None else str(self.rhs_exponent),
            "defect": self.defect,
            "note": self.note,
        }


@dataclass
class ProbeReport:
    rows: list
    constants: dict

    @property
    def defects(self):
        return [row for row in self.rows if row.defect]

    def to_json(self):
        return {
            "constants": dict(self.constants),
            "rows": [row.to_json() for row in self.rows],
            "defect_count": len(self.defects),
        }


def artin_probe(fs, family, assignment, targets, config=None, labels=None):
    """Run the pipeline over a family of approximate solutions and report
    residual orders, Jacobian-ideal orders and achieved distances.

    A defect row is one where the residual order reaches the gamma threshold
    for the computed s yet no certificate achieving the target order was
    produced; the main implication says such rows must not exist.
    """
    config = config or SolverConfig()
    fs = list(fs)
    unknowns = sorted(assignment, key=assignment.get)
    m = len(unknowns)
    d = max(2, max((int(f.degree()) for f in fs if not f.is_zero()), default=2))
    H = elkik_ideal(fs, unknowns)
    rows = []
    for idx, zb in enumerate(family):
        label = labels[idx] if labels else f"member {idx}"
        resid = ideal_order(fs, zb, assignment)
        hord = ideal_order(H.generators, zb, assignment)
        for c in targets:
            if not hord.finite:
                rows.append(
                    ProbeRow(
                        label, c, resid, hord, None, None, False, False,
                        None, resid.value if resid.finite else None, None,
                        False, "Jacobian ideal vanishes to precision",
                    )
                )
                continue
            s = hord.value + 1
            gb = gamma(m, d, s, c, config.a_fn)
            gamma_met = resid.ge(gb)
            note = ""
            try:
                cert = approximate_solve(fs, zb, assignment, c, config)
                ok = cert.certified
                achieved = (
                    min(
                        cert.coordinate_orders,
                        key=lambda o: o.value if o.finite else float("inf"),
                    )
                    if cert.coordinate_orders
                    else None
                )
                if not ok:
                    note = cert.status
            except MadicError as exc:
                ok = False
                achieved = None
                note = str(exc)
            # integer restatement of the main inequality:
            # ord f(zbar) <= d^(K^(m*ordH)) * (dist_order + 1)
            lhs = resid.value if resid.finite else None
            rhs = None
            if achieved is not None and hord.finite:
                dist_order = achieved.value
                try:
                    inner = capped_power(config.K, m * hord.value)
                    rhs = capped_power(d, inner, dist_order + 1)
                except CapacityError:
                    pass  # too large to state; reported like an unknown rhs
            defect = gamma_met and not (ok and achieved is not None and achieved.ge(c))
            rows.append(
                ProbeRow(
                    label, c, resid, hord, s, gb, gamma_met, ok, achieved,
                    lhs, rhs, defect, note,
                )
            )
    constants = {
        "K": config.K,
        "K1": config.K1,
        "K2": config.K2,
        "K3": config.K3,
    }
    return ProbeReport(rows, constants)
