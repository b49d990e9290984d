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
from functools import cached_property

from .bounds import capped_power, default_a_fn, gamma
from .errors import (
    CapacityError,
    HypothesisError,
    MadicError,
    PrecisionError,
    UnsupportedInstanceError,
)
from .fields import PrimeField, content_free
from .groebner import colon_ideals
from .poly import PolyMatrix, Polynomial, determinant, jacobian
from .series import (
    OrderValue,
    SeriesVector,
    TruncatedSeries,
    evaluate,
)
from .weierstrass import (
    DistinguishedPolynomial,
    PreparedDivisor,
    divide_series,
    from_y_coefficients,
    prepare,  # noqa: F401  unused here; perfbench/test_perfbench.py patches solver.prepare
    w_divide,
)

STATUS_OK = "certified-to-precision"
STATUS_STALLED = "stalled"
STATUS_HYPOTHESIS = "hypothesis-violated"

STRATEGIES = ("newton", "jet-search")

_MAX_STEPS = 64  # Newton steps before `tougeron_refine` reports a stall
_JET_CAP = 1_000_000  # most candidates the jet search enumerates


def _check_strategy(strategy):
    """Refuse a strategy name the reduced-system solver does not know."""
    if strategy not in STRATEGIES:
        raise UnsupportedInstanceError(
            f"unknown strategy {strategy!r}; expected one of {', '.join(STRATEGIES)}"
        )


@dataclass
class SolverConfig:
    a_fn: callable = default_a_fn
    strategy: str = "newton"
    jet_length: int = 4
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
    jbar: PolyMatrix  # the minor's matrix at the approximate solution
    dbar: TruncatedSeries  # the minor there, det jbar

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
    if precision < s.precision:
        return s.truncate(precision)
    return TruncatedSeries._of_nums(s.field, s.vars, precision, s.nums, s.den)


@dataclass
class MinorRanking:
    """ord H(zbar) and the orders it is read from (see `rank_minors`)."""

    unknowns: tuple
    jac: PolyMatrix  # the symbolic Jacobian on every unknown
    jbar: PolyMatrix  # jac at zbar
    pairs: list  # ranked (ord delta(zbar), ord k(zbar), E, columns, witness index, k, delta(zbar))
    order: OrderValue


def rank_minors(fs, zbar, assignment):
    """Elkik's Jacobian ideal H at zbar, read without forming it: H is
    generated by the products of the |E| x |E| Jacobian minors delta of the
    rows E and the generators k of ((f_i, i in E) : I).  Evaluation at zbar
    is a ring map and k[[x, y]] a domain, so ord (delta k)(zbar) = ord
    delta(zbar) + ord k(zbar) when that sum is below N = zbar.precision,
    and ord H(zbar) is the least such sum, at least N when there is none.
    The pairs of finite orders are kept for `select_minor`, ranked by ord
    delta(zbar), then E, columns and witness index.
    E = () has the minor 1 (delta(zbar) None), and ((0) : I) = (1) only
    for an all-zero system.  `fs` is a list of polynomials or a `PolySystem`.
    """
    system = fs if isinstance(fs, PolySystem) else PolySystem(fs, assignment)
    colons = system.colons
    unknowns = tuple(sorted(assignment, key=assignment.get))
    jac = jacobian(system.fs, unknowns)
    jbar = _evaluated(jac, zbar, assignment)
    pairs = []
    for E, ideal in colons.items():
        kgens = [g for g in ideal.generators if not g.is_zero()]
        kvals = [evaluate(k, zbar, assignment).order() for k in kgens]
        for cols in itertools.combinations(range(len(unknowns)), len(E)):
            det = determinant(jbar.submatrix(E, cols)) if E else None
            dord = det.order() if E else OrderValue(0)
            for gi, kord in enumerate(kvals):
                if dord.finite and kord.finite:
                    pairs.append((dord.value, kord.value, E, cols, gi, kgens[gi], det))
    pairs.sort(key=lambda t: (t[0],) + t[2:5])
    N = zbar.precision
    least = min((a + b for a, b, *_ in pairs if a + b < N), default=None)
    order = OrderValue.at_least(N) if least is None else OrderValue(least)
    return MinorRanking(unknowns, jac, jbar, pairs, order)


def select_minor(ranking, s):
    """The first pair of a `rank_minors` ranking with E nonempty whose
    product has order below s at the approximate solution: least ord of the
    minor, then lexicographically smallest E, column set and witness.
    Raises HypothesisError when every product has order at least s.
    """
    for a, b, E, cols, _, k, det in ranking.pairs:
        if E and a + b < s:
            minor = determinant(ranking.jac.submatrix(E, cols))
            names = tuple(ranking.unknowns[c] for c in cols)
            return MinorSelection(E, names, minor, k, a, 2 * a, ranking.jbar.submatrix(E, cols), det)
    raise HypothesisError(
        "no Jacobian-minor/colon-witness product has order below "
        f"s={s} at the approximate solution",
        measured=min((a + b for a, b, E, *_ in ranking.pairs if E), default=None),
    )


def _evaluated(jac, zbar, assignment):
    """The matrix of polynomials `jac` evaluated at zbar, entry by entry."""
    return PolyMatrix(
        [[evaluate(p, zbar, assignment) for p in row] for row in jac.entries]
    )


class PolySystem:
    """Polynomials in the series variables and the unknowns, read at a
    series vector by `evaluate`, iterating as its equations; the symbolic
    Jacobian on a column set, and the colon ideals, are built once, and the
    equations are evaluated and the minors ranked once per approximate
    solution."""

    def __init__(self, fs, assignment):
        self.fs, self.assignment, self._jacobians = list(fs), assignment, {}
        self._zbar, self._kept = None, {}  # the last zbar read and what was read there

    def __iter__(self):
        return iter(self.fs)

    @cached_property
    def colons(self):
        """`groebner.colon_ideals` of the system, up to |E| = #unknowns."""
        return colon_ideals(self.fs, len(self.assignment))

    def _at(self, zbar, key, compute):
        """compute(), kept under `key` for the same zbar object, so that
        `artin_probe` and each `approximate_solve` of a member share it."""
        if self._zbar is not zbar:
            self._zbar, self._kept = zbar, {}
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    def ranking(self, zbar):
        """`rank_minors` of the system at zbar, kept for the same zbar."""
        return self._at(zbar, "ranking", lambda: rank_minors(self, zbar, self.assignment))

    def residuals(self, zbar):
        """f(zbar) for every equation, kept for the same zbar."""
        return self._at(zbar, "residuals", lambda: self.values(zbar))

    def values(self, point):
        return [evaluate(f, point, self.assignment) for f in self.fs]

    def jacobian(self, point, columns):
        columns = tuple(columns)
        if columns not in self._jacobians:
            self._jacobians[columns] = jacobian(self.fs, columns)
        return _evaluated(self._jacobians[columns], point, self.assignment)

    def taylor(self, columns):
        """(d, h_v for v in `columns`) and, per equation f, the tail F =
        sum_{|alpha| >= 2} T_alpha d^(|alpha|-2) h^alpha of its Hasse
        derivatives in `columns`, with F's partials in the h_v.  F's
        numerators are those of the T_alpha over f.den, each T_alpha's
        denominator dividing f's."""
        names = ("δ",) + tuple(v + "'" for v in columns)  # no name parses
        tails = []
        for f in self.fs:
            nums = {
                e + (sum(a) - 2,) + a: n * (f.den // t.den)
                for a, t in f.hasse(columns).items()
                if sum(a) >= 2
                for e, n in t.nums.items()
            }
            F = Polynomial._of_nums(f.field, f.vars + names, *content_free(nums, f.den))
            tails.append((F, [F.diff(v) for v in names[1:]]))
        return names, tails


@dataclass
class AtZbar:
    """What the pipeline computed at zbar, for `tougeron_refine`: f(zbar),
    J(zbar) on the selected columns, dbar = det J(zbar) and the reduction's
    quotients of the sheared residuals by the distinguished polynomial."""

    residuals: list
    jbar: PolyMatrix
    dbar: TruncatedSeries
    w_quotients: list | None = None


def tougeron_refine(fs, columns, zbar, assignment, c, prepared=None, at=None):
    """Newton iteration under the Tougeron hypothesis.

    `fs` is a list of polynomials or a system read, like a `PolySystem`,
    only through `values(point)` and `jacobian(point, columns)`.

    delta is the Jacobian minor of fs on `columns` and d = delta(zbar).
    Requires each residual f_i(zbar) to be an exact multiple of d^2 with
    quotient q_i of order >= c.  A step moves the selected coordinates z by
    d*h, h_j = -det(J with column j replaced by q) * w^-1, w = det J / d, so
    the only divisions are by d^2 (certified above), d and units.  Only h
    below N - ord d reaches the step, and there h_j is exact: over k[[x]]
    each det(...) is divided by w in one recurrence; over k[[x, y]] w^-1 is
    taken once, below N - min ord of the numerators d*det(...), at most
    r + min ord q for r = ord d^2, so f(z) + d J h = d^2 q (1 - w w^-1)
    stays in d^2 m^(N - r) and the next quotient is exact mod m^(N - r).

    A `PolySystem` steps by Tougeron's Taylor identity (J.-C. Tougeron,
    Ideaux de fonctions differentiables, 1972), f(z + d h) = f(z) + d J h
    + d^2 sum_{|alpha| >= 2} T_alpha(z) d^(|alpha|-2) h^alpha, T_alpha the
    Hasse derivatives: the sum is the next q mod m^(N - r), and its
    partials E in the h_j give J' = J + d E and w' = w + sum over nonempty
    row sets S of d^(|S|-1) det(J with rows S from E).  So f and J are
    evaluated at zbar, f again at the end, and nothing is divided.  Other
    systems evaluate and divide at every step.

    delta(zbar)^2 is prepared once, on first use, and shared by every
    division of the run; `prepared`, a PreparedDivisor from an earlier
    stage, stands in for it when its series equals delta(zbar)^2 exactly,
    and only then are the w_quotients of `at` used.  `at`, an AtZbar,
    hands on f(zbar), J(zbar) and d, so none is computed again.
    Only the division step divides by d.  The final distance audit divides
    nothing: each move z_j - zbar_j is d*H_j by construction, H_j the sum
    of the steps' h_j, so `_move_within` reads its order alone.
    """
    system = fs if hasattr(fs, "jacobian") else PolySystem(fs, assignment)
    residuals = system.values(zbar) if at is None else at.residuals
    if len(residuals) != len(columns):
        raise MadicError("need as many equations as selected columns")
    N, m, bivariate = zbar.precision, len(columns), len(zbar.vars) == 2
    jbar = system.jacobian(zbar, columns) if at is None else at.jbar
    dbar = determinant(jbar) if at is None else at.dbar
    if not dbar.order().finite:
        raise HypothesisError("minor vanishes at the approximate solution")
    dsq = _lift(dbar * dbar, N)
    wqs = at and at.w_quotients
    if prepared is None or prepared.u != dsq:
        prepared, wqs = PreparedDivisor(dsq), None
    dsq_div, dbar_div = prepared, PreparedDivisor(dbar)
    zero = TruncatedSeries.zero(zbar.vars, N, zbar.field)

    quotients = []
    for i, res in enumerate(residuals):
        if res.is_zero():
            quotients.append(zero)
            continue
        try:
            q = divide_series(res, dsq_div, w_quotient=wqs[i]) if wqs else divide_series(res, dsq_div)
        except PrecisionError:
            raise  # too little precision to divide says nothing of the residual
        except MadicError as exc:
            raise HypothesisError(
                f"residual is not an exact multiple of the squared minor: {exc}",
                reason="residual-not-multiple",
            ) from exc
        if not q.order().ge(c):
            raise HypothesisError(
                f"residual/minor^2 has order {q.order()}, below target {c}",
                measured=q.order(),
                reason="residual-order",
            )
        quotients.append(_lift(q, N))

    col_index = [assignment[v] for v in columns]
    current = list(zbar.entries)
    half, r = dbar.order().value, dsq_div.order.value
    names, tails = system.taylor(columns) if isinstance(system, PolySystem) else ((), None)
    at = dict(assignment, **{v: len(current) + i for i, v in enumerate(names)})
    trace = []
    stall = 0
    steps = 0
    status = STATUS_OK
    # at step 0 the minor is dbar itself, so w = 1 and the step
    # subtracts each numerator as it is
    w = None

    while not all(q.is_zero() for q in quotients):
        if steps >= _MAX_STEPS:
            status = STATUS_STALLED
            break
        if steps and tails:
            # E at the last step's (z, d, h); a 1x1 Cramer matrix is q
            # alone, so J' is built only for m > 1
            pt = SeriesVector([s.truncate(N - half) for s in base])
            E = [[evaluate(p, pt, at) for p in slopes] for _, slopes in tails]
            rows = list(zip(jbar.entries, E))
            if w is None:
                w = TruncatedSeries.constant(1, zbar.vars, N - half, zbar.field)
            for S in range(1, 1 << m):
                t = determinant(PolyMatrix([e if S >> i & 1 else j for i, (j, e) in enumerate(rows)]))
                w = w + (t * dbar ** (S.bit_count() - 1) if S & S - 1 else t)
            if m > 1:
                jbar = PolyMatrix([[a + dbar * _lift(e, N) for a, e in zip(*row)] for row in rows])
        elif steps:
            jbar = system.jacobian(SeriesVector(current), columns)
            try:
                w = divide_series(determinant(jbar), dbar_div)
            except MadicError:
                status = STATUS_STALLED
                break
        if w is not None and not w.is_unit():
            status = STATUS_STALLED
            break
        cramers = [
            determinant(PolyMatrix(
                [row[:j] + [q] + row[j + 1 :] for row, q in zip(jbar.entries, quotients)]
            ))
            for j in range(m)
        ]
        # the numerator dbar * cramer has order half + ord(cramer), so only
        # h below N - half reaches degrees < N of the step: a univariate
        # step divides each cramer by w there in one recurrence; a
        # bivariate one, whose quotients cost more than products, inverts w
        # once, below N - min ord
        orders = [half + cr.order().value for cr in cramers]
        h = [zero] * m
        if min(orders) < N and w is not None and bivariate:
            winv = _lift(w.inverse(min(w.precision, N - min(orders))), N)
        base = list(current)  # the step expands f around it
        for j, (ci, cr, o) in enumerate(zip(col_index, cramers, orders)):
            if o < N:
                if w is None:
                    h[j] = -cr
                else:
                    h[j] = -(cr * winv) if bivariate else -_lift(cr.over(w, N - half), N)
                current[ci] = _lift(current[ci] + dbar * h[j], N)
        steps += 1
        if tails:
            base += [dbar] + h
            pt = SeriesVector([s.truncate(N - r) for s in base])
            quotients = [_lift(evaluate(F, pt, at), N) for F, _ in tails]
        else:
            residuals = system.values(SeriesVector(current))
            try:
                quotients = [
                    zero if res.is_zero() else _lift(divide_series(res, dsq_div), N)
                    for res in residuals
                ]
            except MadicError:
                status = STATUS_STALLED
                break
        # ord f(z) = r + ord q, and N once every quotient vanishes
        o = min((r + q.order().value for q in quotients if not q.is_zero()), default=None)
        prev = trace[-1] if trace else None
        trace.append(N if o is None else o)
        if prev is not None and o is not None and o <= prev:
            stall += 1
            if stall >= 3:
                status = STATUS_STALLED
                break
        else:
            stall = 0

    # the division step leaves `residuals` at the current vector; the Taylor
    # step evaluates f there only now, for the certificate
    if tails and steps:
        residuals = system.values(SeriesVector(current))
    refined = SeriesVector([_lift(s, N) for s in current])
    coord_orders = [(a - b).order() for a, b in zip(refined, zbar)]
    cert = RefinementCertificate(
        refined=refined,
        residual_order=SeriesVector(residuals).order(),
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
        elif not all(_move_within(refined[ci] - zbar[ci], half, c) for ci in col_index):
            cert.status = STATUS_STALLED
    return cert


def _move_within(diff, a, c):
    """Whether the move diff = z_j - zbar_j lies in (dbar) m^c mod m^N,
    a = ord dbar: whether diff / dbar, which `divide_series` certifies, has
    order at least c.

    Each move is dbar*H by construction, and k[[x, y]] is a domain, so the
    quotient is unique below N - a with order ord diff - a: the order
    alone decides.  max(c, 0) keeps that so for a negative target, where
    the division still needs a multiple of dbar, ord >= a.
    """
    return diff.is_zero() or diff.order().ge(a + max(c, 0))


# key of the rows read from the squared minor
G_ROW = "g"


@dataclass
class OneVarSystem:
    """The reduced system over k[[x]] produced by Weierstrass division.

    Its unknowns are the z_ij and a_p, named in `unknown_names` and
    numbered by `assignment`; `point`, their values, is built on first read
    (the pipeline reads it only when a value is `live`).  Rows (k, l), for
    the selected equations f_k, and (G_ROW, l), for the squared minor, are
    never held as polynomials: `rows(keys)` reads them at any point (see
    `ReducedRows`).  A univariate system (`from_univariate`) has r = 0, no
    divisor, and row (k, 0) is f_k itself.  `f_values[(k, l)]` is row
    (k, l) at the point, read from the series side (see
    `build_one_var_system`); the G rows vanish there by construction.
    `zbar_precision` is the precision P of the approximate solution the
    values were read from: value (k, l) is fixed only modulo x^(P - l).
    """

    equations: dict  # k -> f_k, the selected equations
    f_values: dict
    unknowns: tuple  # the ambient unknowns u_i, in coordinate order
    unknown_names: list
    assignment: dict
    zbar: SeriesVector  # the approximate solution
    N: int
    r: int
    # reconstruction data: the prepared squared minor carries the shear
    # and the distinguished polynomial
    divisor: PreparedDivisor | None = None
    f_quotients: dict | None = None  # k -> quotient of the division giving f_values
    selection: MinorSelection | None = None

    @property
    def zbar_precision(self):
        return self.zbar.precision

    def live(self):
        """Keys (k, l) of the values with a term below degree zbar_precision - l,
        past which a value depends on terms beyond zbar's precision."""
        return [(k, l) for (k, l), v in self.f_values.items() if v.order().lt(self.zbar_precision - l)]

    @cached_property
    def zbar_division(self):
        """(quotient, remainders) of each sheared zbar_i by the distinguished polynomial."""
        change, dist = self.divisor.change, self.divisor.dist
        return [w_divide(change.apply_series(z), dist) for z in self.zbar]

    @cached_property
    def point(self):
        if self.divisor is None:
            return self.zbar
        entries = [_lift(rem, self.N) for _, rems in self.zbar_division for rem in rems]
        return SeriesVector(entries + [_lift(a, self.N) for a in self.divisor.dist.coeffs])

    def keys(self):
        """Every row key: the G rows, then the F rows."""
        return [(G_ROW, l) for l in range(self.r)] + list(self.f_values)

    def rows(self, keys):
        """The rows `keys` as a system for `tougeron_refine`."""
        if self.divisor is None:
            return PolySystem([self.equations[k] for k, _ in keys], self.assignment)
        return ReducedRows(self, keys)

    @classmethod
    def from_univariate(cls, fs, zbar, assignment):
        """Wrap a system that already lives over k[[x]], so both solution
        strategies can run on it directly; its values are the residuals
        f_k(zbar)."""
        if len(zbar.vars) != 1:
            raise MadicError("from_univariate needs a univariate instance")
        unknowns = sorted(assignment, key=assignment.get)
        return cls(
            equations=dict(enumerate(fs)),
            f_values={(k, 0): evaluate(f, zbar, assignment) for k, f in enumerate(fs)},
            unknowns=tuple(unknowns),
            unknown_names=unknowns,
            assignment=dict(assignment),
            zbar=zbar,
            N=zbar.precision,
            r=0,
        )


def _euclid(slices, a, zero):
    """Euclid in y by the monic y^r + sum_p a[p-1] y^(r-p), for `slices`
    the coefficients of y^0, y^1, ... and the a_p series in x: the
    remainder's r coefficients and the quotient's, lowest first.  Each
    popped slice costs one product per a_p."""
    r = len(a)
    slices = slices + [zero] * (r - len(slices))
    for e in range(len(slices) - 1, r - 1, -1):
        for p, ap in enumerate(a, start=1):
            slices[e - p] = slices[e - p] - slices[e] * ap
    return slices[:r], slices[r:]


class ReducedRows:
    """Rows of a bivariate reduction, read at a point (z_ij, a_p) over
    k[[x]]/x^N, N the point's precision.

    For each source g, f_k or delta^2, P = g(x + lam*y, y, sum_j z_ij y^j),
    lam the shear of the divisor, is the shear of one `evaluate` of g at
    the images sheared back, at a precision past N + deg_y P, cut below
    x^N.  Euclid in y by A = y^r + sum_p a_p y^(r-p) gives P = Q*A + R.  Row (k, l) is coefficient l of R: Euclid by a monic
    polynomial commutes with the ring map k[x, z, a] -> k[[x]]/x^N, so it
    is the symbolic row evaluated at the point, term for term.  As
    dA/da_p = y^(r-p), dR/dz_ij is the remainder of (dg/du_i) y^j and
    dR/da_p that of -Q y^(r-p).
    """

    def __init__(self, sys, keys):
        self.sys = sys
        self.keys = list(keys)
        self.sources = {
            k: sys.selection.minor ** 2 if k == G_ROW else sys.equations[k]
            for k in dict.fromkeys(k for k, _ in self.keys)
        }

    def values(self, point):
        return self._read(point, ())[0]

    def jacobian(self, point, columns):
        return PolyMatrix(self._read(point, columns)[1])

    def _read(self, point, columns):
        """The rows' values at `point` and their Jacobian on `columns`."""
        sys = self.sys
        fld, N, r, m = point.field, point.precision, sys.r, len(sys.unknowns)
        change, xy = sys.divisor.change, sys.divisor.u.vars
        zero = TruncatedSeries.zero(point.vars, N, fld)
        # every image has y-degree at most max(1, r - 1), which bounds deg_y P;
        # cap > N + r - 2 keeps every term of the z images
        cap = N + max(1, r - 1) * max(max(g.degree(), 1) for g in self.sources.values())
        z = []
        for i in range(m):
            zi = from_y_coefficients(point.entries[i * r : (i + 1) * r], xy, cap, fld)
            z.append(change.inverse().apply_series(zi))
        z, ambient = SeriesVector(z), {u: i for i, u in enumerate(sys.unknowns)}

        def in_y(g):
            P = change.apply_series(evaluate(g, z, ambient))
            slices = [{} for _ in range(1 + max((e for _, e in P.nums), default=0))]
            for (d, e), n in P.nums.items():
                if d < N:
                    slices[e][(d,)] = n
            return [TruncatedSeries._of_nums(fld, point.vars, N, *content_free(s, P.den)) for s in slices]

        a = list(point)[m * r :]
        read = {}
        for k, g in self.sources.items():
            rem, quo = _euclid(in_y(g), a, zero)
            # column z_ij reads (dg/du_i) y^j, column a_p reads -Q y^(r-p)
            bases, derivs = {}, []
            for col in (sys.assignment[v] for v in columns):
                i, j = divmod(col, r) if col < m * r else (None, m * r + r - 1 - col)
                if i not in bases:
                    bases[i] = [-q for q in quo] if i is None else in_y(g.diff(sys.unknowns[i]))
                derivs.append(_euclid([zero] * j + bases[i], a, zero)[0])
            read[k] = rem, derivs
        values = [read[k][0][l] for k, l in self.keys]
        return values, [[d[l] for d in read[k][1]] for k, l in self.keys]


def build_one_var_system(fs, selection, zbar, assignment, N=None, residuals=None):
    """Reduce a bivariate instance to a system over k[[x]].

    Regularizes and prepares the squared minor at zbar, the selection's
    dbar squared.  The point, built on first read, has the remainders of
    the sheared zbar by the distinguished polynomial as its z_ij and the
    distinguished coefficients as its a_p.  The reduced rows are never
    built as polynomials; `OneVarSystem.rows` reads them at any point.

    The values at the point come from the series side: substitution is a
    ring homomorphism and the remainder by a monic polynomial is unique, so
    row (k, l) at the point is coefficient l of the remainder of the
    sheared residual f_k(zbar) by the distinguished polynomial, stored
    lifted to N (at most P = zbar.precision), and the quotient of that
    division is kept for `tougeron_refine`.  `residuals`, when given,
    lists f_k(zbar) for every equation.  Both sides rest on representatives
    cut at degree P, so coefficient l is fixed only modulo x^(P - l).
    """
    if len(zbar.vars) != 2:
        raise MadicError("the one-variable reduction needs a bivariate instance")
    N = N or zbar.precision
    if N > zbar.precision:
        raise PrecisionError("the reduced system cannot be finer than the approximate solution")
    fs = list(fs)
    unknowns = sorted(assignment, key=assignment.get)
    m = len(unknowns)

    dsq_bar = selection.dbar * selection.dbar
    r_ord = dsq_bar.order()
    if not r_ord.finite:
        raise PrecisionError("squared minor vanishes to working precision")
    r = r_ord.value
    if r == 0:
        raise MadicError("squared minor is a unit; bypass directly to refinement")

    divisor = PreparedDivisor(dsq_bar)
    divisor.prepare()
    change = divisor.change
    f_values, f_quotients = {}, {}
    for k in selection.subset:
        res = evaluate(fs[k], zbar, assignment) if residuals is None else residuals[k]
        f_quotients[k], rems = w_divide(change.apply_series(res), divisor.dist)
        for l, rem in enumerate(rems):
            f_values[(k, l)] = _lift(rem, N)

    unknown_names = [f"_z_{i}_{j}" for i in range(m) for j in range(r)]
    unknown_names += [f"_a_{p}" for p in range(1, r + 1)]
    return OneVarSystem(
        equations={k: fs[k] for k in selection.subset},
        f_values=f_values,
        unknowns=tuple(unknowns),
        unknown_names=unknown_names,
        assignment={name: idx for idx, name in enumerate(unknown_names)},
        zbar=zbar,
        N=N,
        r=r,
        divisor=divisor,
        f_quotients=f_quotients,
        selection=selection,
    )


_SUBSET_SEARCH_CAP = 4000

_NO_NEWTON_MINOR = (
    "newton strategy: no square Jacobian submatrix with residual "
    "order above twice its order plus the target"
)


def solve_one_var(sys, c, config=None):
    """Solve the reduced univariate system to precision, staying within
    distance order c of the approximate point.

    The live equations (`OneVarSystem.live`) and their least order at the
    point are read from `sys.f_values`; nothing is evaluated to find them.
    When none is live the point itself is returned, the same object."""
    config = config or SolverConfig()
    _check_strategy(config.strategy)
    live = sys.live()
    if not live:
        return sys.point
    if config.strategy == "jet-search":
        return _one_var_jet_search(sys, c, config)
    residual = min(sys.f_values[key].order().value for key in live)
    return _one_var_newton(sys, live, residual, c, config)


def _one_var_newton(sys, live, residual, c, config):
    """Newton on the reduced system.  `live` are the keys of the rows that
    do not vanish at the point and `residual` is their least order there.

    Refines on the square Jacobian submatrix of least order w at the point
    among those with residual >= 2w + c, the first in combinations order
    on ties.  The Jacobian is evaluated at the point once and each
    candidate is ranked by the order of its series determinant.  When
    residual < c no order w >= 0 qualifies, so the refusal comes before the
    Jacobian is evaluated."""
    if residual < c:
        raise UnsupportedInstanceError(_NO_NEWTON_MINOR)
    unknowns = sys.unknown_names
    point = sys.point
    jbar = sys.rows(live).jacobian(point, unknowns)
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
        raise UnsupportedInstanceError(_NO_NEWTON_MINOR)
    _, esub, csub = best
    cert = tougeron_refine(
        sys.rows([live[i] for i in esub]), [unknowns[j] for j in csub], point,
        sys.assignment, c,
    )
    if not cert.certified:
        raise UnsupportedInstanceError(
            f"newton strategy failed on the reduced system: {cert.status}"
        )
    refined = cert.refined
    if any(v.order().finite for v in sys.rows(sys.keys()).values(refined)):
        raise UnsupportedInstanceError(
            "newton strategy: an unselected reduced equation does not "
            "vanish at the refined point"
        )
    return refined


def _one_var_jet_search(sys, c, config):
    fld = sys.point.field
    if not isinstance(fld, PrimeField):
        raise UnsupportedInstanceError("jet-search needs a prime-field instance")
    p = fld.p
    L = config.jet_length
    M = len(sys.unknown_names)
    total = p ** (M * L)
    if total > _JET_CAP:
        raise UnsupportedInstanceError(
            f"jet search space {p}^{M * L} exceeds the cap {_JET_CAP}"
        )
    xvar = sys.point.vars
    # the rows of each source, f_k or the squared minor, apart: a candidate
    # is dropped at the first source with a row that does not vanish
    keys = sys.keys()
    per_source = [
        sys.rows([key for key in keys if key[0] == k]) for k in dict.fromkeys(k for k, _ in keys)
    ]
    trunc_point = SeriesVector([s.truncate(L) for s in sys.point])
    best = None
    best_dist = -1
    for coeffs in itertools.product(range(p), repeat=M * L):
        entries = []
        for ui in range(M):
            chunk = coeffs[ui * L : (ui + 1) * L]
            terms = {(i,): v for i, v in enumerate(chunk) if v}
            entries.append(TruncatedSeries(fld, xvar, L, terms))
        cand = SeriesVector(entries)
        if any(v.order().finite for rows in per_source for v in rows.values(cand)):
            continue
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
    m = len(sys.unknowns)
    r = sys.r
    fld = solved.field
    svars = sys.zbar.vars
    a_solved = []
    for p in range(r):
        a = solved[m * r + p]
        if a.is_unit():
            raise MadicError("solved distinguished coefficient has a unit term")
        a_solved.append(_lift(a, N))
    dist2 = DistinguishedPolynomial(r, a_solved, fld)
    dist2_series = dist2.to_series(svars, N)
    inv = sys.divisor.change.inverse()
    entries = []
    for i in range(m):
        zi = _lift(dist2_series * _lift(sys.zbar_division[i][0], N), N)
        zi = zi + from_y_coefficients(solved.entries[i * r : (i + 1) * r], svars, N, fld)
        entries.append(inv.apply_series(zi))
    return SeriesVector(entries)


def approximate_solve(fs, zbar, assignment, c, config=None):
    """End-to-end certified approximation: given f(zbar) of high order,
    produce a nearby solution to working precision with a certificate.

    The gamma threshold derived from the configured rate function is
    recorded and reported but never trusted: every claim in the certificate
    is re-checked by independent evaluation.  `fs` is a list of
    polynomials or a `PolySystem`.
    """
    config = config or SolverConfig()
    _check_strategy(config.strategy)
    system = fs if isinstance(fs, PolySystem) else PolySystem(fs, assignment)
    fs = system.fs
    m = len(assignment)
    d = max(2, max((int(f.degree()) for f in fs if not f.is_zero()), default=2))
    N = zbar.precision

    ranking = system.ranking(zbar)
    hord = ranking.order
    if not hord.finite:
        raise HypothesisError(
            "the Jacobian ideal vanishes at the approximate solution to "
            "working precision",
            measured=hord,
        )
    s = hord.value + 1
    gamma_bound = gamma(m, d, s, c, config.a_fn)
    residuals = system.residuals(zbar)
    resid = SeriesVector(residuals).order()
    meets_gamma = resid.ge(gamma_bound)

    if not resid.finite:
        return RefinementCertificate(
            refined=zbar,
            residual_order=resid,
            coordinate_orders=[OrderValue.at_least(N) for _ in zbar],
            trace=[],
            status=STATUS_OK,
            gamma_bound=gamma_bound,
            meets_gamma=meets_gamma,
            target_order=c,
        )

    selection = select_minor(ranking, s)
    sel_fs = [fs[i] for i in selection.subset]
    r = selection.squared_order
    at = AtZbar([residuals[i] for i in selection.subset], selection.jbar, selection.dbar)

    if r == 0 or len(zbar.vars) == 1:
        cert = tougeron_refine(
            sel_fs, selection.columns, zbar, assignment, c, at=at,
        )
    else:
        sys = build_one_var_system(fs, selection, zbar, assignment, N, residuals)
        # with nothing live the reduced solve keeps the point, which gives
        # zbar back exactly (the sheared zbar is dist * q + sum_j rem_j y^j
        # to precision): refine from zbar, with the reduction's quotients
        z2 = zbar
        if sys.live():
            solved = solve_one_var(sys, c + 2 * s, config)
            z2, at = _reconstruct(sys, solved, N), None
        else:
            at.w_quotients = [sys.f_quotients[k] for k in selection.subset]
        cert = tougeron_refine(
            sel_fs, selection.columns, z2, assignment, c,
            prepared=sys.divisor, at=at,
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
    _check_strategy(config.strategy)
    system = PolySystem(fs, assignment)
    fs = system.fs
    m = len(assignment)
    d = max(2, max((int(f.degree()) for f in fs if not f.is_zero()), default=2))
    system.colons  # built before any row, as a CapacityError must come first
    rows = []
    for idx, zb in enumerate(family):
        label = labels[idx] if labels else f"member {idx}"
        resid = SeriesVector(system.residuals(zb)).order()
        hord = system.ranking(zb).order
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
                cert = approximate_solve(system, zb, assignment, c, config)
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
