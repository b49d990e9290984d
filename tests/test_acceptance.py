"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines on
success; they always appear in captured output on failure).
"""

import math
import random
import time
from fractions import Fraction

from madic import (
    DistinguishedPolynomial,
    Ideal,
    OneVarSystem,
    Polynomial,
    PrimeField,
    QQ,
    SeriesVector,
    TruncatedSeries,
    UnsupportedInstanceError,
    artin_probe,
    colon,
    divide_series,
    doubly_exponential_bound,
    elkik_degree_bound,
    elkik_ideal,
    evaluate,
    gamma,
    generic_euclid,
    ideal_equal,
    parse_polynomial,
    prepare,
    radical_member,
    solve_one_var,
    tougeron_refine,
    unit_a_fn,
    w_divide,
)
from madic.poly import NEG_INF
from madic.solver import STATUS_OK, SolverConfig
from helpers import variable

FOUR = ("x", "y", "z", "t")
XY = ("x", "y")


def degree_in(p, name):
    """Degree of p in the variable `name`, NEG_INF for zero."""
    i = p.vars.index(name)
    return max((e[i] for e in p.nums), default=NEG_INF)


def _report(n, ok, desc):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def P4(text):
    return parse_polynomial(text, FOUR)


def _f_system():
    return [P4(s) for s in ("x*z", "x*t", "y*z", "y*t")]


def _h_system():
    return [P4(s) for s in ("x*(z+t)", "x*(z-t)", "y*z", "y*t")]


F_EXPECTED = ("x^3", "y^3", "z^3", "t^3", "(x*y)^2", "(z*t)^2")
H_EXPECTED = (
    "x^3",
    "y^3",
    "(x*y)^2",
    "z^2*(z+t)^2",
    "t^2*(z+t)^2",
    "z^2*(z-t)^2",
    "t^2*(z-t)^2",
)


def test_criterion_1_elkik_f_system_golden():
    start = time.monotonic()
    fs = _f_system()
    I = Ideal(fs)
    H = elkik_ideal(fs, list(FOUR))
    ok = ideal_equal(H + I, Ideal([P4(s) for s in F_EXPECTED]) + I)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(
        1,
        ok,
        "Jacobian ideal of the monomial system equals its known "
        f"six-generator form modulo the equations ({elapsed:.2f}s)",
    )


def test_criterion_2_elkik_h_system_golden():
    hs = _h_system()
    I = Ideal(hs)
    H = elkik_ideal(hs, list(FOUR))
    ok = ideal_equal(H + I, Ideal([P4(s) for s in H_EXPECTED]) + I)
    _report(
        2,
        ok,
        "Jacobian ideal of the sheared system equals its known "
        "seven-generator form modulo the equations",
    )


def test_criterion_3_separation_witness():
    fs, hs = _f_system(), _h_system()
    I = Ideal(fs)
    Hf = elkik_ideal(fs, list(FOUR)) + I
    Hh = elkik_ideal(hs, list(FOUR)) + Ideal(hs)
    z3 = P4("z^3")
    z = P4("z")
    ok = (
        Hf.contains(z3)
        and not Hh.contains(z3)
        and radical_member(z, Hf)
        and radical_member(z, Hh)
    )
    _report(
        3,
        ok,
        "z^3 separates the two Jacobian ideals while z lies in both radicals",
    )


F_COLON_TABLE = {
    (0, 1): ("x",),
    (0, 2): ("z",),
    (0, 3): ("x*y", "z*t"),
    (1, 2): ("x*y", "z*t"),
    (1, 3): ("t",),
    (2, 3): ("y",),
}

H_COLON_TABLE = {
    (0, 1): ("x",),
    (0, 2): ("x*y", "z*(z+t)"),
    (0, 3): ("x*y", "t*(z+t)"),
    (1, 2): ("x*y", "z*(z-t)"),
    (1, 3): ("x*y", "t*(z-t)"),
    (2, 3): ("y",),
}


def test_criterion_4_colon_table():
    ok = True
    for system, table in ((_f_system(), F_COLON_TABLE), (_h_system(), H_COLON_TABLE)):
        I = Ideal(system)
        for (i, j), expected in table.items():
            Q = colon(Ideal([system[i], system[j]]), I)
            ok = ok and ideal_equal(Q + I, Ideal([P4(s) for s in expected]) + I)
        for f in system:
            Q1 = colon(Ideal([f]), I)
            ok = ok and all(I.contains(g) for g in Q1.generators)
    _report(
        4,
        ok,
        "all twelve pairwise colon ideals match the known table modulo the "
        "equations and every single-equation colon vanishes modulo them",
    )


def test_criterion_5_generic_division_degree_bounds():
    rng = random.Random(1005)
    violations = 0
    for field in (QQ, PrimeField(32003)):
        for _ in range(500):
            r = rng.randint(1, 4)
            a_names = [f"A{i}" for i in range(1, r + 1)]
            vars = ("x", "V") + tuple(a_names)
            terms = {}
            for _ in range(rng.randint(1, 6)):
                e = [rng.randint(0, 2), rng.randint(0, 6)] + [
                    rng.randint(0, 1) for _ in range(r)
                ]
                terms[tuple(e)] = field.convert(rng.randint(-4, 4))
            P = Polynomial(field, vars, terms)
            if P.is_zero():
                continue
            V = variable("V", vars, field)
            R = Polynomial.zero(vars, field)
            for l, c in enumerate(generic_euclid(P, r, "V", a_names)):
                R = R + c * V**l
            if degree_in(R, "V") >= r:
                violations += 1
            elif not R.is_zero() and R.degree() > P.degree():
                violations += 1
    _report(
        5,
        violations == 0,
        "1000 randomized generic Euclidean divisions over QQ and GF(32003), "
        f"r <= 4, satisfy deg_V(R) < r and deg(R) <= deg(P) ({violations} violations)",
    )


def test_criterion_6_weierstrass_round_trips():
    rng = random.Random(1006)
    N = 24
    ok = True

    def rand_unit():
        terms = {(0, 0): Fraction(rng.choice([1, -1, 2, 3]))}
        for _ in range(rng.randint(0, 6)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            if e != (0, 0):
                terms[e] = Fraction(rng.randint(-3, 3))
        return TruncatedSeries(QQ, XY, N, terms)

    def rand_dist():
        r = rng.randint(1, 3)
        coeffs = []
        for _ in range(r):
            terms = {
                (rng.randint(1, 4),): Fraction(rng.randint(-3, 3))
                for _ in range(rng.randint(0, 2))
            }
            coeffs.append(TruncatedSeries(QQ, ("x",), N, terms))
        return DistinguishedPolynomial(r, coeffs)

    for _ in range(200):
        u, dist = rand_unit(), rand_dist()
        inverse2, dist2 = prepare(u * dist.to_series(XY, N))
        ok = ok and inverse2.inverse() == u and dist2.r == dist.r and dist2.coeffs == dist.coeffs

    y = TruncatedSeries.from_polynomial(variable("y", XY), N)
    for _ in range(200):
        terms = {
            (rng.randint(0, 6), rng.randint(0, 6)): Fraction(rng.randint(-4, 4))
            for _ in range(rng.randint(1, 8))
        }
        g = TruncatedSeries(QQ, XY, N, terms)
        dist = rand_dist()
        q, rems = w_divide(g, dist)
        rec = dist.to_series(XY, N) * q
        for j, rem in enumerate(rems):
            biv = TruncatedSeries(QQ, XY, N, {(e[0], 0): c for e, c in rem.terms.items()})
            rec = rec + biv * y**j
        ok = ok and rec == g

    _report(
        6,
        ok,
        "200 preparation round trips recover both factors bit-exactly and "
        "200 Weierstrass divisions recompose to the dividend at N=24",
    )


def test_criterion_7_tougeron_suite():
    rng = random.Random(1007)
    N = 32
    c = 3
    x = TruncatedSeries.from_polynomial(variable("x", ("x",)), N)
    ok = True
    checked = 0

    instances = []
    # the documented instance first
    instances.append(("quad", parse_polynomial("x", ("x",)), 4))
    for _ in range(24):
        root = variable("x", ("x",), QQ)
        for _ in range(rng.randint(0, 2)):
            root = root + Polynomial(QQ, ("x",), {(rng.randint(2, 4),): Fraction(rng.randint(-2, 2))})
        instances.append(("quad", root, rng.randint(4, 7)))
    for _ in range(25):
        root = Polynomial.zero(("x",), QQ)
        for _ in range(rng.randint(1, 3)):
            root = root + Polynomial(QQ, ("x",), {(rng.randint(1, 5),): Fraction(rng.randint(-3, 3))})
        instances.append(("lin", root, rng.randint(3, 7)))

    for kind, root, k in instances:
        rvars = ("x", "z")
        root_p = root.extend_vars(rvars)
        zvar = variable("z", rvars, QQ)
        if kind == "quad":
            f = zvar * zvar - root_p * root_p
            delta = parse_polynomial("2*z", rvars)
        else:
            f = zvar - root_p
            delta = parse_polynomial("1", rvars)
        zbar = SeriesVector([TruncatedSeries.from_polynomial(root, N) + x**k])
        dbar = evaluate(delta, zbar, {"z": 0})
        if kind == "quad" and (not dbar.order().finite or k - dbar.order().value < c):
            continue  # precondition would not hold; not part of the suite
        cert = tougeron_refine([f], ("z",), zbar, {"z": 0}, c)
        good = cert.status == STATUS_OK
        res = evaluate(f, cert.refined, {"z": 0})
        good = good and res.order().ge(20)
        diff = cert.refined[0] - zbar[0]
        if not diff.is_zero():
            try:
                good = good and divide_series(diff, dbar).order().ge(c)
            except Exception:
                good = False
        prev = None
        off = 2 * (dbar.order().value if dbar.order().finite else 0)
        for t in cert.trace:
            if prev is not None and t < N and t < 2 * prev - off:
                good = False
            prev = t
        ok = ok and good
        checked += 1

    ok = ok and checked >= 50
    _report(
        7,
        ok,
        f"{checked} Newton refinements with known roots certify residual "
        "vanishing mod m^20, membership of the move in (delta)m^c, and the "
        "residual-doubling law",
    )


def test_criterion_8_bound_calculators():
    ok = elkik_degree_bound(1, 2) == 11_718_750_003
    vals_d = [elkik_degree_bound(1, d) for d in range(2, 6)]
    vals_m = [elkik_degree_bound(m, 2) for m in range(1, 5)]
    vals_c = [gamma(1, 2, 1, c) for c in range(0, 6)]
    ok = ok and all(b > a for a, b in zip(vals_d, vals_d[1:]))
    ok = ok and all(b > a for a, b in zip(vals_m, vals_m[1:]))
    ok = ok and all(b > a for a, b in zip(vals_c, vals_c[1:]))
    loglogs = [
        math.log(math.log(doubly_exponential_bound(cc, 3))) for cc in range(1, 7)
    ]
    diffs = [b - a for a, b in zip(loglogs, loglogs[1:])]
    ok = ok and all(abs(d - math.log(3)) < 1e-9 for d in diffs)
    _report(
        8,
        ok,
        "degree bound evaluates to 11718750003 at (m,d)=(1,2); bounds are "
        "monotone and the doubly exponential shape is log-log linear",
    )


def test_criterion_9_strategy_cross_validation():
    F5 = PrimeField(5)
    c = 3
    x = TruncatedSeries.from_polynomial(variable("x", ("x",), F5), 12)
    suite = []
    for k in (4, 5, 6):
        f = parse_polynomial("z^2 - x^2", ("x", "z"), field=F5)
        suite.append(([f], SeriesVector([x + x**k])))
    f = parse_polynomial("z - x - x^3", ("x", "z"), field=F5)
    suite.append(([f], SeriesVector([x])))

    compared = 0
    ok = True
    for fs, zbar in suite:
        sys = OneVarSystem.from_univariate(fs, zbar, {"z": 0})
        results = {}
        for strategy in ("newton", "jet-search"):
            try:
                results[strategy] = solve_one_var(sys, c, SolverConfig(strategy=strategy, jet_length=4))
            except UnsupportedInstanceError:
                continue
        if len(results) == 2:
            a, b = results["newton"], results["jet-search"]
            prec = min(a.precision, b.precision)
            diff = a[0].truncate(prec) - b[0].truncate(prec)
            ok = ok and diff.order().ge(min(c, prec))
            compared += 1
    ok = ok and compared >= 3
    _report(
        9,
        ok,
        f"newton and exhaustive jet search over GF(5) agree to order >= c "
        f"on {compared} mutually applicable instances",
    )


def test_criterion_10_implication_audit():
    cfg = SolverConfig(a_fn=unit_a_fn)
    defects = 0
    gamma_met_rows = 0
    rows = 0

    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    N = 30
    x = TruncatedSeries.from_polynomial(variable("x", ("x",)), N)
    family = [SeriesVector([x + x**k]) for k in range(4, 12)]
    rep = artin_probe([f], family, {"z": 0}, [2, 3], cfg)
    defects += len(rep.defects)
    gamma_met_rows += sum(1 for r in rep.rows if r.gamma_met)
    rows += len(rep.rows)

    vars3 = ("x", "z1", "z2", "z3")
    g = parse_polynomial("z1^2 - z2^2*z3", vars3)
    fam3 = [
        SeriesVector([x**3 + x**t, x**2, x**2]) for t in (9, 12, 15)
    ]
    rep3 = artin_probe([g], fam3, {"z1": 0, "z2": 1, "z3": 2}, [2], cfg)
    defects += len(rep3.defects)
    gamma_met_rows += sum(1 for r in rep3.rows if r.gamma_met)
    rows += len(rep3.rows)

    ok = defects == 0 and gamma_met_rows > 0
    _report(
        10,
        ok,
        "the main inequalities are existence-only and not quantitatively "
        "reproducible; substituted implication audit: every probe row at or "
        f"above the gamma threshold was certified ({gamma_met_rows} such "
        f"rows, {defects} defects out of {rows})",
    )
