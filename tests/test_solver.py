"""Minor selection, Newton refinement and the end-to-end pipeline."""

import os
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from madic import (
    HypothesisError,
    MadicError,
    OneVarSystem,
    PreparedDivisor,
    PrimeField,
    QQ,
    SeriesVector,
    TruncatedSeries,
    UnsupportedInstanceError,
    approximate_solve,
    artin_probe,
    build_one_var_system,
    evaluate,
    parse_polynomial,
    parse_series,
    select_minor,
    solve_one_var,
    tougeron_refine,
)
from madic.cli import main
from madic.solver import STATUS_OK, SolverConfig

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")


def xs(N, field=QQ):
    return TruncatedSeries.variable("x", ("x",), N, field)


def xy(N):
    return (
        TruncatedSeries.variable("x", ("x", "y"), N),
        TruncatedSeries.variable("y", ("x", "y"), N),
    )


# -- select_minor -----------------------------------------------------


def test_select_minor_single_equation():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(20)
    sel = select_minor([f], SeriesVector([x + x**4]), {"z": 0}, 3)
    assert sel.subset == (0,)
    assert sel.columns == ("z",)
    assert str(sel.minor) == "2*z"
    assert sel.squared_order == 2


def test_select_minor_smooth_point_unit_minor():
    f = parse_polynomial("z - x", ("x", "z"))
    x = xs(12)
    sel = select_minor([f], SeriesVector([x]), {"z": 0}, 1)
    assert sel.minor_order == 0
    assert sel.squared_order == 0


def test_select_minor_hypothesis_failure():
    # at zbar = 0 the minor 2z vanishes to precision, so for s = 1 no
    # product can have order below s
    f = parse_polynomial("z^2 - x^4", ("x", "z"))
    zero = TruncatedSeries.zero(("x",), 10)
    with pytest.raises(HypothesisError):
        select_minor([f], SeriesVector([zero]), {"z": 0}, 1)


def test_select_minor_deterministic():
    fs = [
        parse_polynomial("z1^2 - x^2", ("x", "z1", "z2")),
        parse_polynomial("z2^2 - x^2", ("x", "z1", "z2")),
    ]
    x = xs(20)
    zbar = SeriesVector([x + x**4, x + x**4])
    a = select_minor(fs, zbar, {"z1": 0, "z2": 1}, 3)
    b = select_minor(fs, zbar, {"z1": 0, "z2": 1}, 3)
    assert (a.subset, a.columns) == (b.subset, b.columns)
    # single-equation subsets lose here: their colon witnesses vanish to
    # high order, so the full subset with witness 1 is selected
    assert a.subset == (0, 1)
    assert a.columns == ("z1", "z2")


# -- tougeron_refine --------------------------------------------------


def test_refine_documented_example():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(20)
    cert = tougeron_refine([f], ("z",), SeriesVector([x + x**4]), {"z": 0}, 3)
    assert cert.status == STATUS_OK
    assert cert.refined[0].truncate(12) == x.truncate(12)
    assert not cert.residual_order.finite
    assert cert.coordinate_orders[0].value == 4


def test_refine_linear_one_step():
    # unit Jacobian: z - x*g solves in a single step
    f = parse_polynomial("z - x^2 - x^3", ("x", "z"))
    x = xs(16)
    cert = tougeron_refine([f], ("z",), SeriesVector([x**2]), {"z": 0}, 3)
    assert cert.status == STATUS_OK
    assert cert.iterations == 1
    assert cert.refined[0] == x**2 + x**3


def test_refine_precondition_failure():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(20)
    with pytest.raises(HypothesisError):
        tougeron_refine([f], ("z",), SeriesVector([x + x**2]), {"z": 0}, 3)


def test_refine_residual_doubling_trace():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(40)
    cert = tougeron_refine([f], ("z",), SeriesVector([x + x**5]), {"z": 0}, 3)
    assert cert.status == STATUS_OK
    prev = 6  # ord of the initial residual 2x^6 + x^10
    for t in cert.trace:
        if t >= 40:  # residual vanished to precision
            break
        assert t >= 2 * prev - 2  # 2*ord(delta(zbar)) = 2
        prev = t


def test_refine_two_unknowns():
    fs = [
        parse_polynomial("z1^2 - x^2", ("x", "z1", "z2")),
        parse_polynomial("z2 - z1", ("x", "z1", "z2")),
    ]
    x = xs(24)
    zbar = SeriesVector([x + x**5, x + x**5])
    cert = tougeron_refine(fs, ("z1", "z2"), zbar, {"z1": 0, "z2": 1}, 3)
    assert cert.status == STATUS_OK
    for f in fs:
        assert not evaluate(f, cert.refined, {"z1": 0, "z2": 1}).order().finite


def test_refine_two_unknowns_cramer_columns():
    # q = (0, x^6 - x^5)/delta^2 moves z2 alone: each coordinate needs its
    # own Cramer column (det J with that column replaced by q)
    fs = [
        parse_polynomial("z1^2 - x^2", ("x", "z1", "z2")),
        parse_polynomial("z2 - z1", ("x", "z1", "z2")),
    ]
    x = xs(24)
    zbar = SeriesVector([x + x**5, x + x**6])
    cert = tougeron_refine(fs, ("z1", "z2"), zbar, {"z1": 0, "z2": 1}, 3)
    assert cert.status == STATUS_OK
    assert list(cert.refined) == [x, x]


XYZ = ("x", "y", "z")


def _biv_point(text, N, field=QQ):
    p, _ = parse_series(f"{text} + O(m^{N})", ("x", "y"), field)
    return SeriesVector([TruncatedSeries.from_polynomial(p, N)])


def test_refine_vanishing_squared_minor_refused_at_first_division():
    # delta(zbar)^2 = 4x^12 vanishes at precision 10 while the residual x^9
    # does not: the first residual division refuses the hypothesis
    f = parse_polynomial("z^2 - x^12 + x^9", XYZ)
    with pytest.raises(HypothesisError, match="vanishes to precision"):
        tougeron_refine([f], ("z",), _biv_point("x^6", 10), {"z": 0}, 1)


def test_refine_unregularizable_squared_minor_refused_at_first_division():
    # over GF(3), x^3 - x*y^2 is the product of all x - a*y, so no shear
    # makes delta(zbar)^2 = (x^3 - x*y^2)^2 y-regular
    gf3 = PrimeField(3)
    f = parse_polynomial("z^2 - (x^3 - x*y^2)^2 + x^15", XYZ, gf3)
    zbar = _biv_point("2*x^3 - 2*x*y^2", 16, gf3)
    with pytest.raises(HypothesisError, match="no shear"):
        tougeron_refine([f], ("z",), zbar, {"z": 0}, 1)


def test_refine_unused_squared_minor_never_raises():
    # delta(zbar)^2 vanishes to precision, but the residual is zero, so no
    # division by it (or by delta(zbar)) ever runs
    f = parse_polynomial("z^2 - x^12", XYZ)
    zbar = _biv_point("x^6", 10)
    cert = tougeron_refine([f], ("z",), zbar, {"z": 0}, 1)
    assert cert.status == STATUS_OK
    assert cert.iterations == 0
    assert cert.refined[0] == zbar[0]


def test_refine_prepares_squared_minor_afresh_unless_equal():
    f = parse_polynomial("z^2 - x^2*y^2", XYZ)
    delta = parse_polynomial("2*z", XYZ)
    zbar = _biv_point("x*y + x^5*y^5", 16)
    dsq = evaluate(delta * delta, zbar, {"z": 0})
    plain = tougeron_refine([f], ("z",), zbar, {"z": 0}, 3)
    assert plain.status == STATUS_OK
    for prepared in (PreparedDivisor(dsq), PreparedDivisor(zbar[0])):
        cert = tougeron_refine(
            [f], ("z",), zbar, {"z": 0}, 3, prepared=prepared
        )
        assert cert.to_json() == plain.to_json()


def test_pipeline_prepares_each_divisor_once(monkeypatch):
    from madic import solver, weierstrass
    from madic.problemfile import load_problem

    calls = []
    real = weierstrass.prepare

    def counting(u, *args, **kwargs):
        calls.append(u)
        return real(u, *args, **kwargs)

    # the solver imported the name too: patch both namespaces
    monkeypatch.setattr(weierstrass, "prepare", counting)
    monkeypatch.setattr(solver, "prepare", counting)
    pf = load_problem(os.path.join(PROBLEMS, "solve_basic.madic"))
    cert = approximate_solve(
        pf.equations(), pf.approx_vector(), pf.assignment(),
        pf.get_int("target_order"),
    )
    assert cert.status == STATUS_OK
    # the squared minor (one-variable reduction, then every Newton
    # division) and the minor (Newton loop and the distance audit)
    assert len(calls) == len(set(calls)) == 2


# -- one-variable reduction -------------------------------------------


def _bivariate_instance(N=24):
    f = parse_polynomial("z^2 - x^2*y^2", ("x", "y", "z"))
    x, y = xy(N)
    zbar = SeriesVector([x * y + (x * y) ** 5])
    return f, zbar


def test_build_one_var_system_invariants():
    f, zbar = _bivariate_instance()
    sel = select_minor([f], zbar, {"z": 0}, 3)
    sys = build_one_var_system([f], sel, zbar, {"z": 0})
    assert sys.r == sel.squared_order == 4
    # G_l vanishes at the approximate point, exactly to precision
    for g in sys.g_polys:
        if g.is_zero():
            continue
        val = evaluate(g, sys.point, sys.assignment)
        assert not val.order().finite
    # F_{k,l} values have high order (the residual transported)
    for p in sys.f_polys.values():
        if p.is_zero():
            continue
        o = evaluate(p, sys.point, sys.assignment).order()
        assert o.ge(6)
    # the paper-derived degree bounds hold
    assert sys.degree_bounds["f_ok"]
    assert sys.degree_bounds["g_ok"]


def test_build_one_var_system_rejects_unit_minor():
    f = parse_polynomial("z - x*y", ("x", "y", "z"))
    x, y = xy(12)
    zbar = SeriesVector([x * y])
    sel = select_minor([f], zbar, {"z": 0}, 1)
    with pytest.raises(MadicError):
        build_one_var_system([f], sel, zbar, {"z": 0})


def test_solve_one_var_trivial_system():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(16)
    zbar = SeriesVector([x])
    sys = OneVarSystem.from_univariate([f], zbar, {"z": 0})
    out = solve_one_var(sys, 3)
    assert out[0] == x


def test_solve_one_var_newton():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(20)
    sys = OneVarSystem.from_univariate([f], SeriesVector([x + x**5]), {"z": 0})
    out = solve_one_var(sys, 3, "newton")
    assert out[0].truncate(12) == x.truncate(12)


def test_solve_one_var_newton_ties_go_to_first_columns():
    # both 1x1 minors of z1 + z2 - x - x^2 are units: the first column wins
    f = parse_polynomial("z1 + z2 - x - x^2", ("x", "z1", "z2"))
    x = xs(12)
    point = SeriesVector([x, x**3])
    sys = OneVarSystem.from_univariate([f], point, {"z1": 0, "z2": 1})
    out = solve_one_var(sys, 2, "newton")
    assert list(out) == [x + x**2 - x**3, x**3]


def test_strategy_agreement_gf5():
    F5 = PrimeField(5)
    f = parse_polynomial("z^2 - x^2", ("x", "z"), field=F5)
    x = xs(12, F5)
    sys = OneVarSystem.from_univariate([f], SeriesVector([x + x**4]), {"z": 0})
    cfg = SolverConfig(jet_length=4)
    newton = solve_one_var(sys, 3, "newton", cfg)
    jet = solve_one_var(sys, 3, "jet-search", cfg)
    diff = newton[0].truncate(4) - jet[0]
    assert diff.order().ge(3)


def test_jet_search_requires_prime_field():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(10)
    sys = OneVarSystem.from_univariate([f], SeriesVector([x + x**4]), {"z": 0})
    with pytest.raises(UnsupportedInstanceError):
        solve_one_var(sys, 3, "jet-search")


def test_jet_search_cap():
    F5 = PrimeField(5)
    f = parse_polynomial("z^2 - x^2", ("x", "z"), field=F5)
    x = xs(12, F5)
    sys = OneVarSystem.from_univariate([f], SeriesVector([x + x**4]), {"z": 0})
    cfg = SolverConfig(jet_length=4, jet_cap=10)
    with pytest.raises(UnsupportedInstanceError):
        solve_one_var(sys, 3, "jet-search", cfg)


# -- end-to-end pipeline ----------------------------------------------


def test_pipeline_univariate():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(32)
    cert = approximate_solve([f], SeriesVector([x + x**4]), {"z": 0}, 3)
    assert cert.status == STATUS_OK
    assert cert.coordinate_orders[0].ge(3)
    assert cert.refined[0].truncate(16) == x.truncate(16)


def test_pipeline_bivariate_weierstrass_path():
    f, zbar = _bivariate_instance()
    cert = approximate_solve([f], zbar, {"z": 0}, 3)
    assert cert.status == STATUS_OK
    x, y = xy(24)
    assert cert.refined[0] == x * y
    assert cert.coordinate_orders[0].ge(3)


def test_pipeline_exact_input_zero_iterations():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(16)
    cert = approximate_solve([f], SeriesVector([x]), {"z": 0}, 3)
    assert cert.status == STATUS_OK
    assert cert.iterations == 0
    assert cert.refined[0] == x


def test_pipeline_three_unknown_family():
    # z1^2 - z2^2 z3 with zbar = (x^3 + x^t, x^2, x^2): residual from the
    # perturbation only
    vars = ("x", "z1", "z2", "z3")
    f = parse_polynomial("z1^2 - z2^2*z3", vars)
    N = 40
    x = xs(N)
    t = 9
    zbar = SeriesVector([x**3 + x**t, x**2, x**2])
    assign = {"z1": 0, "z2": 1, "z3": 2}
    res = evaluate(f, zbar, assign)
    assert res.order().value == 3 + t  # 2x^{3+t} + x^{2t}
    cert = approximate_solve([f], zbar, assign, 2)
    assert cert.status == STATUS_OK
    for o in cert.coordinate_orders:
        assert o.ge(2)


@contextmanager
def _budget(seconds):
    """Fail the enclosed block by TimeoutError once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


HARD = """series_vars: x y
unknowns: z w
equation: z^2 - w^3
equation: w - x^2 - y^2
approx: x^3 + y^3 + x^7 + O(m^20)
approx: x^2 + y^2 + O(m^20)
target_order: 2
"""


def test_two_unknown_hard_instance_refused_in_bounded_time(tmp_path):
    # the reduced system has r = 6, 18 unknowns and 4 live equations of
    # residual order 2: none of its 3060 4x4 minors meets the target, and
    # each is ranked by its value at the point, never built symbolically
    vars = ("x", "y", "z", "w")
    fs = [parse_polynomial(t, vars) for t in ("z^2 - w^3", "w - x^2 - y^2")]
    zbar = []
    for text in ("x^3 + y^3 + x^7 + O(m^20)", "x^2 + y^2 + O(m^20)"):
        p, N = parse_series(text, ("x", "y"))
        zbar.append(TruncatedSeries.from_polynomial(p, N))
    problem = tmp_path / "hard.madic"
    problem.write_text(HARD)
    with _budget(10):
        with pytest.raises(UnsupportedInstanceError, match="newton strategy"):
            approximate_solve(fs, SeriesVector(zbar), {"z": 0, "w": 1}, 2)
        assert main(["solve", str(problem)]) == 2


def test_pipeline_jacobian_ideal_vanishes():
    f = parse_polynomial("z^2 - x^4", ("x", "z"))
    zero = TruncatedSeries.zero(("x",), 8)
    with pytest.raises(HypothesisError):
        approximate_solve([f], SeriesVector([zero]), {"z": 0}, 2)


def test_pipeline_bypass_equivalence():
    # unit minor: the pipeline reduces to plain refinement
    f = parse_polynomial("z - x^2 - x^5", ("x", "z"))
    x = xs(20)
    zbar = SeriesVector([x**2])
    cert = approximate_solve([f], zbar, {"z": 0}, 3)
    sel = select_minor([f], zbar, {"z": 0}, 1)
    direct = tougeron_refine([f], sel.columns, zbar, {"z": 0}, 3)
    assert cert.status == direct.status == STATUS_OK
    assert cert.refined[0] == direct.refined[0]
    assert cert.trace == direct.trace


def test_certificate_serialization():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(20)
    cert = approximate_solve([f], SeriesVector([x + x**4]), {"z": 0}, 3)
    blob = cert.to_json()
    assert blob["status"] == STATUS_OK
    assert blob["residual_order"]["kind"] == "at-least-precision"
    assert isinstance(blob["refined"][0]["terms"], list)
    import json

    json.dumps(blob)  # must be serializable as-is


# -- probe ------------------------------------------------------------


def test_probe_monotone_family():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    N = 30
    x = xs(N)
    family = [SeriesVector([x + x**k]) for k in range(4, 9)]
    report = artin_probe([f], family, {"z": 0}, [3])
    assert not report.defects
    achieved = [row.achieved_order.value for row in report.rows]
    assert achieved == sorted(achieved)
    resid = [row.residual_order.value for row in report.rows]
    assert resid == sorted(resid)


def test_probe_rhs_past_the_cap_is_unknown():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    family = [SeriesVector([xs(30) + xs(30) ** 5])]
    small = artin_probe([f], family, {"z": 0}, [3]).rows[0]
    assert small.achieved_order is not None and small.elkik_order.finite
    assert small.rhs_exponent is not None
    # K^(m*ordH) = 2^20, so d^(2^20) would have about a million bits
    cfg = SolverConfig(K=2**20)
    big = artin_probe([f], family, {"z": 0}, [3], cfg).rows[0]
    assert big.achieved_order == small.achieved_order
    assert big.rhs_exponent is None


def test_probe_exact_family():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(16)
    report = artin_probe([f], [SeriesVector([x])], {"z": 0}, [2, 4])
    for row in report.rows:
        assert not row.residual_order.finite
        assert row.succeeded
        assert not row.defect


def test_probe_records_failures_as_rows():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(16)
    # residual order 3 is too low: the run fails but the probe still reports
    report = artin_probe([f], [SeriesVector([x + x**2])], {"z": 0}, [3])
    row = report.rows[0]
    assert not row.succeeded
    assert row.note
    assert not row.gamma_met
    assert not row.defect


def test_probe_report_serialization():
    import json

    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(16)
    report = artin_probe([f], [SeriesVector([x + x**5])], {"z": 0}, [2])
    blob = report.to_json()
    json.dumps(blob)
    assert blob["defect_count"] == 0
    assert blob["rows"][0]["target_order"] == 2
