"""Minor selection, Newton refinement and the end-to-end pipeline."""

import dataclasses
import hashlib
import json
import os
from fractions import Fraction
from sys import setprofile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from madic import (
    HypothesisError,
    MadicError,
    OneVarSystem,
    OrderValue,
    Polynomial,
    PreparedDivisor,
    PrimeField,
    QQ,
    SeriesVector,
    TruncatedSeries,
    UnsupportedInstanceError,
    approximate_solve,
    artin_probe,
    build_one_var_system,
    elkik_ideal,
    evaluate,
    jacobian,
    parse_polynomial,
    parse_series,
    rank_minors,
    select_minor,
    solve_one_var,
    tougeron_refine,
)
from madic import solver
from madic.cli import main
from madic.solver import (
    _NO_NEWTON_MINOR,
    G_ROW,
    STATUS_OK,
    STATUS_STALLED,
    AtZbar,
    MinorSelection,
    PolySystem,
    SolverConfig,
    _move_within,
    _reconstruct,
)
from madic.poly import determinant
from madic.weierstrass import divide_series, regularize, w_divide
from helpers import budget, variable as polynomial_variable

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")


def variable(name, vars, N, field=QQ):
    return TruncatedSeries.from_polynomial(polynomial_variable(name, vars, field), N)


def degree_in(p, name):
    """Degree of p in the variable `name`, for p nonzero."""
    i = p.vars.index(name)
    return max(e[i] for e in p.nums)


def xs(N, field=QQ):
    return variable("x", ("x",), N, field)


def xy(N):
    return variable("x", ("x", "y"), N), variable("y", ("x", "y"), N)


# -- select_minor -----------------------------------------------------


def test_select_minor_single_equation():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(20)
    sel = select_minor(rank_minors([f], SeriesVector([x + x**4]), {"z": 0}), 3)
    assert sel.subset == (0,)
    assert sel.columns == ("z",)
    assert str(sel.minor) == "2*z"
    assert sel.squared_order == 2


def test_select_minor_smooth_point_unit_minor():
    f = parse_polynomial("z - x", ("x", "z"))
    x = xs(12)
    sel = select_minor(rank_minors([f], SeriesVector([x]), {"z": 0}), 1)
    assert sel.minor_order == 0
    assert sel.squared_order == 0


def test_select_minor_hypothesis_failure():
    # at zbar = 0 the minor 2z vanishes to precision, so for s = 1 no
    # product can have order below s
    f = parse_polynomial("z^2 - x^4", ("x", "z"))
    zero = TruncatedSeries.zero(("x",), 10)
    with pytest.raises(HypothesisError):
        select_minor(rank_minors([f], SeriesVector([zero]), {"z": 0}), 1)


def test_select_minor_deterministic():
    fs = [
        parse_polynomial("z1^2 - x^2", ("x", "z1", "z2")),
        parse_polynomial("z2^2 - x^2", ("x", "z1", "z2")),
    ]
    x = xs(20)
    zbar = SeriesVector([x + x**4, x + x**4])
    a = select_minor(rank_minors(fs, zbar, {"z1": 0, "z2": 1}), 3)
    b = select_minor(rank_minors(fs, zbar, {"z1": 0, "z2": 1}), 3)
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
    with pytest.raises(HypothesisError) as info:
        tougeron_refine([f], ("z",), SeriesVector([x + x**2]), {"z": 0}, 3)
    assert info.value.reason == "residual-order"


def test_refine_residual_not_a_multiple_has_its_own_reason():
    # z^2 - x^2*y^2 at x*y + x^3: the residual 2x^4*y + x^6 is not a
    # multiple of delta(zbar)^2 = 4(x*y + x^3)^2
    f = parse_polynomial("z^2 - x^2*y^2", XYZ)
    with pytest.raises(HypothesisError, match="not an exact multiple") as info:
        tougeron_refine([f], ("z",), _biv_point("x*y + x^3", 16), {"z": 0}, 1)
    assert info.value.reason == "residual-not-multiple"


def test_refine_step_zero_divides_nothing_by_the_minor(monkeypatch):
    # at step 0 the minor is delta(zbar) itself, so w = 1: neither the
    # division of delta(zbar) by itself nor an inverse of w is taken
    from madic import solver

    divisions, inverses = [], []
    real_divide, real_inverse = solver.divide_series, TruncatedSeries.inverse

    def divide(v, u):
        divisions.append(v == u.u)
        return real_divide(v, u)

    def inverse(self, precision=None):
        inverses.append(precision)
        return real_inverse(self, precision)

    monkeypatch.setattr(solver, "divide_series", divide)
    monkeypatch.setattr(TruncatedSeries, "inverse", inverse)
    f = parse_polynomial("z - x^2 - x^3", ("x", "z"))
    x = xs(16)
    cert = tougeron_refine([f], ("z",), SeriesVector([x**2]), {"z": 0}, 3)
    assert cert.status == STATUS_OK and cert.iterations == 1
    assert cert.refined[0] == x**2 + x**3
    assert divisions and not any(divisions)
    assert [p for p in inverses if p is not None] == []


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
XY = XYZ[:2]


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


def _refine_recording_inverses(monkeypatch, full, *args):
    """tougeron_refine(*args), the (precision of w, precision asked for) of
    each inverse it takes and the same of each quotient by a unit w.  With
    `full`, every inverse is taken at w's own precision whatever was asked,
    and every quotient is the product by such an inverse."""
    asked, divided = [], []
    real_inverse, real_over = TruncatedSeries.inverse, TruncatedSeries.over

    def inverse(self, precision=None):
        asked.append((self.precision, precision))
        return real_inverse(self) if full else real_inverse(self, precision)

    def over(self, w, precision=None):
        divided.append((w.precision, precision))
        if not full:
            return real_over(self, w, precision)
        q = self * real_inverse(w)
        return q if precision is None else q.truncate(precision)

    monkeypatch.setattr(TruncatedSeries, "inverse", inverse)
    monkeypatch.setattr(TruncatedSeries, "over", over)
    try:
        return tougeron_refine(*args), asked, divided
    finally:
        monkeypatch.undo()


def _assert_same_certificate(lean, full):
    assert lean.status == STATUS_OK and lean.iterations >= 2
    for name in (fld.name for fld in dataclasses.fields(lean)):
        a, b = getattr(lean, name), getattr(full, name)
        if name == "refined":
            a, b = list(a), list(b)
        assert a == b, name


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
@pytest.mark.parametrize(
    "equation, unknowns, point",
    [
        # z^2 - g^2 and z1^2 - z2^2*z3 at a point off the root by c*x^k
        ("z^2 - (x + 2*x^2 - 3*x^3)^2", ("z",), ["x + 2*x^2 - 3*x^3 + 5/7*x^7"]),
        (
            "z1^2 - z2^2*z3",
            ("z1", "z2", "z3"),
            ["(x - x^2)*(x + 4*x^3) - 2/3*x^8", "x - x^2", "(x + 4*x^3)^2"],
        ),
    ],
)
def test_refine_inverts_w_only_below_what_the_step_reads(monkeypatch, field, equation, unknowns, point):
    N = 64
    f = parse_polynomial(equation, ("x",) + unknowns, field)
    entries = [parse_series(f"{p} + O(m^{N})", ("x",), field)[0] for p in point]
    zbar = SeriesVector([TruncatedSeries.from_polynomial(p, N) for p in entries])
    assignment = {u: i for i, u in enumerate(unknowns)}
    args = ([f], unknowns[:1], zbar, assignment, 3)
    lean, asked, divided = _refine_recording_inverses(monkeypatch, False, *args)
    full, _, _ = _refine_recording_inverses(monkeypatch, True, *args)
    _assert_same_certificate(lean, full)
    # a univariate step takes no inverse: it divides each Cramer numerator
    # by w below N - ord dbar, the only part of h the step reads
    assert asked == []
    half = evaluate(f.diff(unknowns[0]), zbar, assignment).order().value
    steps = [(own, cap) for own, cap in divided if cap is not None]
    # step 0 divides nothing: its w is 1
    assert len(steps) == lean.iterations - 1
    assert all(own == cap == N - half for own, cap in steps)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_refine_inverts_bivariate_w_only_below_what_the_step_reads(monkeypatch, field):
    N = 24
    f = parse_polynomial("z^2 - x^2*y^2", XYZ, field)
    point = parse_series(f"x*y + x^3*y^2 + O(m^{N})", ("x", "y"), field)[0]
    zbar = SeriesVector([TruncatedSeries.from_polynomial(point, N)])
    args = ([f], ("z",), zbar, {"z": 0}, 3)
    lean, asked, divided = _refine_recording_inverses(monkeypatch, False, *args)
    full, _, _ = _refine_recording_inverses(monkeypatch, True, *args)
    _assert_same_certificate(lean, full)
    # each bivariate step inverts w once, below N - min ord of its Cramer
    # numerators, here below w's own precision at every step
    steps = [(own, cap) for own, cap in asked if cap is not None]
    assert len(steps) == lean.iterations - 1
    assert all(cap < own < N for own, cap in steps)
    assert divided == []


# -- Taylor steps against the evaluate-and-divide step -----------------


class _Divided:
    """A polynomial system seen only through `values` and `jacobian`, so
    `tougeron_refine` evaluates and divides at every step."""

    def __init__(self, fs, assignment):
        self._system = PolySystem(fs, assignment)

    def values(self, point):
        return self._system.values(point)

    def jacobian(self, point, columns):
        return self._system.jacobian(point, columns)


def _refinement(system, *args):
    """The certificate's JSON, or the refusal's type, message and reason."""
    try:
        return tougeron_refine(system, *args).to_json()
    except MadicError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "reason", None)


def _both_steps(fs, zbar, assignment, c, max_steps=64):
    columns = tuple(sorted(assignment, key=assignment.get))
    args = (columns, zbar, assignment, c)
    with mock.patch.object(solver, "_MAX_STEPS", max_steps):
        return _refinement(fs, *args), _refinement(_Divided(fs, assignment), *args)


@st.composite
def square_systems(draw, max_m=3):
    """m = 1-`max_m` equations f_i in u_j = z_j - root_j: u_i times a unit
    or a square, or u_i plus a neighbour's square, some with a cross term
    u_i u_(i+1), at roots plus one perturbation monomial of degree 3-8."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(7), GF32003]))
    svars = draw(st.sampled_from([("x",), ("x", "y")]))
    m = draw(st.integers(1, max_m))
    unknowns = tuple(f"z{i}" for i in range(m))

    def monomial(low, high):
        d = draw(st.integers(low, high))
        a = draw(st.integers(0, d)) if len(svars) == 2 else d
        coeff = draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))
        return f"({coeff})*x^{a}" + (f"*y^{d - a}" if len(svars) == 2 else "")

    roots = [monomial(1, 3) for _ in unknowns]
    u = [f"({z} - {root})" for z, root in zip(unknowns, roots)]
    eqs = []
    for i in range(m):
        nxt = u[(i + 1) % m]
        eqs.append(draw(st.sampled_from([
            f"{u[i]}^{draw(st.integers(1, 3))} - ({monomial(0, 2)})^2*{u[i]}",
            f"{u[i]}*({monomial(1, 2)} + {nxt}) + {u[i]}^2",
            f"{u[i]} + {draw(st.integers(1, 3))}*{nxt}^2 + {u[i]}^3",
        ])) + (f" + {nxt}*{u[i]}" if m > 1 and draw(st.booleans()) else ""))
    N = draw(st.integers(8, 24 if len(svars) == 2 else 40))
    point = [f"{root} + {monomial(3, 8)} + O(m^{N})" for root in roots]
    fs = [parse_polynomial(e, svars + unknowns, field) for e in eqs]
    zbar = SeriesVector(
        [TruncatedSeries.from_polynomial(parse_series(p, svars, field)[0], N) for p in point]
    )
    return fs, zbar, {z: i for i, z in enumerate(unknowns)}, draw(st.integers(1, 2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(square_systems(), st.sampled_from([1, 2, 64]))
def test_taylor_step_matches_the_division_step(case, max_steps):
    taylor, divided = _both_steps(*case, max_steps)
    assert taylor == divided


def test_taylor_step_stalls_where_w_is_not_a_unit():
    # z^2 - x^2 over GF(5) at 2x: q = 3 and the step lands on z = 0, where
    # det J = 0, so w is not a unit and the second step never starts
    gf5 = PrimeField(5)
    f = parse_polynomial("z^2 - x^2", ("x", "z"), gf5)
    zbar = SeriesVector([xs(10, gf5) * 2])
    taylor, divided = _both_steps([f], zbar, {"z": 0}, 0)
    assert taylor == divided
    assert (taylor["status"], taylor["iterations"], taylor["trace"]) == (STATUS_STALLED, 1, [2])


def test_bivariate_taylor_refine_evaluates_and_divides_only_at_the_ends(monkeypatch):
    from madic import solver

    divisions, evaluations, jacobians = [], [], []
    real_divide, real_evaluate = solver.divide_series, solver.evaluate
    real_jacobian = PolySystem.jacobian

    def divide(v, u):
        divisions.append(v)
        return real_divide(v, u)

    def evaluate_(f, point, assignment):
        evaluations.append(f)
        return real_evaluate(f, point, assignment)

    def jacobian_(self, point, columns):
        jacobians.append(point)
        return real_jacobian(self, point, columns)

    monkeypatch.setattr(solver, "divide_series", divide)
    monkeypatch.setattr(solver, "evaluate", evaluate_)
    monkeypatch.setattr(PolySystem, "jacobian", jacobian_)
    fs, zbar, assignment, c = _solve_basic()
    assert len(zbar.vars) == 2
    cert = tougeron_refine(fs, ("z",), zbar, assignment, c)
    assert cert.status == STATUS_OK and cert.iterations >= 2
    # one division per residual before the loop; the distance audit reads
    # each move's order and divides nothing
    moved = sum(not (a - b).is_zero() for a, b in zip(cert.refined, zbar))
    assert moved and len(divisions) == len(fs)
    assert [sum(g is f for g in evaluations) for f in fs] == [2] * len(fs)
    assert len(jacobians) == 1


def test_univariate_taylor_refine_divides_only_the_initial_residuals(monkeypatch):
    from madic import solver

    divisions = []
    real = solver.divide_series

    def divide(v, u):
        divisions.append(v)
        return real(v, u)

    monkeypatch.setattr(solver, "divide_series", divide)
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(20)
    zbar = SeriesVector([x + x**4])
    cert = tougeron_refine([f], ("z",), zbar, {"z": 0}, 3)
    assert cert.status == STATUS_OK and cert.iterations >= 2
    assert cert.refined[0] != zbar[0]
    assert len(divisions) == 1


@st.composite
def audited_moves(draw):
    """(diff, dbar, c) as the distance audit of `tougeron_refine` sees
    them: dbar of order a with a forced y^a (or, sheared, x^a) term, and
    diff = dbar*H mod m^N with ord H just below, at or above c.  Over
    k[[x]] a stray monomial of degree below a may make diff no multiple of
    dbar = unit * x^a."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(7), GF32003]))
    svars = draw(st.sampled_from([("x",), ("x", "y")]))
    a, c = draw(st.integers(0, 3)), draw(st.integers(-1, 4))
    N = draw(st.integers(max(2 * a + 2, a + c + 3, 4), 14))
    lead = draw(st.sampled_from([(0, a), (a, 0)])) if len(svars) == 2 else (a,)

    def monomial(low, high):
        d = draw(st.integers(low, high))
        if len(svars) == 1:
            return (d,)
        i = draw(st.integers(0, d))
        return (d - i, i)

    def series(low, forced):
        terms = {
            monomial(low, N - 1): field.convert(draw(st.integers(-9, 9)))
            for _ in range(draw(st.integers(0, 5)))
        }
        terms[forced] = field.convert(draw(st.sampled_from([1, -1, 5])))
        return TruncatedSeries(field, svars, N, terms)

    dbar = series(a, lead)
    h = max(c, 0) + draw(st.integers(-1, 1))
    h = min(max(h, 0), N - a - 1)
    diff = dbar * series(h, monomial(h, h))
    if len(svars) == 1 and a and draw(st.booleans()):
        e = (draw(st.integers(0, a - 1)),)
        diff = diff + TruncatedSeries(field, svars, N, {e: field.one()})
    return diff, dbar, c


@settings(max_examples=250, deadline=None, derandomize=True)
@given(audited_moves())
# a unit dbar with a move of order below c; over k[[x]], with c = -1, a
# move of order a - 1: no multiple of x^a, though its order is >= a + c
@example((xs(8) + xs(8) ** 2, 1 + xs(8), 2))
@example((xs(8) + xs(8) ** 3, xs(8) ** 2, -1))
def test_move_within_gives_the_division_verdict(case):
    diff, dbar, c = case
    if len(dbar.vars) == 2 and dbar.order().value:
        # the audit runs only after delta(zbar)^2 was prepared, so it
        # never meets a dbar that no shear makes y-regular
        try:
            regularize(dbar)
        except MadicError:
            return
    assert diff.terms
    try:
        expected = divide_series(diff, dbar).order().ge(c)
    except MadicError:
        expected = False
    assert _move_within(diff, dbar.order().value, c) == expected


PIN_NOT_MULTIPLE = """field: Q
series_vars: x y
unknowns: z
equation: z^3 + y^2*z
approx: x^9*y + O(m^18)
target_order: 1
"""


def test_refine_of_a_residual_that_is_no_multiple_is_refused(tmp_path, capsys):
    # the residual x^9*y^3 is no multiple of delta(zbar)^2 = y^4 + O(m^18);
    # its remainder lies past the degrees the remainder test reads, where
    # the run used to stall after 4 iterations at residual order 12
    problem = tmp_path / "pin.madic"
    problem.write_text(PIN_NOT_MULTIPLE)
    with budget(10):
        assert main(["refine", str(problem)]) == 2
    assert capsys.readouterr().err == (
        "precondition failed: residual is not an exact multiple of the "
        "squared minor: series division is not exact\n"
    )


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
    # the squared minor, shared by the one-variable reduction and every
    # Newton division; the Taylor steps and the distance audit never
    # divide by the minor
    assert len(calls) == 1


# -- one-variable reduction -------------------------------------------


def _bivariate_instance(N=24):
    f = parse_polynomial("z^2 - x^2*y^2", ("x", "y", "z"))
    x, y = xy(N)
    zbar = SeriesVector([x * y + (x * y) ** 5])
    return f, zbar


def test_build_one_var_system_invariants():
    f, zbar = _bivariate_instance()
    sel = select_minor(rank_minors([f], zbar, {"z": 0}), 3)
    sys = build_one_var_system([f], sel, zbar, {"z": 0})
    assert sys.r == sel.squared_order == 4
    keys = sys.keys()
    g_keys = [(G_ROW, l) for l in range(sys.r)]
    assert keys == g_keys + list(sys.f_values)
    # G_l vanishes at the approximate point, exactly to precision
    for value in sys.rows(g_keys).values(sys.point):
        assert not value.order().finite
    # F_{k,l} values have high order (the residual transported)
    for value in sys.rows(list(sys.f_values)).values(sys.point):
        assert value.order().ge(6)
    # the paper's degree bounds hold for the symbolic rows: d*r - l for the
    # F rows and 2m(d - 1)r - l for the G rows
    change, d, m, r = sys.divisor.change, int(f.degree()), 1, sys.r
    for l, p in enumerate(_reference_reduction(f, change, ("z",), sys, XY)):
        assert p.degree() <= d * r - l
    for l, g in enumerate(_reference_reduction(sel.minor * sel.minor, change, ("z",), sys, XY)):
        assert g.degree() <= 2 * m * (d - 1) * r - l


def test_build_one_var_system_rejects_unit_minor():
    f = parse_polynomial("z - x*y", ("x", "y", "z"))
    x, y = xy(12)
    zbar = SeriesVector([x * y])
    sel = select_minor(rank_minors([f], zbar, {"z": 0}), 1)
    with pytest.raises(MadicError):
        build_one_var_system([f], sel, zbar, {"z": 0})


def _reference_reduction(p, change, unknowns, sys, svars):
    """Shear p by substitution, then substitute u_i = sum_j z_ij y^j, then
    divide by the generic monic A(y) = y^r + a_1 y^(r-1) + ... + a_r by
    peeling its top y-term; returns the remainder's y-coefficients."""
    r, fld = sys.r, p.field
    sys_vars = svars + tuple(sys.unknown_names)
    z_names, a_names = sys.unknown_names[: -r], sys.unknown_names[-r:]
    x, y = (polynomial_variable(v, p.vars, fld) for v in svars)
    sheared = p.subs({svars[0]: x + y * Polynomial.constant(change.lam, p.vars, fld), svars[1]: y})
    Y = polynomial_variable(svars[1], sys_vars, fld)
    images = {}
    for i, u in enumerate(unknowns):
        images[u] = Polynomial.zero(sys_vars, fld)
        for j in range(r):
            images[u] = images[u] + polynomial_variable(z_names[i * r + j], sys_vars, fld) * Y**j
    work = sheared.subs(images)
    A = Y**r
    for q, name in enumerate(a_names, start=1):
        A = A + polynomial_variable(name, sys_vars, fld) * Y ** (r - q)
    vi = sys_vars.index(svars[1])

    def coefficient(l):
        return Polynomial(
            fld, sys_vars,
            {e[:vi] + (0,) + e[vi + 1:]: c for e, c in work.terms.items() if e[vi] == l},
        )

    while not work.is_zero() and degree_in(work, svars[1]) >= r:
        e = degree_in(work, svars[1])
        work = work - coefficient(e) * Y ** (e - r) * A
    return [coefficient(l) for l in range(r)]


def _assert_rows_are_the_reference(fs, sel, sys, unknowns, point, columns):
    """The reduced rows' values and Jacobian on `columns` at `point` are the
    symbolic reference rows evaluated there, term for term."""
    change = sys.divisor.change
    ref = {}
    for k, p in [(G_ROW, sel.minor * sel.minor)] + [(k, fs[k]) for k in sel.subset]:
        for l, row in enumerate(_reference_reduction(p, change, unknowns, sys, XY)):
            ref[(k, l)] = row
    keys = sys.keys()
    assert keys == list(ref)
    rows = sys.rows(keys)
    assert rows.values(point) == [evaluate(ref[key], point, sys.assignment) for key in keys]
    want = jacobian([ref[key] for key in keys], columns).entries
    got = rows.jacobian(point, columns).entries
    assert got == [[evaluate(p, point, sys.assignment) for p in row] for row in want]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_reduced_rows_are_the_reference_under_a_shear(field):
    # the squared minor 4*z^2 at z = x is 4*x^2: not y-regular, so sheared;
    # two unknowns, and one equation left out of the selected subset
    vars, N = XY + ("z", "w"), 16
    eqs = ("z^2 - x^2 - y^5", "w^2 - x^2*y^2 - z^2*y^4", "z*w - x^2*y")
    fs = [parse_polynomial(t, vars, field) for t in eqs]
    zbar = SeriesVector(
        [TruncatedSeries.from_polynomial(parse_polynomial(t, XY, field), N) for t in ("x", "x*y + x*y^2")]
    )
    assignment = {"z": 0, "w": 1}
    sel = select_minor(rank_minors(fs, zbar, assignment), 8)
    sys = build_one_var_system(fs, sel, zbar, assignment)
    assert not sys.divisor.change.is_identity()
    assert len(sel.subset) < len(fs)
    moved = SeriesVector([s + xs(N, field) ** 3 - 2 for s in sys.point])
    for point in (sys.point, moved):
        _assert_rows_are_the_reference(fs, sel, sys, ("z", "w"), point, sys.unknown_names[::-1])


def _solve_basic():
    from madic.problemfile import load_problem

    pf = load_problem(os.path.join(PROBLEMS, "solve_basic.madic"))
    return pf.equations(), pf.approx_vector(), pf.assignment(), pf.get_int("target_order")


def _biv_instance(equation, approx, N, field=QQ, c=1):
    return [parse_polynomial(equation, XYZ, field)], _biv_point(approx, N, field), {"z": 0}, c


@pytest.mark.parametrize(
    "instance",
    [
        _solve_basic,
        # a solve_biv shape, r = 4
        lambda: _biv_instance("z^3 - x^3", "x + 2*x^2*y^3", 16, c=2),
        # the live reduced Newton of test_live_reduced_newton_is_pinned
        lambda: _biv_instance("z^3 - y^3", "y + x^9", 12),
    ],
    ids=["solve_basic", "solve_biv_r4", "live_newton"],
)
def test_solve_path_builds_no_symbolic_reduction(instance):
    # calls are caught by code object, whatever name they are made under
    from madic.weierstrass import generic_euclid

    targets = {generic_euclid.__code__, Polynomial.subs.__code__}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in targets:
            calls.append(frame.f_code.co_name)

    fs, zbar, assignment, c = instance()
    assert len(zbar.vars) == 2
    setprofile(profile)
    try:
        cert = approximate_solve(fs, zbar, assignment, c)
    finally:
        setprofile(None)
    assert cert.status == STATUS_OK
    assert calls == []


# -- values computed at zbar once ----------------------------------------


@pytest.mark.parametrize(
    "instance, live, refused",
    [
        (_solve_basic, False, False),
        (lambda: _biv_instance("z^3 - y^3", "y + x^9", 12), True, False),
        # the sum_root shape: live, and refused before the point is read
        (lambda: _biv_instance("z^2 - (x+y)^2", "x + y + 3*x^2*y^2", 24, PrimeField(32003), 3), True, True),
    ],
    ids=["solve_basic", "live_newton", "sum_root"],
)
def test_pipeline_computes_each_value_at_zbar_once(instance, live, refused, monkeypatch):
    from madic import groebner, solver, weierstrass

    names = {
        weierstrass.w_divide.__code__: "w_divide",
        weierstrass.divide_series.__code__: "divide_series",
        groebner.colon.__code__: "colon",
        evaluate.__code__: "evaluate",
        solver._evaluated.__code__: "evaluated",
    }
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls.append((names[frame.f_code], dict(frame.f_locals)))

    fs, zbar, assignment, c = instance()
    selections = _spy(monkeypatch, "select_minor")
    setprofile(profile)
    try:
        cert = approximate_solve(fs, zbar, assignment, c)
    except UnsupportedInstanceError:
        cert = None
    finally:
        setprofile(None)
    monkeypatch.undo()
    sel = select_minor(*selections[0])
    assert (cert is None) == refused and (refused or cert.status == STATUS_OK)

    def args(name, key):
        return [a[key] for n, a in calls if n == name]

    change = regularize(sel.dbar * sel.dbar)[0]
    sheared = [s if change.is_identity() else change.apply_series(s) for s in zbar]
    residuals = [evaluate(fs[k], zbar, assignment) for k in sel.subset]
    residuals = [s if change.is_identity() else change.apply_series(s) for s in residuals]
    dividends = args("w_divide", "g")
    # each selected residual is sheared and divided once, and zbar only
    # when a value is live and the reduced solve reads the point
    assert [sum(g == s for g in dividends) for s in residuals] == [1] * len(residuals)
    assert [sum(g == s for g in dividends) for s in sheared] == [live and not refused] * len(zbar)
    # the initial division of the refinement from zbar starts from the
    # reduction's quotient, through divide_series
    handed = [a for a in args("divide_series", "w_quotient") if a is not None]
    assert len(handed) == (0 if live else len(residuals))
    # each colon ideal is built once, for the system; E = every equation
    # gives the whole ring with no intersection (tests/test_groebner.py)
    built = [tuple(map(str, J.generators)) for J in args("colon", "J")]
    assert len(built) == len(set(built)) == 2 ** len(fs)
    # f and J at zbar once each; the final audit evaluates at the refined point
    at_zbar = [f for f, z in zip(args("evaluate", "f"), args("evaluate", "zbar")) if z is zbar]
    assert [sum(g is f for g in at_zbar) for f in fs] == [1] * len(fs)
    assert sum(z is zbar for z in args("evaluated", "zbar")) == 1


def test_refinement_on_the_probe_family_builds_no_fraction():
    # over QQ a series keeps integer numerators over one denominator, so no
    # Fraction is built while a tougeron_refine frame is on the stack;
    # constructions are caught by the code object of Fraction.__new__
    from madic.problemfile import load_problem

    pf = load_problem(os.path.join(PROBLEMS, "probe_family.madic"))
    family, labels = pf.family_vectors()
    refine, new = tougeron_refine.__code__, Fraction.__new__.__code__
    depth, built = [0], []

    def profile(frame, event, arg):
        if frame.f_code is refine:
            depth[0] += {"call": 1, "return": -1}.get(event, 0)
        elif event == "call" and frame.f_code is new and depth[0]:
            built.append(frame.f_back.f_code.co_name)

    setprofile(profile)
    try:
        report = artin_probe(pf.equations(), family, pf.assignment(), pf.targets(), None, labels)
    finally:
        setprofile(None)
    assert pf.field() == QQ and len(report.rows) == 5
    assert depth == [0] and built == []
    digest = hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()
    assert digest == "2d9e5170ab80837254597346e59c74b86309724fccc6d6cdb46b52d080c330ea"


def _refine_with_zbar_data(fs, zbar, assignment, c, max_steps, other_divisor):
    """The refinement of the square system `fs` from zbar, alone and with
    what the pipeline hands on: residuals, J(zbar), dbar and, for a
    bivariate instance that reduces, the divisor and quotients of
    `build_one_var_system`; with `other_divisor`, those of dbar*(x + y)
    instead, which the refinement must refuse along with the quotients."""
    columns = tuple(sorted(assignment, key=assignment.get))
    system = PolySystem(fs, assignment)
    jbar = system.jacobian(zbar, columns)
    at = AtZbar(system.values(zbar), jbar, determinant(jbar))
    sel = MinorSelection(tuple(range(len(fs))), columns, None, None, 0, 0, jbar, at.dbar)
    if other_divisor and len(zbar.vars) == 2:
        # not dbar times a unit: that has the same distinguished polynomial
        x, y = (variable(v, zbar.vars, zbar.precision, zbar.field) for v in zbar.vars)
        sel = dataclasses.replace(sel, dbar=at.dbar * (x + y))
    prepared = None
    try:
        sys = build_one_var_system(fs, sel, zbar, assignment, residuals=at.residuals)
        prepared, at.w_quotients = sys.divisor, [sys.f_quotients[k] for k in sel.subset]
    except MadicError:
        pass  # univariate, a unit minor, or a squared minor that cannot be prepared
    args = (fs, columns, zbar, assignment, c)
    with mock.patch.object(solver, "_MAX_STEPS", max_steps):
        return _refinement(*args), _refinement(*args, prepared, at), prepared is not None


ZBAR_DATA_EXAMPLES = [
    # lam = 0: the squared minor 4z^2 at y + y^4 is y-regular
    (["z^2 - y^2"], "y + y^4", 24, QQ, 3),
    # sheared: 4z^2 at x + x^4 has no pure y term
    (["z^2 - x^2"], "x + x^4", 24, QQ, 3),
    # the residual x^2*y is no multiple of dbar^2 = 4x^2*y^2
    (["z^2 - x^2*y^2 - x^2*y"], "x*y", 16, PrimeField(7), 1),
    # the quotient (2x^4*y^4 + x^6*y^6)/(4x^2*y^2(1 + x^2*y^2)^2) has
    # order 4, below the target 5
    (["z^2 - x^2*y^2"], "x*y + x^3*y^3", 16, QQ, 5),
    # N = 9 <= 2r + 1 for r = 4: too little precision to divide
    (["z^2 - x^2*y^2"], "x*y + x^2*y^2", 9, PrimeField(3), 1),
    # GF(2), sheared: the residual is no multiple of dbar^2
    (["z^2 + x*z - y^2"], "y + x^3", 12, PrimeField(2), 1),
]


def _zbar_data_case(equations, approx, N, field, c):
    fs = [parse_polynomial(e, XYZ, field) for e in equations]
    return fs, _biv_point(approx, N, field), {"z": 0}, c


@settings(max_examples=150, deadline=None, derandomize=True)
@given(square_systems(), st.sampled_from([1, 64]), st.booleans())
@example(_zbar_data_case(*ZBAR_DATA_EXAMPLES[0]), 64, False)
@example(_zbar_data_case(*ZBAR_DATA_EXAMPLES[1]), 64, False)
@example(_zbar_data_case(*ZBAR_DATA_EXAMPLES[1]), 64, True)
@example(_zbar_data_case(*ZBAR_DATA_EXAMPLES[2]), 64, False)
@example(_zbar_data_case(*ZBAR_DATA_EXAMPLES[3]), 64, False)
@example(_zbar_data_case(*ZBAR_DATA_EXAMPLES[4]), 64, False)
@example(_zbar_data_case(*ZBAR_DATA_EXAMPLES[5]), 1, True)
def test_refinement_from_handed_on_zbar_data_is_the_same(case, max_steps, other_divisor):
    alone, handed, _ = _refine_with_zbar_data(*case, max_steps, other_divisor)
    assert handed == alone


def test_zbar_data_examples_cover_each_outcome():
    outcomes = []
    for spec in ZBAR_DATA_EXAMPLES:
        fs, zbar, assignment, c = _zbar_data_case(*spec)
        alone, handed, reduced = _refine_with_zbar_data(fs, zbar, assignment, c, 64, False)
        dsq = PolySystem(fs, assignment).jacobian(zbar, ("z",))[0, 0] ** 2
        outcome = alone[2] if isinstance(alone, tuple) else alone["status"]
        outcomes.append((reduced, regularize(dsq)[0].is_identity(), outcome))
    # (reduced, lam = 0, outcome); a PrecisionError has no reason
    assert outcomes == [
        (True, True, STATUS_OK),
        (True, False, STATUS_OK),
        (True, False, "residual-not-multiple"),
        (True, False, "residual-order"),
        (True, False, None),
        (True, False, "residual-not-multiple"),
    ]


GF32003 = PrimeField(32003)


@st.composite
def reduction_instances(draw, exact):
    """A root z = b of z^e - b^e (b = x needs a shear, b = y does not) plus
    a few perturbation monomials, so r = 2(e - 1) is 2 or 4.  With `exact`
    the precision P exceeds the degree of f(zbar) and of the squared minor
    at zbar, so neither drops a term; otherwise the perturbation is dense.
    N is P or below it, down to P - r."""
    field = draw(st.sampled_from([QQ, GF32003]))
    e = draw(st.sampled_from([2, 3]))
    r = 2 * (e - 1)
    base = draw(st.sampled_from(["x", "y"]))
    if exact:
        maxdeg = draw(st.integers(2, 3))
        P = r * maxdeg + 1 + draw(st.integers(0, 2))
    else:
        P = draw(st.integers(2 * e + 4, 12))
        maxdeg = P - 1
    monos = draw(
        st.lists(
            st.tuples(st.integers(0, maxdeg), st.integers(0, maxdeg)).filter(
                lambda m: 2 <= sum(m) <= maxdeg
            ),
            min_size=1, max_size=3 if exact else 6, unique=True,
        )
    )
    coeffs = draw(st.lists(st.integers(1, 9), min_size=len(monos), max_size=len(monos)))
    N = P - draw(st.sampled_from([0, 0, 1, r - 1, r]))
    terms = {(1, 0) if base == "x" else (0, 1): field.one()}
    for m, c in zip(monos, coeffs):
        terms[m] = field.convert(c)
    zbar = SeriesVector([TruncatedSeries(field, ("x", "y"), P, terms)])
    f = parse_polynomial(f"z^{e} - {base}^{e}", ("x", "y", "z"), field)
    return f, zbar, r, base, N, exact


def _reduced(f, zbar, N):
    assignment = {"z": 0}
    sel = select_minor(rank_minors([f], zbar, assignment), zbar.precision)
    return sel, build_one_var_system([f], sel, zbar, assignment, N)


@settings(max_examples=60, deadline=None)
@given(st.booleans().flatmap(reduction_instances))
def test_series_side_values_are_the_reduced_equations_at_the_point(instance):
    # substitution is a ring homomorphism and the Weierstrass remainder is
    # unique, so the stored values are the reduced equations at the point.
    # Both sides rest on representatives cut at degree P = zbar.precision,
    # and the remainder of m^P by the distinguished polynomial (of order r,
    # so ord a_p >= p) has coefficient l of order >= P - l: coefficient l
    # is fixed modulo x^(P - l), which covers all of it for l = 0 and for
    # every l once N <= P - r + 1
    f, zbar, r, base, N, exact = instance
    P = zbar.precision
    sel, sys = _reduced(f, zbar, N)
    assert sys.r == sel.squared_order == r
    assert sys.divisor.change.is_identity() == (base == "y")
    f_keys = list(sys.f_values)
    assert f_keys == [(0, l) for l in range(r)]
    for (k, l), want in zip(f_keys, sys.rows(f_keys).values(sys.point)):
        got = sys.f_values[(k, l)]
        assert got.precision == want.precision == N
        known = min(N, P - l)
        assert got.truncate(known) == want.truncate(known)
        if known == N:
            assert got.terms == want.terms
    # the g rows, which solve_one_var never reads at the point, vanish
    # there: to precision when the squared minor at zbar drops no term
    g_keys = [(G_ROW, l) for l in range(r)]
    for l, value in enumerate(sys.rows(g_keys).values(sys.point)):
        assert value.order().ge(N if exact else min(N, P - l))


@settings(max_examples=25, deadline=None)
@given(st.booleans().flatmap(reduction_instances), st.data())
def test_reduced_rows_are_the_reference_at_any_point(instance, data):
    # points off the reduced point, with a_p(0) != 0 among them, and a few
    # columns in any order (the reference Jacobian is slow to evaluate)
    f, zbar, _, _, N, _ = instance
    sel, sys = _reduced(f, zbar, N)
    fld = zbar.field
    moved = []
    for s in sys.point:
        terms = data.draw(st.dictionaries(st.integers(0, N - 1), st.integers(-9, 9), max_size=3))
        terms[0] = data.draw(st.integers(0, 2))
        terms = {(d,): fld.convert(c) for d, c in terms.items()}
        moved.append(s + TruncatedSeries(fld, ("x",), N, terms))
    names = st.sampled_from(sys.unknown_names)
    columns = data.draw(st.lists(names, min_size=1, max_size=3, unique=True))
    _assert_rows_are_the_reference([f], sel, sys, ("z",), SeriesVector(moved), columns)


@settings(max_examples=30, deadline=None)
@given(st.booleans().flatmap(reduction_instances))
def test_unmoved_point_reconstructs_to_zbar(instance):
    # the sheared zbar is dist * q + sum_j z_j y^j to precision, so the
    # reduced point as it is gives zbar back: approximate_solve skips the
    # reconstruction when the reduced solve returns the point
    f, zbar, _, _, N, _ = instance
    _, sys = _reduced(f, zbar, N)
    assert list(_reconstruct(sys, sys.point, N)) == [z.truncate(N) for z in zbar]


@settings(max_examples=30, deadline=None)
@given(st.booleans().flatmap(reduction_instances), st.data())
def test_moved_point_leaves_the_moved_remainders(instance, data):
    f, zbar, _, _, _, _ = instance
    N = zbar.precision
    _, sys = _reduced(f, zbar, N)
    r = sys.r
    j = data.draw(st.integers(0, r - 1))
    k = data.draw(st.integers(1, N - 1 - j))
    c = data.draw(st.integers(1, 9))
    moved = list(sys.point)
    moved[j] = moved[j] + xs(N, zbar.field) ** k * c
    moved = SeriesVector(moved)
    out = _reconstruct(sys, moved, N)
    change, dist = sys.divisor.change, sys.divisor.dist
    sheared = out[0] if change.is_identity() else change.apply_series(out[0])
    _, rems = w_divide(sheared, dist)
    assert rems == list(moved)[:r]


def test_values_fixed_by_no_term_of_zbar_are_not_live():
    # zbar is a root of z^2 - Z^2 and f(zbar) = -x^11 y^2 sits at degree
    # P - 1.  Its remainder by dist = (y - phi(x))^2, phi = -x^2 + ..., is
    # 2 phi x^11 y + phi^2 x^11: coefficient 1 starts at degree 13 = P - 1,
    # where a term of zbar at degree P would change it, so nothing is live
    # and the reduced solve keeps the point
    P = 14
    Z = "y + x^2 + 2*x^3 - x*y^2 + 3*x^2*y^2 + x^5*y"
    f = parse_polynomial(f"z^2 - ({Z})^2 - x^11*y^2", ("x", "y", "z"))
    poly, _ = parse_series(f"{Z} + O(m^{P})", ("x", "y"))
    zbar = SeriesVector([TruncatedSeries.from_polynomial(poly, P)])
    _, sys = _reduced(f, zbar, P)
    assert sys.zbar_precision == P and sys.r == 2
    assert sys.f_values[(0, 0)].is_zero()
    assert sys.f_values[(0, 1)].order().value == P - 1
    assert solve_one_var(sys, 3) is sys.point
    assert approximate_solve([f], zbar, {"z": 0}, 3).status == STATUS_OK


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
    out = solve_one_var(sys, 3, SolverConfig(strategy="newton"))
    assert out[0].truncate(12) == x.truncate(12)


def test_solve_one_var_newton_ties_go_to_first_columns():
    # both 1x1 minors of z1 + z2 - x - x^2 are units: the first column wins
    f = parse_polynomial("z1 + z2 - x - x^2", ("x", "z1", "z2"))
    x = xs(12)
    point = SeriesVector([x, x**3])
    sys = OneVarSystem.from_univariate([f], point, {"z1": 0, "z2": 1})
    out = solve_one_var(sys, 2, SolverConfig(strategy="newton"))
    assert list(out) == [x + x**2 - x**3, x**3]


def test_strategy_agreement_gf5():
    F5 = PrimeField(5)
    f = parse_polynomial("z^2 - x^2", ("x", "z"), field=F5)
    x = xs(12, F5)
    sys = OneVarSystem.from_univariate([f], SeriesVector([x + x**4]), {"z": 0})
    newton = solve_one_var(sys, 3, SolverConfig(strategy="newton", jet_length=4))
    jet = solve_one_var(sys, 3, SolverConfig(strategy="jet-search", jet_length=4))
    diff = newton[0].truncate(4) - jet[0]
    assert diff.order().ge(3)


def test_unknown_strategy_is_refused_before_any_work(monkeypatch):
    from madic import groebner

    def no_work(*args, **kwargs):
        raise AssertionError("work began under an unknown strategy")

    # the first Groebner work of both is the colon ideals of the system
    monkeypatch.setattr(groebner, "colon", no_work)
    cfg = SolverConfig(strategy="bogus")
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(12)
    zbar = SeriesVector([x + x**4])
    # the univariate path never reaches the reduced-system solver
    with pytest.raises(UnsupportedInstanceError, match="unknown strategy 'bogus'"):
        approximate_solve([f], zbar, {"z": 0}, 3, cfg)
    with pytest.raises(UnsupportedInstanceError, match="unknown strategy"):
        artin_probe([f], [zbar], {"z": 0}, [3], cfg)
    # nor does a reduced system with no live equation
    sys = OneVarSystem.from_univariate([f], SeriesVector([x]), {"z": 0})
    with pytest.raises(UnsupportedInstanceError, match="unknown strategy"):
        solve_one_var(sys, 3, cfg)


def test_jet_search_requires_prime_field():
    f = parse_polynomial("z^2 - x^2", ("x", "z"))
    x = xs(10)
    sys = OneVarSystem.from_univariate([f], SeriesVector([x + x**4]), {"z": 0})
    with pytest.raises(UnsupportedInstanceError):
        solve_one_var(sys, 3, SolverConfig(strategy="jet-search"))


def test_jet_search_cap(monkeypatch):
    from madic import solver

    monkeypatch.setattr(solver, "_JET_CAP", 10)
    F5 = PrimeField(5)
    f = parse_polynomial("z^2 - x^2", ("x", "z"), field=F5)
    x = xs(12, F5)
    sys = OneVarSystem.from_univariate([f], SeriesVector([x + x**4]), {"z": 0})
    cfg = SolverConfig(strategy="jet-search", jet_length=4)
    with pytest.raises(UnsupportedInstanceError, match="exceeds the cap 10"):
        solve_one_var(sys, 3, cfg)


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


HARD = """series_vars: x y
unknowns: z w
equation: z^2 - w^3
equation: w - x^2 - y^2
approx: x^3 + y^3 + x^7 + O(m^20)
approx: x^2 + y^2 + O(m^20)
target_order: 2
"""


def _hard_instance():
    vars = ("x", "y", "z", "w")
    fs = [parse_polynomial(t, vars) for t in ("z^2 - w^3", "w - x^2 - y^2")]
    zbar = []
    for text in ("x^3 + y^3 + x^7 + O(m^20)", "x^2 + y^2 + O(m^20)"):
        p, N = parse_series(text, ("x", "y"))
        zbar.append(TruncatedSeries.from_polynomial(p, N))
    return fs, SeriesVector(zbar)


def test_two_unknown_hard_instance_refused_in_bounded_time(tmp_path):
    # the reduced system has r = 6, 18 unknowns and 4 live equations of
    # residual order 2: none of its 3060 4x4 minors can meet the target
    fs, zbar = _hard_instance()
    problem = tmp_path / "hard.madic"
    problem.write_text(HARD)
    with budget(10):
        with pytest.raises(UnsupportedInstanceError, match="newton strategy"):
            approximate_solve(fs, zbar, {"z": 0, "w": 1}, 2)
        assert main(["solve", str(problem)]) == 2


def test_one_var_newton_refuses_before_any_determinant(monkeypatch):
    # the hard instance's reduced residual order, 2, is below the reduced
    # target c + 2s = 10, so no minor order w >= 0 can meet residual >= 2w + c
    from madic import solver

    calls = []  # (residual, c) of each _one_var_newton call
    inside = []
    determinants = []
    real_newton, real_det = solver._one_var_newton, solver.determinant

    def newton(sys, live, residual, c, config):
        calls.append((residual, c))
        inside.append(True)
        try:
            return real_newton(sys, live, residual, c, config)
        finally:
            inside.pop()

    def determinant(m):
        if inside:
            determinants.append(m)
        return real_det(m)

    monkeypatch.setattr(solver, "_one_var_newton", newton)
    monkeypatch.setattr(solver, "determinant", determinant)
    fs, zbar = _hard_instance()
    with budget(10):
        with pytest.raises(UnsupportedInstanceError) as err:
            approximate_solve(fs, zbar, {"z": 0, "w": 1}, 2)
    assert str(err.value) == (
        "newton strategy: no square Jacobian submatrix with residual "
        "order above twice its order plus the target"
    )
    assert calls == [(2, 10)]
    assert determinants == []




# -- the order of the Jacobian ideal at zbar ---------------------------


def _probe_family():
    from madic.problemfile import load_problem

    pf = load_problem(os.path.join(PROBLEMS, "probe_family.madic"))
    return pf.equations(), pf.family_vectors()[0], pf.assignment()


def _ranking_examples():
    """An all-zero system, one whose only pair with both orders below N has
    its sum at N or beyond, the hard two-unknown instance and each member
    of the probe family, as `square_systems` cases."""
    vars = ("x", "y", "z0", "z1")
    zero = Polynomial.zero(vars, QQ)
    x, y = xy(12)
    yield [zero, zero], SeriesVector([x, x + y]), {"z0": 0, "z1": 1}, 1
    # E = (0,): minor 2*z0 of order 3 and witness z0^2 of order 6, below 7
    fs = [parse_polynomial(f"{z}^2", ("x", "z0", "z1")) for z in ("z0", "z1")]
    x = xs(7)
    yield fs, SeriesVector([x**3, x**4]), {"z0": 0, "z1": 1}, 1
    fs, zbar = _hard_instance()
    yield fs, zbar, {"z": 0, "w": 1}, 2
    fs, family, assignment = _probe_family()
    for zb in family:
        yield fs, zb, assignment, 3


def _with_examples(test):
    for case in _ranking_examples():
        test = example(case)(test)
    return test


def ideal_order(gens, zbar, assignment):
    """Min order of the generators evaluated at zbar; a generating set
    suffices since evaluation is linear over the ambient ring."""
    orders = [evaluate(g, zbar, assignment).order() for g in gens]
    finite = [o for o in orders if o.finite]
    if not finite:
        return OrderValue.at_least(zbar.precision)
    return min(finite, key=lambda o: o.value)


def test_ideal_order_is_min_generator_order():
    fs = [parse_polynomial("z - x", ("x", "z")), parse_polynomial("z^2 - x^2", ("x", "z"))]
    x = xs(10)
    assert ideal_order(fs, SeriesVector([x + x**3]), {"z": 0}) == OrderValue(3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(square_systems(max_m=2))
@_with_examples
def test_ranking_reads_the_order_of_the_jacobian_ideal(case):
    # ord (delta k)(zbar) = ord delta(zbar) + ord k(zbar), so the least sum
    # below N is ord H(zbar) for H as elkik_ideal forms it, E = () included.
    # Two equations at most: the colon ideals of some drawn three-equation
    # systems take Buchberger past 20 s each
    fs, zbar, assignment, _ = case
    H = elkik_ideal(fs, sorted(assignment, key=assignment.get))
    assert rank_minors(fs, zbar, assignment).order == ideal_order(H.generators, zbar, assignment)


def test_probe_builds_each_colon_ideal_once_per_op(monkeypatch):
    from madic import groebner

    fs, family, assignment = _probe_family()
    real_colon, real_intersect = groebner.colon, groebner.intersect
    colons, meets, elkik = [], [], []

    def colon(J, I):
        colons.append(J)
        return real_colon(J, I)

    def intersect(I, J):
        meets.append(I)
        return real_intersect(I, J)

    monkeypatch.setattr(groebner, "colon", colon)
    monkeypatch.setattr(groebner, "intersect", intersect)
    monkeypatch.setattr(groebner, "elkik_ideal", lambda *a: elkik.append(a))
    for members in (family, family[:1]):
        colons.clear()
        report = artin_probe(fs, members, assignment, [3, 4])
        assert len(report.rows) == 2 * len(members)
        # one per subset E of the one equation: E = () gives the zero
        # ideal and E = (0,) the whole ring, neither with an intersection
        assert len(colons) == 2
    assert len(family) == 5 and elkik == [] and meets == []


def test_probe_ranks_each_member_once(monkeypatch):
    # artin_probe reads ord H at each member, and approximate_solve of each
    # target selects its minor from the same ranking
    fs, family, assignment = _probe_family()
    ranked = _spy(monkeypatch, "rank_minors")
    report = artin_probe(fs, family, assignment, [3, 4])
    assert len(report.rows) == 2 * len(family)
    assert len(ranked) == len(family)
    assert all(args[1] is zbar for args, zbar in zip(ranked, family))


def test_probe_evaluates_each_equation_once_per_member():
    # artin_probe reads the residual order at each member, and
    # approximate_solve of each target takes f(zbar) from the same values;
    # the final audit evaluates at the refined point, another vector
    from madic.series import evaluate as real_evaluate

    fs, family, assignment = _probe_family()
    at = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is real_evaluate.__code__:
            at.append((frame.f_locals["f"], frame.f_locals["zbar"]))

    setprofile(profile)
    try:
        report = artin_probe(fs, family, assignment, [3, 4])
    finally:
        setprofile(None)
    assert len(report.rows) == 2 * len(family)
    assert [[sum(g is f and z is zb for g, z in at) for f in fs] for zb in family] == [
        [1] * len(fs) for _ in family
    ]


def _spy(monkeypatch, name):
    """Record each call of solver.`name`."""
    from madic import solver

    calls = []
    real = getattr(solver, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, name, spy)
    return calls


# digest: sha256 of the sorted JSON dump of the certificate, recorded when
# the reduced rows were still built as symbolic polynomials
@pytest.mark.parametrize(
    "field, digest",
    [
        (QQ, "12ca7713634d0a6a080f745ff30d8bb34e15725162108702f8131f312937763e"),
        (GF32003, "21fa6a14c514df723791f1de1e9e9f5b24bfc9d51c6d7e90a66ddd05d4250376"),
    ],
    ids=["QQ", "GF32003"],
)
def test_live_reduced_newton_is_pinned(field, digest, monkeypatch):
    # z^3 - y^3 at y + x^9: two rows of the reduced system are live, and the
    # reduced Newton moves the point onto the root y
    calls = _spy(monkeypatch, "_one_var_newton")
    fs, zbar, assignment, c = _biv_instance("z^3 - y^3", "y + x^9", 12, field)
    with budget(10):
        cert = approximate_solve(fs, zbar, assignment, c)
    assert len(calls) == 1
    assert cert.status == STATUS_OK
    assert cert.refined[0] == _biv_point("y", 12, field)[0]
    blob = json.dumps(cert.to_json(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_live_reduced_jet_search_is_pinned(monkeypatch):
    # z^2 + x*z - y^2 over GF(2) at y + x^3: the reduced system has live
    # rows and none of the 2^12 jets of length 3 is a root of every row
    calls = _spy(monkeypatch, "_one_var_jet_search")
    gf2 = PrimeField(2)
    fs, zbar, assignment, c = _biv_instance("z^2 + x*z - y^2", "y + x^3", 6, gf2)
    cfg = SolverConfig(strategy="jet-search", jet_length=3)
    with budget(10):
        with pytest.raises(UnsupportedInstanceError) as err:
            approximate_solve(fs, zbar, assignment, c, cfg)
    assert len(calls) == 1
    assert str(err.value) == "jet search found no solution at jet length 3"


CASE_267 = """field: Q
series_vars: x y
unknowns: z
equation: (z - ((5)*x^3*y^1))^3 - ((-3)*y^2 + (1)*x^2*y^1)^3*(z - ((5)*x^3*y^1))
approx: (5)*x^3*y^1 + (1)*x^3*y^1 + O(m^14)
target_order: 1
"""


def test_cubic_with_r_12_is_refused_in_bounded_time(tmp_path, capsys):
    # the symbolic reduced system of this cubic (r = 12) had 8.2 M terms and
    # took over 100 s; the refusal needs only the residual's remainders
    problem = tmp_path / "case267.madic"
    problem.write_text(CASE_267)
    with budget(10):
        assert main(["solve", str(problem)]) == 2
    assert capsys.readouterr().err == f"precondition failed: {_NO_NEWTON_MINOR}\n"


def test_high_precision_square_is_refused_in_bounded_time():
    # z^2 - x*y^3 at x^15 + O(m^40): building the symbolic reduced system
    # took 75 s and more
    f = parse_polynomial("z^2 - x*y^3", XYZ)
    with budget(10):
        with pytest.raises(UnsupportedInstanceError) as err:
            approximate_solve([f], _biv_point("x^15", 40), {"z": 0}, 1)
    assert str(err.value) == _NO_NEWTON_MINOR


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
    sel = select_minor(rank_minors([f], zbar, {"z": 0}), 1)
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
