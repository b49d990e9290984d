"""Tests of the benchmark itself: `python -m pytest -q perfbench` from the
repository root."""

from __future__ import annotations

import argparse
import json
import re
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import audit  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def madic():
    module, _ = bench.import_madic(ROOT)
    return module


def _run(madic, trace=0):
    return bench.Run(argparse.Namespace(trace=trace, seconds=float("inf")), madic)


@pytest.mark.parametrize("workload", sorted(wl.SHAPES))
def test_generator_is_deterministic_per_seed(workload):
    a = wl.schedule(workload, 7, passes=4)
    assert a == wl.schedule(workload, 7, passes=4)
    assert a != wl.schedule(workload, 8, passes=4)
    run = [inst for batch in wl.schedule(workload, 7) for inst in batch]
    assert len({inst["id"] for inst in run}) == len(run)  # no instance repeats in a run
    texts = {json.dumps({k: v for k, v in inst.items() if k != "id"}, sort_keys=True) for inst in run}
    assert len(texts) == len(run)


def test_series_literals_carry_their_precision():
    for workload in ("solve_biv", "solve_uni"):
        for inst in wl.schedule(workload, 1, passes=1)[0]:
            lines = inst.get("approx") or [line for member in inst["family"] for line in member]
            assert all(re.search(r"\+ O\(m\^\d+\)$", line) for line in lines)


def _certified(madic):
    text = wl.instance_text("solve_biv", 0, 0)
    inst = wl.parse_instance(text, madic)
    cert = wl.run_op(inst, madic)
    assert cert.certified
    return inst, cert


def test_audit_accepts_certificate_and_flags_flipped_coefficient(madic):
    inst, cert = _certified(madic)
    c = inst.text["target_order"]
    assert audit.audit_certificate(inst.fs, inst.zbar, cert.refined, inst.assignment, c) == []

    z = cert.refined[0]
    low = min(z.terms, key=sum)
    flipped = dict(z.terms)
    flipped[low] = z.field.add(flipped[low], z.field.one())
    bad = madic.series.SeriesVector(
        [madic.series.TruncatedSeries(z.field, z.vars, z.precision, flipped)]
    )
    problems = audit.audit_certificate(inst.fs, inst.zbar, bad, inst.assignment, c)
    assert any("residual" in p for p in problems)
    assert any("moved by order" in p for p in problems)


def test_rescaled_basis_matches_direct_sympy_basis(madic):
    text = wl.instance_text("jacobian_ideal", 5, 3)  # katsura4_qq
    inst = wl.parse_instance(text, madic)
    names = text["vars"].split()
    oracle = audit.SympyOracle()
    direct = oracle.canonical(oracle.groebner(inst.fs, names, None), None)
    base = [madic.parse.parse_polynomial(e, names) for e in wl.BASE_SYSTEMS[text["base"]]]
    base_basis = oracle.canonical(oracle.groebner(base, names, None), None)
    scale = [text["scale"][v] for v in names]
    assert audit.rescaled_basis(base_basis, scale, None) == direct


def test_oracle_flags_a_wrong_colon_in_elkik_ideal(madic, monkeypatch):
    inst = wl.parse_instance(wl.instance_text("jacobian_ideal", 0, 0), madic)  # shear_qq
    run = _run(madic)
    run.check(inst, wl.run_op(inst, madic), None)  # defers the op to the oracle
    run.results.append({"failure": None})
    run.oracle()
    assert run.results[0]["failure"] is None

    # (J : I) replaced by J: H shrinks into I, and H + I = I
    monkeypatch.setattr(madic.groebner, "colon", lambda J, I: J)
    run = _run(madic)
    run.check(inst, wl.run_op(inst, madic), None)  # defers the op to the oracle
    run.results.append({"failure": None})
    run.oracle()
    assert "reduced basis of H + I differs" in run.results[0]["failure"]


def _digests(madic, trace):
    run = _run(madic, trace)
    if trace:
        run.tracer.install()
    restore = run.capture_probe_certificates()
    try:
        picks = [("solve_biv", 0), ("solve_biv", 8), ("solve_uni", 4), ("solve_uni", 2),
                 ("jacobian_ideal", 3), ("jacobian_ideal", 6)]
        out = []
        for op_id, (workload, shape) in enumerate(picks):
            inst = wl.parse_instance(wl.instance_text(workload, shape, 1), madic)
            run.captured.clear()
            _, result, err = run.timed(inst, op_id)
            out.append(run.check(inst, result, err)[2])
    finally:
        restore()
        if trace:
            run.tracer.uninstall()
    return out, run


def test_traced_and_untraced_outputs_match(madic):
    plain, _ = _digests(madic, 0)
    traced, run = _digests(madic, 1)
    assert plain == traced
    assert run.tracer.calls["solver.approximate_solve"] > 0
    assert run.tracer.calls["series.mul"] > 0
    # uninstall put every original back
    assert not hasattr(madic.solver.divide_series, "__wrapped__")
    assert not hasattr(madic.series.TruncatedSeries.__mul__, "__wrapped__")


def test_tracer_patches_importing_namespaces(madic):
    tr = tracing.Tracer()
    tr.install()
    try:
        assert madic.solver.divide_series is madic.weierstrass.divide_series
        assert hasattr(madic.solver.prepare, "__wrapped__")
        assert madic.series.TruncatedSeries.__rmul__ is madic.series.TruncatedSeries.__mul__
    finally:
        tr.uninstall()
    assert not hasattr(madic.solver.prepare, "__wrapped__")


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    tr.begin_op(0, "qq")
    outer = tr._open(0)
    inner = tr._open(1)
    tr._close(inner, tr.starts[inner[0]] + 2.0)
    tr._close(outer, tr.starts[outer[0]] + 3.0)
    tr.end_op()
    assert tr.self_s[tracing.SPAN_NAMES[1]] == pytest.approx(2.0)
    assert tr.self_s[tracing.SPAN_NAMES[0]] == pytest.approx(1.0, abs=1e-3)
    assert tr.parents[1] == 0


def test_budget_turns_a_hang_into_a_failed_timeout(madic, monkeypatch):
    def spin(inst, madic):
        while True:
            pass

    run = _run(madic)
    monkeypatch.setattr(bench, "BUDGET_S", 0.5)
    monkeypatch.setattr(wl, "run_op", spin)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        inst = wl.parse_instance(wl.instance_text("solve_biv", 0, 0), madic)
        dt, out, err = run.timed(inst, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    outcome, failure, _, _ = run.check(inst, out, err)
    assert outcome == "timeout" and failure.startswith("timeout in ")
    assert 0.5 <= dt < 5


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = list(range(100))
    value, pct = bench.tail(xs)
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(90.0)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_biv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_qq_bits():
    assert audit.qq_bits([Fraction(255, 2), 7]) == 8
