"""madic benchmark: one closed-loop workload per run, in-process.

    python3 perfbench/run.py --workload solve_biv --seed 1 --seconds 25 --trace 0

Run from the repository root; madic is imported from ./src.  One client
issues one op at a time and the next only after the previous one completes.
Every output is checked outside the timed region.  Human-readable lines go
first; the last line of stdout is one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).  The exit code is
1 when an output check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import audit  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

# Per-op time budget, enforced by SIGALRM; an op over it is a failed
# timeout.  A constant of the benchmark, so it is the same on every commit.
BUDGET_S = 10.0
SETUP_REPS = 5
REF_WINDOW = 5  # ops on each side whose reference timings normalise an op
# setup_s must be in seconds: it is the set-up time in reference-kernel
# units times the kernel's time on an unloaded 2-CPU virtual machine, so
# host speed phases do not move it; raw set-up seconds are printed too.
REF_NOMINAL_S = 0.012
OUT_DIR = ".perfbench"
REFERENCE_DIGESTS = HERE / "reference_digests.json"


class OpTimeout(BaseException):
    """Raised by the budget alarm.  A BaseException, so the library's own
    `except MadicError` / `except Exception` handlers cannot swallow it."""

    def __init__(self, stage, inner):
        super().__init__(stage)
        self.stage = stage
        self.inner = inner


# Operands of the reference kernel: madic's kind of work (sparse truncated
# products over QQ and GF(p) in dicts of exponent tuples), in the
# benchmark's own code, so no change to madic moves it.
_REF_QQ = {(i, j): Fraction(i + 2 * j + 1, j + 2) for i in range(10) for j in range(10 - i)}
_REF_GF = {(i, j): (7 * i + 13 * j + 1) % 32003 for i in range(12) for j in range(12 - i)}


def reference_kernel_s():
    """Time one run of the reference kernel.

    Ops are normalised by it: on a shared host, CPU speed moves by up to 2x
    in phases lasting tens of seconds, and this kernel slows with madic's
    ops (within about 5%) where a plain integer loop does not."""
    t = time.perf_counter()
    audit.trunc_mul(_REF_QQ, _REF_QQ, 13, lambda a, b: a + b, lambda a, b: a * b)
    audit.trunc_mul(_REF_GF, _REF_GF, 15, lambda a, b: (a + b) % 32003, lambda a, b: a * b % 32003)
    return time.perf_counter() - t


def git_sha(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n


def cannot_run(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_madic(root):
    src = root / "src"
    if not (src / "madic" / "__init__.py").is_file():
        cannot_run(f"no madic sources under {src}")
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import madic
    import madic.groebner
    import madic.parse
    import madic.problemfile
    import madic.series
    import madic.solver
    import madic.weierstrass

    elapsed = time.perf_counter() - t
    if Path(madic.__file__).resolve().parent != (src / "madic").resolve():
        cannot_run(f"imported madic from {madic.__file__}, not {src}")
    return madic, elapsed


class Run:
    def __init__(self, args, madic):
        self.args = args
        self.madic = madic
        self.tracer = tracing.Tracer() if args.trace else None
        self.code_names = tracing.code_names()
        self.captured = []
        self.results = []  # one dict per timed op
        self.deferred = []  # jacobian_ideal outputs for the sympy oracle

    # -- budget -----------------------------------------------------------

    def _alarm(self, signum, frame):
        inner, stage = tracing.stage_of_frame(frame, self.code_names)
        if self.tracer is not None and self.tracer.open_span_name():
            inner = self.tracer.open_span_name()
        raise OpTimeout(stage or inner or "benchmark", inner)

    def timed(self, inst, op_id):
        """Run one op under the budget; returns (seconds, output, error)."""
        if self.tracer is not None and op_id is not None:
            self.tracer.begin_op(op_id, inst.field_tag)
        out = err = None
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        t = time.perf_counter()
        try:
            out = wl.run_op(inst, self.madic)
        except (OpTimeout, Exception) as exc:  # `check` sorts refusals from failures
            err = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t
            if self.tracer is not None:
                self.tracer.end_op()
        return dt, out, err

    # -- checks (outside the timed region) --------------------------------

    def check(self, inst, out, err):
        """Outcome, failure reason or None, output digest and rational
        coefficient size of one op."""
        text = inst.text
        if isinstance(err, OpTimeout):
            return "timeout", f"timeout in {err.stage} (innermost {err.inner})", None, 0
        if err is not None:
            name = type(err).__name__
            dig = audit.digest({"refused": name, "message": str(err)})
            if name not in wl.REFUSAL_ERRORS:
                trace = "".join(traceback.format_exception(err)).rstrip()
                return "error", f"untyped exception {name}: {err}\n{trace}", dig, 0
            if text.get("expect") == "certify":
                return "refused", f"lost certificate: {name}: {err}", dig, 0
            return "refused", None, dig, 0
        dig = audit.digest(wl.output_json(inst, out))
        kind = text["kind"]
        if kind == "biv":
            if not out.certified:
                lost = text.get("expect") == "certify"
                return "refused", (f"lost certificate: {out.status}" if lost else None), dig, 0
            problems = audit.audit_certificate(
                inst.fs, inst.zbar, out.refined, inst.assignment, text["target_order"]
            )
            bits = audit.qq_bits(c for s in out.refined for c in s.terms.values())
            return "certified", "; ".join(problems) or None, dig, bits
        if kind == "uni":
            problems = []
            if out.defects:
                problems.append(f"{len(out.defects)} defect rows")
            failed_rows = [r.label for r in out.rows if not r.succeeded]
            if failed_rows:
                problems.append(f"rows without certificate: {failed_rows}")
            bits = 0
            for fs, zbar, assignment, c, cert in self.captured:
                if cert.certified:
                    problems += audit.audit_certificate(fs, zbar, cert.refined, assignment, c)
                    bits = max(bits, audit.qq_bits(v for s in cert.refined for v in s.terms.values()))
            outcome = "certified" if not failed_rows else "refused"
            return outcome, "; ".join(problems) or None, dig, bits
        self.deferred.append((len(self.results), inst, out))
        bits = audit.qq_bits(c for p in out["basis"] for c in p.terms.values())
        return "ok", None, dig, bits

    def oracle(self):
        """Compare every jacobian_ideal output with sympy."""
        if not self.deferred:
            return
        oracle = audit.SympyOracle()
        base_bases = {}
        for index, inst, out in self.deferred:
            names = inst.text["vars"].split()
            p = getattr(inst.field, "p", None)
            problems = []
            if inst.text["kind"] == "groebner":
                # one sympy basis per base system, rescaled per instance
                key = (inst.text["base"], inst.text["field"])
                if key not in base_bases:
                    parse = self.madic.parse.parse_polynomial
                    base = [parse(e, names, inst.field) for e in wl.BASE_SYSTEMS[key[0]]]
                    base_bases[key] = oracle.canonical(oracle.groebner(base, names, p), p)
                scale = [inst.text["scale"][v] for v in names]
                expected = audit.rescaled_basis(base_bases[key], scale, p)
                if expected != audit.canonical_basis(out["basis"], p):
                    problems.append("reduced basis differs from the rescaled sympy basis")
            else:
                # H + I built by sympy from the equations alone, so a wrong
                # minor, colon or intersection in elkik_ideal shows here
                G = oracle.elkik_basis(inst.fs, names, p)
                C = oracle.groebner(inst.compare + inst.fs, names, p)
                if (oracle.canonical(C, p) == oracle.canonical(G, p)) != out["comparison_equal"]:
                    problems.append("comparison verdict differs from sympy")
                for q, got in zip(inst.member, out["member"]):
                    if oracle.contains(G, q, names, p) != got:
                        problems.append(f"membership of {q} differs from sympy")
                for q, got in zip(inst.radical, out["radical_member"]):
                    if oracle.radical_contains(G, q, names, p) != got:
                        problems.append(f"radical membership of {q} differs from sympy")
                if oracle.canonical(G, p) != audit.canonical_basis(out["basis"], p):
                    problems.insert(0, "reduced basis of H + I differs from sympy's")
            if problems:
                res = self.results[index]
                res["failure"] = "; ".join(problems)

    # -- the loop -----------------------------------------------------------

    def capture_probe_certificates(self):
        solver = self.madic.solver
        inner = solver.approximate_solve

        def capturing(fs, zbar, assignment, c, config=None):
            cert = inner(fs, zbar, assignment, c, config)
            self.captured.append((fs, zbar, assignment, c, cert))
            return cert

        solver.approximate_solve = capturing
        return lambda: setattr(solver, "approximate_solve", inner)

    def loop(self, passes):
        start = time.perf_counter()
        op_id = 0
        for batch in passes:
            if time.perf_counter() - start >= self.args.seconds:
                break
            for inst in batch:
                ref_s = reference_kernel_s()
                self.captured.clear()
                dt, out, err = self.timed(inst, op_id)
                outcome, failure, dig, bits = self.check(inst, out, err)
                self.results.append(
                    {"id": inst.text["id"], "shape": inst.text["id"].split("/")[1],
                     "field": inst.field_tag, "seconds": dt, "ref_s": ref_s,
                     "outcome": outcome, "failure": failure, "digest": dig,
                     "qq_bits": bits}
                )
                op_id += 1
        return time.perf_counter() - start


def reference_median_s(runs=3):
    return statistics.median(reference_kernel_s() for _ in range(runs))


def setup(madic, workload, seed, tracer):
    """Generate and parse every instance the run may use, several times.
    Returns the instances, the median seconds of one repetition and the
    median of each repetition's time over the reference kernel's, timed
    just before it."""
    times, scaled = [], []
    passes = None
    for rep in range(SETUP_REPS):
        ref = reference_median_s()
        if tracer is not None and rep == 0:
            tracer.begin_op(tracing.SETUP_OP, None)
        t = time.perf_counter()
        texts = wl.schedule(workload, seed)
        passes = [[wl.parse_instance(x, madic) for x in batch] for batch in texts]
        times.append(time.perf_counter() - t)
        scaled.append(times[-1] / ref)
        if tracer is not None and rep == 0:
            tracer.end_op()
    return passes, statistics.median(times), statistics.median(scaled)


def summarize(results):
    """End-to-end figures of a run.  Latencies are taken over completed ops;
    throughput counts the time of every op, timed-out ones included.  The
    `_ref` figures divide each op's time by the median reference-kernel time
    of the ops around it."""
    refs = [r["ref_s"] for r in results]
    for i, r in enumerate(results):
        r["ref_units"] = r["seconds"] / statistics.median(
            refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]
        )
    done = [r for r in results if r["outcome"] not in ("timeout", "error") and not r["failure"]]
    out = {
        "attempted": len(results),
        "failed": len(results) - len(done),
        "completed": len(done),
        "fail_frac": (len(results) - len(done)) / max(1, len(results)),
        "certified_frac": sum(r["outcome"] == "certified" for r in results) / max(1, len(results)),
        "ref_s": statistics.median(refs) if refs else 0.0,
    }
    for key, unit in (("seconds", "s"), ("ref_units", "ref")):
        lat = [r[key] for r in done]
        tail_value, out["tail_pct"] = tail(lat) if lat else (0.0, 0.0)
        out[f"op_p50_{unit}"] = statistics.median(lat) if lat else 0.0
        out[f"op_tail_{unit}"] = tail_value
        busy = sum(r[key] for r in results)
        out[f"ops_per_{unit}"] = len(done) / busy if busy else 0.0
    out["ops_per_kref"] = 1000.0 * out.pop("ops_per_ref")
    return out


def drift(results):
    try:
        with open(REFERENCE_DIGESTS, encoding="utf-8") as fh:
            ref = json.load(fh)["digests"]
    except OSError:
        return None, len(results)
    known = [r for r in results if r["id"] in ref and r["digest"] is not None]
    return sum(ref[r["id"]] != r["digest"] for r in known), len(results) - len(known)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.SHAPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    host_before = reference_median_s(5)
    madic, import_s = import_madic(root)
    import_ref = import_s / reference_median_s()
    run = Run(args, madic)
    if run.tracer is not None:
        run.tracer.install()
    passes, gen_parse_s, gen_parse_ref = setup(madic, args.workload, args.seed, run.tracer)
    setup_s = REF_NOMINAL_S * (import_ref + gen_parse_ref)
    restore = run.capture_probe_certificates() if args.workload == "solve_uni" else None
    signal.signal(signal.SIGALRM, run._alarm)

    loop_s = run.loop(passes)
    if restore:
        restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.oracle()
    stats = summarize(run.results)
    drifted, unrecorded = drift(run.results)

    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, "
        f"1 client, {stats['attempted']} ops in {len(run.results) // len(passes[0])} passes "
        f"over {loop_s:.1f} s, budget {BUDGET_S:g} s/op",
        f"host: python {platform.python_version()}, git {git_sha(root)}, "
        f"nproc {os.cpu_count()}, host_ref_s before {host_before:.4f}",
    ]
    metrics = {}
    layer = {}
    if args.trace:
        layer = trace_report(run, args, passes, stats, lines)
    host_after = reference_median_s(5)
    lines.append(f"host_ref_s after {host_after:.4f} (diagnostic only)")

    end_to_end = {
        "op_p50_ref": (stats["op_p50_ref"], "ref"),
        "op_tail_ref": (stats["op_tail_ref"], "ref"),
        "ops_per_kref": (stats["ops_per_kref"], "1/kref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = {
        "op_p50_s": (stats["op_p50_s"], "s"),
        "op_tail_s": (stats["op_tail_s"], "s"),
        "ops_per_s": (stats["ops_per_s"], "1/s"),
    }
    for name, (value, unit) in {**end_to_end, **wall}.items():
        lines.append(f"{name}: {value:.6g} {unit}")
    lines.append(
        f"op_tail is p{stats['tail_pct']:.1f} of {stats['completed']} completed ops; "
        f"1 ref = reference kernel, median {stats['ref_s'] * 1000:.3f} ms this run"
    )
    lines.append(f"fail_frac: {stats['fail_frac']:.4g} ({stats['failed']}/{stats['attempted']})")
    if args.workload != "jacobian_ideal":
        lines.append(f"certified_frac: {stats['certified_frac']:.4g}")
    lines.append(
        f"setup: import {import_s:.4f} s + generate/parse median {gen_parse_s:.4f} s "
        f"= {import_s + gen_parse_s:.4f} s wall; setup_s is {import_ref + gen_parse_ref:.4f} "
        f"ref x {REF_NOMINAL_S} s"
    )
    lines.append(
        f"drift: {drifted} of {stats['attempted'] - unrecorded} op digests differ "
        f"from the recorded reference ({unrecorded} not recorded)"
    )
    by_shape = Counter((r["shape"], r["outcome"]) for r in run.results)
    lines.append("outcomes: " + ", ".join(f"{s}:{o}={n}" for (s, o), n in sorted(by_shape.items())))
    for r in run.results:
        if r["failure"] or r["outcome"] in ("timeout", "error"):
            lines.append(f"FAILED {r['id']}: {r['failure']}")

    if args.trace:
        metrics = layer
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    correct = not any(
        r["failure"] and r["outcome"] != "timeout" for r in run.results
    )
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def layer_values(tr, results):
    """Per-layer figures from the spans and counters of the timed loop."""
    values = {}
    for name in tracing.SPAN_NAMES:
        # the parse layer runs in set-up; every other layer in the timed ops
        key = f"setup:{name}" if name.startswith("parse.") else name
        values[f"{name}.calls"] = (tr.calls[key], "count")
        values[f"{name}.self_s"] = (tr.self_s[key], "s")
        if name.split(".")[0] in tracing.FIELD_SPLIT_LAYERS:
            for tag in ("qq", "gfp"):
                values[f"{name}.self_s.{tag}"] = (tr.self_s[f"{name}.{tag}"], "s")
    prepare_calls = tr.calls["weierstrass.prepare"]
    values["solver.newton_steps"] = (tr.counters["solver.newton_steps"], "count")
    values["solver.timeouts"] = (sum(r["outcome"] == "timeout" for r in results), "count")
    # 1.0 when prepare never runs: no preparation was wasted
    values["weierstrass.prepare.distinct_ratio"] = (
        len(tr.prepare_inputs) / prepare_calls if prepare_calls else 1.0, "ratio")
    values["series.mul.term_pairs"] = (tr.counters["series.mul.term_pairs"], "count")
    values["poly.mul.term_pairs"] = (tr.counters["poly.mul.term_pairs"], "count")
    values["fields.qq_max_bits"] = (max((r["qq_bits"] for r in results), default=0), "bit")
    return values


def trace_report(run, args, passes, stats, lines):
    """Per-layer metrics of the timed loop, then the hard instance and the
    tracing overhead; every span is written to .perfbench/."""
    tr = run.tracer
    values = layer_values(tr, run.results)
    if args.workload == "solve_biv":
        hard = wl.parse_instance(wl.HARD_INSTANCE, run.madic)
        dt, out, err = run.timed(hard, -2)
        outcome, failure, _, _ = run.check(hard, out, err)
        if outcome == "timeout":
            count, unit = values["solver.timeouts"]
            values["solver.timeouts"] = (count + 1, unit)
        lines.append(f"hard instance {hard.text['id']}: {outcome} after {dt:.2f} s"
                     + (f" - {failure}" if failure else "")
                     + " (counted in solver.timeouts only)")
    # overhead: pass 0 again, each op traced and then untraced, back to back
    traced, untraced = [], []
    for inst in passes[0]:
        traced.append(run.timed(inst, -3)[0])
        tr.uninstall()
        untraced.append(run.timed(inst, None)[0])
        tr.install()
    tr.uninstall()
    overhead = statistics.median(t / u for t, u in zip(traced, untraced))
    values["tracing.overhead_ratio"] = (overhead, "ratio")
    lines.append(
        f"tracing overhead: traced op_p50_ref {stats['op_p50_ref']:.6g} ref, op_p50_s "
        f"{stats['op_p50_s']:.6g} s; pass 0 run back to back: traced p50 "
        f"{statistics.median(traced):.6g} s vs untraced {statistics.median(untraced):.6g} s, "
        f"median per-op ratio {overhead:.4f}"
    )
    for name, (v, unit) in values.items():
        lines.append(f"layer {name}: {v:.6g} {unit}")

    out_dir = Path(OUT_DIR)
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tr.dump(out_dir / f"spans-{stem}.txt.gz")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    with open(out_dir / f"layers-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=1)
    lines.append(f"spans: {len(tr.starts)} written to {out_dir}/spans-{stem}.txt.gz "
                 "(op -1 set-up, -2 hard instance, -3 overhead pass)")
    wanted = per_layer_names()
    return {k: m for k, m in metrics.items() if wanted is None or k in wanted}


def per_layer_names():
    """The per-layer metrics BENCHMARK.json lists; None without the file."""
    try:
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            return {m["name"] for m in json.load(fh)["per_layer"]}
    except OSError:
        return None


if __name__ == "__main__":
    sys.exit(main())
