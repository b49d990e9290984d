"""Command-line frontend: dispatch problem files to the library.

Exit codes: 0 success, 2 hypothesis/precondition failure, 3 parse error,
4 capacity limit.  Machine output (--json) is deterministic for identical
inputs; timings appear only in the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bounds import BoundReport
from .errors import (
    CapacityError,
    HypothesisError,
    MadicError,
    ParseError,
    PrecisionError,
    UnsupportedInstanceError,
)
from .groebner import DEGREVLEX, LEX, Ideal, colon, elkik_ideal, ideal_equal, radical_member
from .problemfile import load_problem
from .solver import (
    SolverConfig,
    approximate_solve,
    artin_probe,
    select_minor,
    tougeron_refine,
)
from .series import ideal_order
from .weierstrass import prepare, w_divide


def _emit(args, payload, human_lines, elapsed):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)
        print(f"elapsed: {elapsed * 1000:.1f} ms")


def _order(pf):
    name = pf.get("order", "degrevlex")
    if name == "degrevlex":
        return DEGREVLEX
    if name == "lex":
        return LEX
    raise ParseError(f"unknown monomial order {name!r}")


def _basis_str(ideal):
    return [str(g) for g in ideal.groebner().cached_basis]


def cmd_elkik(pf, args):
    fld = pf.field()
    eqs = pf.equations(fld)
    H = elkik_ideal(eqs, list(pf.all_vars()))
    I = Ideal(eqs)
    payload = {
        "command": "elkik",
        "generators": _basis_str(H),
        "status": "ok",
    }
    lines = ["Jacobian-ideal generators (reduced basis):"]
    lines += [f"  {g}" for g in payload["generators"]]
    compare = pf.polynomials("compare")
    if compare:
        eq = ideal_equal(H + I, Ideal(compare) + I)
        payload["comparison_equal"] = eq
        lines.append(f"equals comparison ideal modulo the equations: {eq}")
    verdicts = {}
    for text, p in zip(pf.get_list("member"), pf.polynomials("member")):
        verdicts[text] = (H + I).contains(p)
        lines.append(f"member {text}: {verdicts[text]}")
    payload["member"] = verdicts
    rad = {}
    for text, p in zip(pf.get_list("radical_member"), pf.polynomials("radical_member")):
        rad[text] = radical_member(p, H + I)
        lines.append(f"radical member {text}: {rad[text]}")
    payload["radical_member"] = rad
    return 0, payload, lines


def cmd_colon(pf, args):
    left = pf.polynomials("colon_left")
    right = pf.polynomials("colon_right")
    if not left or not right:
        raise ParseError("colon needs colon_left and colon_right lines")
    out = colon(Ideal(left), Ideal(right))
    gens = _basis_str(out)
    payload = {"command": "colon", "generators": gens, "status": "ok"}
    lines = ["colon ideal (left : right), reduced basis:"]
    lines += [f"  {g}" for g in gens]
    return 0, payload, lines


def cmd_groebner(pf, args):
    eqs = pf.equations()
    out = Ideal(eqs, order=_order(pf))
    gens = _basis_str(out)
    payload = {"command": "groebner", "generators": gens, "status": "ok"}
    lines = ["reduced Groebner basis:"] + [f"  {g}" for g in gens]
    return 0, payload, lines


def cmd_prepare(pf, args):
    s = pf.series_value(pf.require("series"), precision=args.precision)
    unit, dist = prepare(s)
    payload = {
        "command": "prepare",
        "unit": str(unit),
        "distinguished": {
            "r": dist.r,
            "coeffs": [str(c) for c in dist.coeffs],
            "display": dist.serialize(),
        },
        "status": "ok",
    }
    lines = [
        f"unit: {unit}",
        f"distinguished degree: {dist.r}",
    ] + [f"  a_{i + 1}: {c}" for i, c in enumerate(dist.coeffs)]
    return 0, payload, lines


def cmd_divide(pf, args):
    g = pf.series_value(pf.require("dividend"), precision=args.precision)
    u = pf.series_value(pf.require("divisor"), precision=args.precision)
    _, dist = prepare(u)
    q, rems = w_divide(g, dist)
    payload = {
        "command": "divide",
        "distinguished_degree": dist.r,
        "quotient": str(q),
        "remainders": [str(r) for r in rems],
        "status": "ok",
    }
    lines = [f"quotient: {q}"] + [
        f"remainder[{j}]: {r}" for j, r in enumerate(rems)
    ]
    return 0, payload, lines


def _solver_config(pf, args):
    cfg = SolverConfig()
    if args.strategy:
        cfg.strategy = args.strategy
    elif pf.get("strategy"):
        cfg.strategy = pf.get("strategy")
    jl = pf.get_int("jet_length")
    if jl:
        cfg.jet_length = jl
    if pf.get("K"):
        cfg.K = pf.get_int("K")
    return cfg


def cmd_refine(pf, args):
    eqs = pf.equations()
    zbar = pf.approx_vector(precision=args.precision)
    assignment = pf.assignment()
    c = args.target_order or pf.get_int("target_order")
    if c is None:
        raise ParseError("refine needs a target_order")
    H = elkik_ideal(eqs, list(pf.unknowns()))
    hord = ideal_order(H.generators, zbar, assignment)
    if not hord.finite:
        raise HypothesisError("Jacobian ideal vanishes to precision")
    sel = select_minor(eqs, zbar, assignment, hord.value + 1)
    cert = tougeron_refine(
        [eqs[i] for i in sel.subset], sel.columns, zbar, assignment, c
    )
    cert.selection = sel
    return _cert_report("refine", cert)


def cmd_solve(pf, args):
    eqs = pf.equations()
    zbar = pf.approx_vector(precision=args.precision)
    c = args.target_order or pf.get_int("target_order")
    if c is None:
        raise ParseError("solve needs a target_order")
    cfg = _solver_config(pf, args)
    cert = approximate_solve(eqs, zbar, pf.assignment(), c, cfg)
    return _cert_report("solve", cert)


def _cert_report(command, cert):
    payload = {"command": command, "certificate": cert.to_json(),
               "status": cert.status}
    lines = [
        f"status: {cert.status}",
        f"iterations: {cert.iterations}",
        f"residual order: {cert.residual_order}",
        "refined solution:",
    ]
    lines += [f"  {s}" for s in cert.refined]
    lines += [
        "coordinate distance orders: "
        + ", ".join(str(o) for o in cert.coordinate_orders)
    ]
    if cert.gamma_bound is not None:
        lines.append(f"gamma threshold: {cert.gamma_bound} (met: {cert.meets_gamma})")
    code = 0 if cert.certified else 2
    if code:
        lines.append("no certificate: insufficient residual order or stalled run")
    return code, payload, lines


def cmd_bounds(pf, args):
    m = pf.get_int("m")
    d = pf.get_int("d")
    n = pf.get_int("n", 1)
    s = pf.get_int("s", 1)
    c = args.target_order or pf.get_int("c", 1)
    if m is None or d is None:
        raise ParseError("bounds needs m and d")
    K = pf.get_int("K", 2)
    rep = BoundReport.compute(m, d, n, s, c, K=K)
    payload = {"command": "bounds", "report": rep.to_json(), "status": "ok"}
    body = rep.to_json()
    lines = [f"{k}: {v}" for k, v in body.items() if k != "inputs"]
    return 0, payload, lines


def cmd_probe(pf, args):
    eqs = pf.equations()
    family, labels = pf.family_vectors(precision=args.precision)
    targets = pf.targets()
    if not targets:
        raise ParseError("probe needs targets or target_order")
    cfg = _solver_config(pf, args)
    report = artin_probe(eqs, family, pf.assignment(), targets, cfg, labels)
    payload = {"command": "probe", "report": report.to_json(), "status": "ok"}
    lines = ["label  c  resid  H-ord  gamma-met  ok  achieved  defect"]
    for row in report.rows:
        lines.append(
            f"{row.label}  {row.target_order}  {row.residual_order}  "
            f"{row.elkik_order}  {row.gamma_met}  {row.succeeded}  "
            f"{row.achieved_order}  {row.defect}"
        )
    lines.append(f"defect rows: {len(report.defects)}")
    return (0 if not report.defects else 2), payload, lines


_COMMANDS = {
    "elkik": cmd_elkik,
    "colon": cmd_colon,
    "groebner": cmd_groebner,
    "prepare": cmd_prepare,
    "divide": cmd_divide,
    "refine": cmd_refine,
    "solve": cmd_solve,
    "bounds": cmd_bounds,
    "probe": cmd_probe,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="madic",
        description="exact m-adic approximation toolkit over power-series rings",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("file", help="problem file (key: value lines)")
        p.add_argument("--precision", type=int, default=None)
        p.add_argument("--target-order", type=int, default=None, dest="target_order")
        p.add_argument("--strategy", choices=["newton", "jet-search"], default=None)
        p.add_argument("--json", action="store_true")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        pf = load_problem(args.file)
        code, payload, lines = _COMMANDS[args.command](pf, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except (HypothesisError, PrecisionError, UnsupportedInstanceError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        if isinstance(exc, HypothesisError) and "residual" in str(exc):
            print("insufficient residual order", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read problem file: {exc}", file=sys.stderr)
        return 3
    except MadicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, payload, lines, time.monotonic() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
