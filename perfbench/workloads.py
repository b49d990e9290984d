"""Seeded instances for the three workloads, and the op each one times.

An instance is fixed by (workload, shape, variant).  A shape fixes the
equations' form, coefficient field and precision, so instances of one shape
cost about the same; the variant draws the coefficients (and the comparison
and membership polynomials of jacobian_ideal).  The run seed only orders the
variants: each pass takes, for every shape, the next WEIGHTS[shape] variants
of a seed-dependent permutation, so no two ops of a run share an instance
and every run has the same mix of shapes.

Instances are emitted as text (polynomials, and series with an explicit
`+ O(m^N)`), and parsed with `madic.parse` during set-up.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from fractions import Fraction

VARIANTS = 72
MAX_PASSES = 24
GF = "GF(32003)"
TARGET_ORDER = 3

# A refusal is a typed error or a non-certified status; any other exception
# is a failure of the op.
REFUSAL_ERRORS = ("HypothesisError", "PrecisionError", "UnsupportedInstanceError", "CapacityError")

# (shape, field, equation kind, precision N, perturbation monomials).  The
# monomials are fixed per shape and the variant draws their coefficients:
# the cost of an op depends mostly on the monomials, so every run gets the
# same mix of costs whatever its seed.
BIV_SHAPES = [
    ("r2_qq_n20_x4", "Q", "r2", 20, ("x^4",)),
    ("r2_qq_n20_x3y", "Q", "r2", 20, ("x^3*y",)),
    ("r2_qq_n24_x2y2", "Q", "r2", 24, ("x^2*y^2",)),
    ("r2_gf_n24_two", GF, "r2", 24, ("x^4", "x^2*y^3")),
    ("r2_gf_n32_x2y3", GF, "r2", 32, ("x^2*y^3",)),
    ("r4_qq_n16_x2y3", "Q", "r4", 16, ("x^2*y^3",)),
    ("r4_gf_n20_two", GF, "r4", 20, ("x^5", "x^3*y^3")),
    ("r4_gf_n24_x3y2", GF, "r4", 24, ("x^3*y^2",)),
    ("low_order_qq_n20", "Q", "low_order", 20, ("x^2",)),
    ("sum_root_gf_n24", GF, "sum_root", 24, ("x^2*y^2", "x^4")),
]

# (shape, field, family kind, precision N, exponents k of the members'
# perturbations c*x^k).  Most families are small, so a 25 s run holds some
# eighty ops and its tail percentile (about p88) is well sampled.
UNI_SHAPES = [
    ("lin_qq_n128", "Q", "lin", 128, (5, 6, 7, 8)),
    ("lin_gf_n128", GF, "lin", 128, (5, 6, 7, 8)),
    ("sq_gf_n96", GF, "sq", 96, (7,)),
    ("sq_qq_n64", "Q", "sq", 64, (7,)),
    ("sq_gf_n128", GF, "sq", 128, (6,)),
    ("tri_gf_n128", GF, "tri", 128, (8,)),
    ("tri_qq_n80", "Q", "tri", 80, (8,)),
    ("sq_qq_n80", "Q", "sq", 80, (6,)),
    ("sq_qq_n80_pair", "Q", "sq", 80, (6, 8)),
]

# (shape, field, system kind)
JAC_SHAPES = [
    ("shear_qq", "Q", "shear"),
    ("shear_gf", GF, "shear"),
    ("det_qq", "Q", "det"),
    ("binom_gf", GF, "binom"),
    ("cyclic5_qq", "Q", "cyclic5"),
    ("katsura4_qq", "Q", "katsura4"),
    ("katsura4_gf", GF, "katsura4"),
]

SHAPES = {"solve_biv": BIV_SHAPES, "solve_uni": UNI_SHAPES, "jacobian_ideal": JAC_SHAPES}

# Ops per pass of a shape, default 1.  The weights place op_p50 well inside
# the latency band of one shape (or of shapes of nearly equal cost), and the
# tail percentile of a 25 s run (p85 to p92) inside the band of the costliest
# shapes, not on the edge between two shapes of different cost, where host
# noise would make the figure jump from one band to the other.
WEIGHTS = {
    "r2_qq_n20_x3y": 3,
    "r4_gf_n20_two": 2,
    "sq_gf_n128": 2,
    "sq_qq_n80_pair": 3,
    "katsura4_qq": 3,
    "cyclic5_qq": 2,
}

CYCLIC5 = [
    "a+b+c+d+e",
    "a*b+b*c+c*d+d*e+e*a",
    "a*b*c+b*c*d+c*d*e+d*e*a+e*a*b",
    "a*b*c*d+b*c*d*e+c*d*e*a+d*e*a*b+e*a*b*c",
    "a*b*c*d*e-1",
]
KATSURA4 = [
    "a+2*b+2*c+2*d+2*e-1",
    "a^2+2*b^2+2*c^2+2*d^2+2*e^2-a",
    "2*a*b+2*b*c+2*c*d+2*d*e-b",
    "b^2+2*a*c+2*b*d+2*c*e-c",
    "2*b*c+2*a*d+2*b*e-d",
]

BASE_SYSTEMS = {"cyclic5": CYCLIC5, "katsura4": KATSURA4}

# The ROADMAP's two-unknown instance; it runs once per traced solve_biv run,
# under the op budget, outside the timed loop.
HARD_INSTANCE = {
    "id": "solve_biv/hard/0",
    "kind": "biv",
    "field": "Q",
    "series_vars": "x y",
    "unknowns": "z w",
    "equations": ["z^2 - w^3", "w - x^2 - y^2"],
    "approx": ["x^3 + y^3 + x^7 + O(m^20)", "x^2 + y^2 + O(m^20)"],
    "target_order": 2,
}


_QQ_POOL = sorted({s * Fraction(a, b) for a in range(1, 13) for b in range(1, 6) for s in (1, -1)})
_GF_POOL = [s * v for v in range(1, 41) for s in (1, -1)]
# small factors for rescaling the Groebner systems, whose coefficients grow
_SCALES = ["1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2", "2/3", "-3/2"]


def _coeff(rng, field, integral=False):
    if field != "Q":
        return str(rng.choice(_GF_POOL))
    pool = [v for v in _QQ_POOL if v.denominator == 1] if integral else _QQ_POOL
    return str(rng.choice(pool))


@functools.lru_cache(maxsize=None)
def _distinct_coeffs(key, field, count):
    """VARIANTS distinct coefficient tuples for one shape; variant v takes
    the v-th, so the variants of a shape are distinct instances."""
    rng = random.Random(key)
    out = []
    while len(out) < VARIANTS:
        t = tuple(_coeff(rng, field) for _ in range(count))
        if t not in out:
            out.append(t)
    return out


def _sum(coeffs, monomials):
    return " + ".join(f"({c})*{m}" for c, m in zip(coeffs, monomials))


def _biv(shape, field, kind, N, monomials, variant):
    coeffs = _distinct_coeffs(f"solve_biv/{shape}", field, len(monomials))[variant]
    eq, root = {
        "r2": ("z^2 - x^2", "x"),
        "r4": ("z^3 - x^3", "x"),
        # residual/minor^2 has order below the target: a HypothesisError
        "low_order": ("z^2 - x^2", "x"),
        # a root through y: the reduced Newton step finds no usable minor
        "sum_root": ("z^2 - (x+y)^2", "x + y"),
    }[kind]
    return {
        "kind": "biv",
        "field": field,
        "series_vars": "x y",
        "unknowns": "z",
        "equations": [eq],
        "approx": [f"{root} + {_sum(coeffs, monomials)} + O(m^{N})"],
        "target_order": TARGET_ORDER,
        "expect": "certify" if kind in ("r2", "r4") else "refuse",
    }


def _uni(shape, field, kind, N, ks, rng):
    def unit_poly():
        c2, c3 = (_coeff(rng, field, integral=True) for _ in range(2))
        return f"x + ({c2})*x^2 + ({c3})*x^3"

    def pert(k):
        return f"({_coeff(rng, field)})*x^{k}"

    if kind in ("sq", "lin"):
        g = unit_poly()
        eqs, unknowns = [f"z^2 - ({g})^2" if kind == "sq" else f"z - ({g})"], "z"
        family = [[f"{g} + {pert(k)} + O(m^{N})"] for k in ks]
    else:
        # z1 = a*b, z2 = a, z3 = b^2 solves z1^2 = z2^2*z3
        a, b = unit_poly(), unit_poly()
        eqs, unknowns = ["z1^2 - z2^2*z3"], "z1 z2 z3"
        family = [
            [f"({a})*({b}) + {pert(k)} + O(m^{N})", f"{a} + O(m^{N})", f"({b})^2 + O(m^{N})"]
            for k in ks
        ]
    return {
        "kind": "uni",
        "field": field,
        "series_vars": "x",
        "unknowns": unknowns,
        "equations": eqs,
        "family": family,
        "targets": [TARGET_ORDER],
    }


def _scaled(eqs, scale):
    """Diagonal rescaling v -> s_v*v: same supports, new coefficients."""
    pattern = re.compile(r"\b([" + "".join(scale) + r"])\b")
    return [pattern.sub(lambda m: f"(({scale[m.group(1)]})*{m.group(1)})", e) for e in eqs]


def _random_monomial(rng, names, deg):
    return "*".join(rng.choice(names) for _ in range(deg))


def _jac(shape, field, kind, rng):
    four = ["x", "y", "z", "t"]
    if kind in ("cyclic5", "katsura4"):
        pool = _SCALES if field == "Q" else [s for s in _SCALES if "/" not in s]
        scale = {v: rng.choice(pool) for v in "abcde"}
        return {
            "kind": "groebner",
            "field": field,
            "vars": "a b c d e",
            "base": kind,
            "scale": scale,
            "equations": _scaled(BASE_SYSTEMS[kind], scale),
        }
    if kind == "shear":
        lam = _coeff(rng, field, integral=True)
        eqs = [f"x*(z+({lam})*t)", f"x*(z-({lam})*t)", "y*z", "y*t"]
        compare = [
            "x^3", "y^3", "(x*y)^2",
            f"z^2*(z+({lam})*t)^2", f"t^2*(z+({lam})*t)^2",
            f"z^2*(z-({lam})*t)^2", f"t^2*(z-({lam})*t)^2",
        ]
    elif kind == "det":
        # 2x2 minors of [[x, y, z], [y, z, t + lam*x]]
        lam = _coeff(rng, field, integral=True)
        last = f"(t + ({lam})*x)"
        eqs = [f"x*z - y^2", f"x*{last} - y*z", f"y*{last} - z^2"]
        compare = [_random_monomial(rng, four, 3) for _ in range(3)]
    else:
        a, b = _coeff(rng, field, integral=True), _coeff(rng, field, integral=True)
        eqs = [f"x^2 - ({a})*y*z", f"y^2 - ({b})*x*t"]
        compare = [_random_monomial(rng, four, 3) for _ in range(3)]
    return {
        "kind": "elkik",
        "field": field,
        "vars": "x y z t",
        "equations": eqs,
        "compare": compare,
        "member": [_random_monomial(rng, four, rng.randint(2, 3)) for _ in range(2)],
        "radical_member": [rng.choice(four)],
    }


def instance_text(workload, shape_index, variant):
    shape = SHAPES[workload][shape_index]
    rng = random.Random(f"{workload}/{shape[0]}/{variant}")
    if workload == "solve_biv":
        out = _biv(*shape, variant)
    elif workload == "solve_uni":
        out = _uni(*shape, rng)
    else:
        out = _jac(*shape, rng)
    out["id"] = f"{workload}/{shape[0]}/{variant}"
    return out


def schedule(workload, seed, passes=MAX_PASSES):
    """Instance texts for `passes` passes; each pass has WEIGHTS[shape]
    instances of every shape (default 1)."""
    out = [[] for _ in range(passes)]
    for i, (name, *_) in enumerate(SHAPES[workload]):
        w = WEIGHTS.get(name, 1)
        perm = random.Random(f"{seed}/{workload}/{name}").sample(range(VARIANTS), VARIANTS)
        for p in range(passes):
            out[p] += [instance_text(workload, i, perm[(p * w + j) % VARIANTS]) for j in range(w)]
    return out


# -- parsing ----------------------------------------------------------------


@dataclass
class Instance:
    text: dict
    field: object
    field_tag: str  # "qq" or "gfp"
    fs: list
    assignment: dict
    zbar: object = None  # solve_biv
    family: list = None  # solve_uni
    compare: list = None  # jacobian_ideal
    member: list = None
    radical: list = None


def parse_instance(text, madic):
    parse = madic.parse
    fld = madic.problemfile.parse_field_spec(text["field"])
    tag = "qq" if text["field"] == "Q" else "gfp"
    if text["kind"] in ("biv", "uni"):
        svars = tuple(text["series_vars"].split())
        unknowns = tuple(text["unknowns"].split())
        vars = svars + unknowns
        fs = [parse.parse_polynomial(e, vars, fld) for e in text["equations"]]
        assignment = {u: i for i, u in enumerate(unknowns)}

        def vector(lines):
            entries = []
            for line in lines:
                poly, prec = parse.parse_series(line, svars, fld)
                entries.append(madic.series.TruncatedSeries.from_polynomial(poly, prec))
            return madic.series.SeriesVector(entries)

        inst = Instance(text, fld, tag, fs, assignment)
        if text["kind"] == "biv":
            inst.zbar = vector(text["approx"])
        else:
            inst.family = [vector(member) for member in text["family"]]
        return inst
    vars = tuple(text["vars"].split())
    polys = lambda key: [parse.parse_polynomial(e, vars, fld) for e in text.get(key, [])]
    inst = Instance(text, fld, tag, polys("equations"), {})
    inst.compare, inst.member, inst.radical = polys("compare"), polys("member"), polys("radical_member")
    return inst


# -- ops ----------------------------------------------------------------------


def run_op(inst, madic):
    """The timed work of one op.  Each op builds its own ideals, so no
    cached basis carries over from an earlier op."""
    text = inst.text
    if text["kind"] == "biv":
        return madic.solver.approximate_solve(
            inst.fs, inst.zbar, inst.assignment, text["target_order"]
        )
    if text["kind"] == "uni":
        return madic.solver.artin_probe(inst.fs, inst.family, inst.assignment, text["targets"])
    if text["kind"] == "groebner":
        return {"basis": madic.groebner.buchberger(inst.fs)}
    g = madic.groebner
    vars = text["vars"].split()
    H = g.elkik_ideal(inst.fs, vars)
    I = g.Ideal(inst.fs)
    HI = H + I
    return {
        "basis": HI.groebner().cached_basis,
        "comparison_equal": g.ideal_equal(HI, g.Ideal(inst.compare) + I),
        "member": [HI.contains(p) for p in inst.member],
        "radical_member": [g.radical_member(p, HI) for p in inst.radical],
    }


def output_json(inst, out):
    """Deterministic JSON of an op's output, as the CLI's --json gives it."""
    kind = inst.text["kind"]
    if kind == "biv":
        return {"certificate": out.to_json()}
    if kind == "uni":
        return {"report": out.to_json()}
    payload = {"basis": [str(p) for p in out["basis"]]}
    for key in ("comparison_equal", "member", "radical_member"):
        if key in out:
            payload[key] = out[key]
    return payload
