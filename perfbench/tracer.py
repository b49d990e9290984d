"""Span tracing of madic's layers from outside the library.

`Tracer.install()` replaces each traced function with a wrapper: on its
defining module, on every `madic` module that imported the name, and on the
class for methods.  `uninstall()` puts the originals back.  A span is
recorded only while an op is open (`begin_op`), so checks and audits that run
between ops add nothing.

Spans live in flat arrays (name, start, end, parent, op) and are written out
by `dump()` when the run ends.  Self time is accumulated as spans close: a
span's duration minus the summed durations of its direct children, which is
the time its children do not cover because spans nest on one thread.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute); attribute "Class.method" patches a method.
TRACED = [
    ("solver.approximate_solve", "madic.solver", "approximate_solve"),
    ("solver.select_minor", "madic.solver", "select_minor"),
    ("solver.build_one_var_system", "madic.solver", "build_one_var_system"),
    ("solver.solve_one_var", "madic.solver", "solve_one_var"),
    ("solver.tougeron_refine", "madic.solver", "tougeron_refine"),
    ("weierstrass.divide_series", "madic.weierstrass", "divide_series"),
    ("weierstrass.regularize", "madic.weierstrass", "regularize"),
    ("weierstrass.prepare", "madic.weierstrass", "prepare"),
    ("weierstrass.weierstrass_divide", "madic.weierstrass", "weierstrass_divide"),
    ("weierstrass.generic_euclid", "madic.weierstrass", "generic_euclid"),
    ("weierstrass.apply_series", "madic.weierstrass", "LinearChange.apply_series"),
    ("series.evaluate", "madic.series", "evaluate"),
    ("series.mul", "madic.series", "TruncatedSeries.__mul__"),
    ("series.inverse", "madic.series", "TruncatedSeries.inverse"),
    ("poly.mul", "madic.poly", "Polynomial.__mul__"),
    ("poly.subs", "madic.poly", "Polynomial.subs"),
    ("poly.determinant", "madic.poly", "determinant"),
    ("groebner.buchberger", "madic.groebner", "buchberger"),
    ("groebner.normal_form_terms", "madic.groebner", "normal_form_terms"),
    ("groebner.intersect", "madic.groebner", "intersect"),
    ("groebner.colon", "madic.groebner", "colon"),
    ("groebner.elkik_ideal", "madic.groebner", "elkik_ideal"),
    ("groebner.radical_member", "madic.groebner", "radical_member"),
    ("parse.parse_polynomial", "madic.parse", "parse_polynomial"),
    ("parse.parse_series", "madic.parse", "parse_series"),
]

SPAN_NAMES = [name for name, _, _ in TRACED]

# Op id of the set-up phase, whose spans are aggregated under "setup:<name>".
SETUP_OP = -1

# Layers whose self time is also split by the coefficient field of the op.
FIELD_SPLIT_LAYERS = ("series", "weierstrass", "groebner")


def _resolve(module, attr):
    mod = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name), meth
    return mod, attr


def stage_of_frame(frame, code_names):
    """Innermost traced function on the interpreter stack, and the innermost
    one of the solver layer, for naming where a timeout fired."""
    inner = solver = None
    while frame is not None:
        name = code_names.get(frame.f_code)
        if name is not None:
            inner = inner or name
            if solver is None and name.startswith("solver."):
                solver = name
        frame = frame.f_back
    return inner, solver


def code_names():
    """Map each traced function's code object to its span name."""
    out = {}
    for name, module, attr in TRACED:
        owner, key = _resolve(module, attr)
        out[getattr(owner, key).__code__] = name
    return out


class Tracer:
    """Spans and counters of one run; see the module docstring."""

    def __init__(self):
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.prepare_inputs = set()
        self.op_id = None  # no op open: wrappers record nothing
        self.op_field = None
        self._stack = []  # [span index, summed child duration]
        self._patched = []

    # -- op bracketing ----------------------------------------------------

    def begin_op(self, op_id, field_tag):
        self.op_id = op_id
        self.op_field = field_tag
        self._stack.clear()

    def end_op(self):
        """Close spans left open by an exception that escaped a wrapper's
        bookkeeping (the timeout alarm can land anywhere)."""
        now = time.perf_counter()
        while self._stack:
            self._close(self._stack[-1], now)
        self.op_id = None
        self.op_field = None

    def open_span_name(self):
        return SPAN_NAMES[self.names[self._stack[-1][0]]] if self._stack else None

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name_id):
        idx = len(self.starts)
        self.names.append(name_id)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.starts.append(time.perf_counter())
        return frame

    def _close(self, frame, end):
        idx, child = frame
        self.ends[idx] = end
        dur = end - self.starts[idx]
        name = SPAN_NAMES[self.names[idx]]
        if self.op_id == SETUP_OP:
            name = f"setup:{name}"
        self.calls[name] += 1
        own = dur - child
        self.self_s[name] += own
        if self.op_field and name.split(".")[0] in FIELD_SPLIT_LAYERS:
            self.self_s[f"{name}.{self.op_field}"] += own
        # pop through `frame`; a frame above it was left open only when the
        # alarm fired inside a wrapper's own bookkeeping
        while self._stack:
            if self._stack.pop() is frame:
                break
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, name, fn):
        name_id = SPAN_NAMES.index(name)
        counting = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            if counting is not None and self.op_id != SETUP_OP:
                counting(self, args)
            frame = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame, time.perf_counter())
            if name == "solver.tougeron_refine":
                self.counters["solver.newton_steps"] += out.iterations
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        for name, module, attr in TRACED:
            owner, key = _resolve(module, attr)
            original = getattr(owner, key)
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                # every alias on the class (`__rmul__ = __mul__`)
                for alias, value in list(vars(owner).items()):
                    if value is original:
                        self._set(owner, alias, wrapped, original)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "madic" or mod is None:
                        continue
                    if getattr(mod, key, None) is original:
                        self._set(mod, key, wrapped, original)

    def _set(self, owner, key, value, original):
        setattr(owner, key, value)
        self._patched.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def dump(self, path):
        """Write every span as one `name start end parent op` line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index name start_s end_s parent op\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i} {SPAN_NAMES[self.names[i]]} {self.starts[i]:.9f} "
                    f"{self.ends[i]:.9f} {self.parents[i]} {self.ops[i]}\n"
                )


def _count_term_pairs(key):
    """Counter of the term pairs a product iterates over."""

    def count(tracer, args):
        a, b = args
        tracer.counters[key] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)

    return count


def _count_prepare(tracer, args):
    u = args[0]
    tracer.prepare_inputs.add(
        (tracer.op_id, u.field, u.vars, u.precision, frozenset(u.terms.items()))
    )


_COUNTERS = {
    "series.mul": _count_term_pairs("series.mul.term_pairs"),
    "poly.mul": _count_term_pairs("poly.mul.term_pairs"),
    "weierstrass.prepare": _count_prepare,
}
