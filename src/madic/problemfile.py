"""Line-oriented `key: value` problem files for the command-line frontend.

A file is a sequence of `key: value` lines; `#` starts a comment and blank
lines are ignored.  Repeatable keys (equation, approx, compare, ...) collect
in order.  Unknown keys are rejected with the offending line number, so
fixtures stay diff-friendly and typo-proof.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field as dc_field

from .errors import ParseError, PrecisionError
from .fields import QQ, PrimeField, is_prime
from .parse import parse_polynomial, parse_series
from .series import SeriesVector, TruncatedSeries

FIELD_ENV_VAR = "MADIC_FIELD"

_REPEATABLE = {
    "equation",
    "approx",
    "compare",
    "colon_left",
    "colon_right",
    "member",
    "radical_member",
    "family",
}

_SCALAR = {
    "field",
    "series_vars",
    "unknowns",
    "target_order",
    "order",
    "strategy",
    "jet_length",
    "m",
    "d",
    "n",
    "s",
    "c",
    "K",
    "series",
    "dividend",
    "divisor",
    "family_range",
    "targets",
}

_GF_RE = re.compile(r"^GF\(\s*(\d+)\s*\)$")


def parse_field_spec(text):
    text = text.strip()
    if text in ("Q", "QQ"):
        return QQ
    m = _GF_RE.match(text)
    if m:
        p = int(m.group(1))
        if not is_prime(p):
            raise ParseError(f"field must be Q or GF(p) for a prime p; not a prime: {p}")
        return PrimeField(p)
    raise ParseError(f"unknown field {text!r}; expected Q or GF(p)")


def default_field():
    return parse_field_spec(os.environ.get(FIELD_ENV_VAR, "Q"))


@dataclass
class ProblemFile:
    """Parsed problem file: raw strings plus typed accessors.

    Equation/series text is kept verbatim so a single file can be re-read
    at a precision supplied on the command line; `where` maps (key, value)
    to the file line and column where that value is first written.
    """

    path: str
    scalars: dict = dc_field(default_factory=dict)
    lists: dict = dc_field(default_factory=dict)
    where: dict = dc_field(default_factory=dict)

    # -- raw access ---------------------------------------------------

    def get(self, key, default=None):
        return self.scalars.get(key, default)

    def get_int(self, key, default=None):
        return self._int(key, self.scalars[key]) if key in self.scalars else default

    def _int(self, key, text):
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"{key} must be an integer, got {text!r}")

    def at_least(self, key, value, least):
        """ParseError naming `key` when `value` is below `least`."""
        if value < least:
            raise ParseError(f"{key} must be at least {least} in {self.path}, got {value}")

    def get_list(self, key):
        return self.lists.get(key, [])

    def require(self, key):
        if key in self.scalars:
            return self.scalars[key]
        raise ParseError(f"missing required key {key!r} in {self.path}")

    def require_list(self, key):
        vals = self.get_list(key)
        if not vals:
            raise ParseError(f"need at least one {key!r} line in {self.path}")
        return vals

    # -- typed accessors ----------------------------------------------

    def field(self):
        if "field" in self.scalars:
            return parse_field_spec(self.scalars["field"])
        return default_field()

    def _names(self, key):
        """The names listed under `key`, refused when one repeats."""
        names = tuple(self.require(key).split())
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ParseError(f"{key} names {name!r} twice in {self.path}")
        return names

    def series_vars(self):
        names = self._names("series_vars")
        if len(names) not in (1, 2):
            raise ParseError("series_vars must list one or two names")
        return names

    def unknowns(self):
        names = self._names("unknowns")
        svars = self.series_vars() if "series_vars" in self.scalars else ()
        for name in names:
            if name in svars:
                raise ParseError(f"unknowns names the series variable {name!r} in {self.path}")
        return names

    def all_vars(self):
        """Ambient ring variables; series_vars is optional for the purely
        polynomial commands."""
        if "series_vars" in self.scalars:
            return self.series_vars() + self.unknowns()
        return self.unknowns()

    def assignment(self):
        return {u: i for i, u in enumerate(self.unknowns())}

    def _read(self, key, value, parse):
        """parse() of `value` of `key`, with a ParseError at its line and column
        in the file; a family line is read with {k} replaced, so at its line."""
        try:
            return parse()
        except ParseError as exc:
            line, col = self.where.get((key, value), (exc.line, 1))
            raise ParseError(exc.message, line, exc.column and key != "family" and col + exc.column - 1 or None) from None

    def equations(self, fld=None):
        fld = fld or self.field()
        vars = self.all_vars()
        return [self._read("equation", t, lambda: parse_polynomial(t, vars, fld)) for t in self.require_list("equation")]

    def polynomials(self, key):
        vars, fld = self.all_vars(), self.field()
        return [self._read(key, t, lambda: parse_polynomial(t, vars, fld)) for t in self.get_list(key)]

    def series_value(self, key, text, precision=None, fld=None, written=None):
        """The series literal `text` of `key` (`written` is a family line's
        template), truncated to `precision` when given.

        A precision above the literal's O(m^N) would claim digits the input
        does not determine, so it is refused.
        """
        fld, svars = fld or self.field(), self.series_vars()
        poly, prec = self._read(key, written or text, lambda: parse_series(text, svars, fld))
        if precision is not None:
            if precision > prec:
                raise PrecisionError(
                    f"requested precision {precision} exceeds the written O(m^{prec})"
                )
            prec = precision
        return TruncatedSeries.from_polynomial(poly, prec)

    def _uniform_vector(self, key, texts, precision, fld, written=None):
        entries = [self.series_value(key, t, precision, fld, w) for t, w in zip(texts, written or texts)]
        prec = min(s.precision for s in entries)
        return SeriesVector([s.truncate(prec) for s in entries])

    def approx_vector(self, precision=None):
        texts = self.require_list("approx")
        if len(texts) != len(self.unknowns()):
            raise ParseError(
                f"{len(self.unknowns())} unknowns but {len(texts)} approx lines"
            )
        return self._uniform_vector("approx", texts, precision, self.field())

    def family_vectors(self, precision=None):
        """Expand `family` template lines over the `family_range` indices.

        Each family line is a series literal that may contain `{k}`; the
        range line `family_range: a b` substitutes k = a..b inclusive.
        """
        templates = self.require_list("family")
        lo, hi = self._range()
        fld = self.field()
        out = []
        labels = []
        for k in range(lo, hi + 1):
            texts = [t.replace("{k}", str(k)) for t in templates]
            out.append(self._uniform_vector("family", texts, precision, fld, templates))
            labels.append(f"k={k}")
        return out, labels

    def _range(self):
        parts = self.require("family_range").split()
        if len(parts) != 2:
            raise ParseError("family_range must be two integers")
        lo, hi = (self._int("family_range", t) for t in parts)
        if hi < lo:
            raise ParseError("empty family_range")
        return lo, hi

    def targets(self):
        """The target orders of `targets`, or else of `target_order`;
        ParseError below 0."""
        if "targets" in self.scalars:
            key, out = "targets", [self._int("targets", t) for t in self.scalars["targets"].split()]
        else:
            key, c = "target_order", self.get_int("target_order")
            out = [] if c is None else [c]
        for c in out:
            self.at_least(key, c, 0)
        return out


def load_problem(path):
    pf = ProblemFile(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value' in {path}", lineno)
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        pf.where.setdefault((key, value), (lineno, raw.index(value, raw.index(":") + 1) + 1))
        if key in _REPEATABLE:
            pf.lists.setdefault(key, []).append(value)
        elif key in _SCALAR:
            if key in pf.scalars:
                raise ParseError(f"duplicate key {key!r} in {path}", lineno)
            pf.scalars[key] = value
        else:
            raise ParseError(f"unknown key {key!r} in {path}", lineno)
    return pf
