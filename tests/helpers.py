"""Polynomial constructions and a time budget that only the tests use.

The ideal engine keeps its data packed, so the library builds no variable
as a Polynomial and divides no Polynomial by another; `exact_div` is the
Polynomial face of its packed division, `groebner.exact_quotient`.
"""

import signal
from contextlib import contextmanager

from madic.fields import QQ
from madic.groebner import DEGREVLEX, exact_quotient
from madic.errors import MadicError
from madic.poly import Polynomial


def variable(name, vars, field=QQ):
    """The polynomial `name` over the universe `vars`."""
    vars = tuple(vars)
    if name not in vars:
        raise MadicError(f"unknown variable {name!r} (universe {vars})")
    return Polynomial(field, vars, {tuple(int(v == name) for v in vars): 1})


def exact_div(p, g):
    """Exact division p / g; raises MadicError if g does not divide p."""
    p._check(g)
    if g.is_zero():
        raise MadicError("division by the zero polynomial")
    pk, table = DEGREVLEX.packing(len(p.vars)), {}
    nums, den = exact_quotient(pk.pack_terms(p.nums, table), p.den, pk.pack_terms(g.nums, table), g.den, pk, p.field)
    return Polynomial._of_nums(p.field, p.vars, pk.unpack_terms(nums, table), den)


@contextmanager
def budget(seconds):
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
