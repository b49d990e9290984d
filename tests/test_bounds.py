"""Effective bound calculators: exact values and growth shapes."""

import json
import math

import pytest

from madic import (
    BoundReport,
    CapacityError,
    MadicError,
    beta_estimate,
    colon_degree_bound,
    doubly_exponential_bound,
    elkik_degree_bound,
    gamma,
    isolated_singularity_bound,
    power_exponent,
    unit_a_fn,
)
from madic.bounds import MAX_BITS, capped_power, power_bits


def test_smallest_case_exact_value():
    # m=1, d=2: (m+2)((d+m+2)^(m+2) d)^(2^(m+1)) + (m+2)(d-1)
    #         = 3*(5^3*2)^4 + 3 = 11_718_750_003
    assert colon_degree_bound(1, 2) == 3 * (5**3 * 2) ** 4
    assert elkik_degree_bound(1, 2) == 11_718_750_003


def test_power_exponent_caps_at_m_plus_one():
    e = elkik_degree_bound(1, 2)
    assert power_exponent(1, 2, 1) == e
    assert power_exponent(1, 2, 5) == e**2
    assert power_exponent(1, 2, 100) == e**2


def test_gamma_formula():
    # with the unit rate function, gamma is just c + 2s + 1
    assert gamma(1, 2, 1, 3, unit_a_fn) == 6
    assert gamma(2, 3, 2, 0, unit_a_fn) == 5


def test_gamma_rejects_bad_rate_function():
    with pytest.raises(MadicError):
        gamma(1, 2, 1, 3, lambda m, d: 0)
    with pytest.raises(MadicError):
        gamma(1, 2, 1, 3, lambda m, d: 1.5)


def test_monotonicity():
    prev = 0
    for d in range(2, 7):
        val = elkik_degree_bound(1, d)
        assert val > prev
        prev = val
    prev = 0
    for m in range(1, 5):
        val = elkik_degree_bound(m, 2)
        assert val > prev
        prev = val
    prev = -1
    for c in range(0, 6):
        val = gamma(1, 2, 1, c)
        assert val > prev
        prev = val


def test_beta_estimate_value():
    # (2s+1)(4mds)^(K^(2(m+1)s)) at m=1, d=2, s=1, K=2
    assert beta_estimate(1, 2, 1, 2) == 3 * 8**16


def test_isolated_singularity_bound_unit_constant():
    # inner constant 1 isolates the structure: d^1 * (c+1)
    assert isolated_singularity_bound(2, 1, 1, 1, inner_constant=1) == 4


def test_isolated_singularity_bound_monotone():
    vals = [isolated_singularity_bound(2, 1, 1, c) for c in range(1, 5)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    kvals = [isolated_singularity_bound(2, 1, k, 2) for k in range(1, 5)]
    assert all(b > a for a, b in zip(kvals, kvals[1:]))


def test_doubly_exponential_loglog_linearity():
    # log log K^(K^c) = c log K + log log K: exactly linear in c
    vals = [doubly_exponential_bound(c, 3) for c in range(1, 7)]
    loglogs = [math.log(math.log(v)) for v in vals]
    diffs = [b - a for a, b in zip(loglogs, loglogs[1:])]
    for d in diffs:
        assert abs(d - math.log(3)) < 1e-9


def test_report_serializes_big_integers_as_strings():
    rep = BoundReport.compute(1, 2, 1, 1, 1)
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["elkik_degree_bound"] == "11718750003"
    assert "e" not in blob["beta_estimate"]  # no scientific notation
    assert int(blob["colon_degree_bound"]) == colon_degree_bound(1, 2)


def test_invalid_parameters_raise():
    with pytest.raises(MadicError):
        elkik_degree_bound(0, 2)
    with pytest.raises(MadicError):
        elkik_degree_bound(1, 1)
    with pytest.raises(MadicError):
        doubly_exponential_bound(-1)


# -- the bit-length cap ---------------------------------------------------


def test_power_bits_bounds_the_true_length():
    for base in range(0, 40):
        for exp in range(0, 30):
            true = (base**exp).bit_length() or 1
            est = power_bits(base, exp)
            assert true <= est
            if base > 1 and exp > 0:
                assert est < 2 * true
            if base in (2, 4, 8, 16, 32) or exp == 0:
                assert est == true


def test_power_bits_needs_no_big_value():
    # a tower exponent with thousands of bits is only multiplied, never raised
    assert power_bits(2, 2**MAX_BITS) == 2**MAX_BITS + 1
    assert power_bits(3, 10**100) == 2 * 10**100


def test_capped_power_at_and_just_over_the_cap():
    assert capped_power(2, MAX_BITS - 1).bit_length() == MAX_BITS
    with pytest.raises(CapacityError):
        capped_power(2, MAX_BITS)
    with pytest.raises(CapacityError):
        capped_power(2, MAX_BITS - 1, factor=2)


def test_towers_past_the_cap_raise_before_building():
    assert doubly_exponential_bound(13).bit_length() == 2**13 + 1
    with pytest.raises(CapacityError):
        doubly_exponential_bound(14)
    colon_degree_bound(7, 2)  # about 8.2k bits
    with pytest.raises(CapacityError):
        colon_degree_bound(8, 2)
    with pytest.raises(CapacityError):
        elkik_degree_bound(10**6, 2)
    with pytest.raises(CapacityError):
        power_exponent(6, 2, 7)
    with pytest.raises(CapacityError):
        beta_estimate(1, 2, 10**6)
    with pytest.raises(CapacityError):
        isolated_singularity_bound(2, 1, 1, 10**6)
    with pytest.raises(CapacityError):
        doubly_exponential_bound(10**9, K=10**9)


def test_capped_power_refuses_a_negative_exponent():
    # base ** -1 would be a float
    with pytest.raises(MadicError, match="negative exponent -1"):
        capped_power(2, -1)
    assert capped_power(3, 0, 5) == 5
