"""The summary of `tools/ab_pairs.py` on canned run results; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def run_json(correct=True, failed=0, **values):
    return {
        "correct": correct, "attempted": 48, "failed": failed,
        "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()},
    }


def metrics(**better):
    """BENCHMARK.json-style end-to-end entries: name -> (better, bound)."""
    return [{"name": k, "better": b, "bound": bound} for k, (b, bound) in better.items()]


def test_summary_gives_quartiles_change_and_wins_in_each_direction():
    ops = [(2000, 2300), (2100, 2050), (2050, 2400), (2150, 2350), (2080, 2380)]
    p50 = [(0.50, 0.43), (0.52, 0.44), (0.46, 0.46), (0.55, 0.42), (0.49, 0.50)]
    pairs = [({"ops": a, "p50": c}, {"ops": b, "p50": d}) for (a, b), (c, d) in zip(ops, p50)]
    rows = ab_pairs.summarize(pairs, metrics(ops=("higher", 0.25), p50=("lower", 0.2)))
    (name, old, new, pct, won, n, said), p50_row = rows
    assert (name, n) == ("ops", 5)
    # sorted parent 2000 2050 2080 2100 2150; change 2050 2300 2350 2380 2400
    assert old == (2050, 2080, 2100) and new == (2300, 2350, 2380)
    assert pct == pytest.approx(100 * (2350 - 2080) / 2080)
    assert won == 4  # 2100 -> 2050 is a loss
    # lower is better: 0.46 -> 0.46 is a tie, and 0.49 -> 0.50 a loss
    assert p50_row[0] == "p50" and p50_row[4] == 3
    assert p50_row[2][1] == 0.44
    text = ab_pairs.table(rows)
    # 4/5 wins fall short of 9/10, so the clear shift of the medians is no gain
    assert said == p50_row[6] == "within"
    assert "| ops | 2050 / 2080 / 2100 | 2300 / 2350 / 2380 | +13.0% | 4/5 | within |" in text


def test_one_pair_has_its_value_as_every_quartile():
    rows = ab_pairs.summarize([({"m": 3.0}, {"m": 2.0})], metrics(m=("lower", 0.1)))
    assert rows == [("m", (3.0, 3.0, 3.0), (2.0, 2.0, 2.0), pytest.approx(-100 / 3), 1, 1, "gain")]


def canned(parent, change, better, bound):
    """The verdict of `summarize` on pairs of values of one metric."""
    pairs = [({"m": a}, {"m": b}) for a, b in zip(parent, change)]
    return ab_pairs.summarize(pairs, metrics(m=(better, bound)))[0][6]


# ten parent runs with quartiles 2001.25 / 2010 / 2018.75 (an IQR of 17.5)
PARENT = [1990, 2000, 2000, 2005, 2010, 2010, 2015, 2020, 2020, 2030]


def test_a_gain_needs_nine_of_ten_wins_and_medians_apart_by_more_than_the_parent_iqr():
    assert canned(PARENT, [v + 50 for v in PARENT], "higher", 0.25) == "gain"
    # one loss of ten still wins 9/10
    assert canned(PARENT, [v + 50 for v in PARENT[:9]] + [PARENT[9] - 1], "higher", 0.25) == "gain"
    # two losses: 8/10
    assert canned(PARENT, [v + 50 for v in PARENT[:8]] + [v - 1 for v in PARENT[8:]], "higher", 0.25) == "within"
    # every pair won, but the medians only 15 apart against an IQR of 17.5
    assert canned(PARENT, [v + 15 for v in PARENT], "higher", 0.25) == "within"
    # lower is better: the same shift downwards is the gain, upwards not
    assert canned(PARENT, [v - 50 for v in PARENT], "lower", 0.25) == "gain"
    assert canned(PARENT, [v + 50 for v in PARENT], "lower", 0.25) == "within"


def test_worse_is_a_median_past_the_bound_in_the_worse_direction():
    # bound 0.1 of the parent's median 2010 is 201
    assert canned(PARENT, [v - 202 for v in PARENT], "higher", 0.1) == "worse"
    assert canned(PARENT, [v - 200 for v in PARENT], "higher", 0.1) == "within"
    assert canned(PARENT, [v + 202 for v in PARENT], "lower", 0.1) == "worse"
    assert canned(PARENT, [v + 200 for v in PARENT], "lower", 0.1) == "within"


# ten parent runs spread wider than a bound of 0.1 of their median: quartiles
# 0.4575 / 0.5 / 0.5725, an IQR of 0.115 against 0.05
WIDE = [0.40, 0.44, 0.45, 0.48, 0.50, 0.50, 0.55, 0.58, 0.60, 0.62]


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_change_run_is_better():
    for better, parent in (("lower", WIDE), ("higher", [1 - v for v in WIDE])):
        sign = 1 if better == "higher" else -1
        # the same runs, or shifted by 0.04 either way: no gain, and not
        # worse by more than the bound
        for shift in (0, 0.04, -0.04):
            assert canned(parent, [v + shift for v in parent], better, 0.1) == "unresolved"
        # every change run better than every parent run, the medians 0.11
        # apart against an IQR of 0.115: no gain, but resolved
        edge = min(parent) - 0.01 if better == "lower" else max(parent) + 0.01
        assert canned(parent, [edge] * 10, better, 0.1) == "within"
        # worse by more than the bound stays worse
        assert canned(parent, [v - sign * 0.06 for v in parent], better, 0.1) == "worse"
        # the same spread under a bound wider than it is resolved
        assert canned(parent, parent, better, 0.25) == "within"


def test_runs_that_are_wrong_failed_or_drifted_are_refused():
    assert ab_pairs.checked(run_json(ops=2100.0), 0, "a") == {"ops": 2100.0}
    with pytest.raises(SystemExit, match="correct=False"):
        ab_pairs.checked(run_json(correct=False, ops=2100.0), 0, "a")
    with pytest.raises(SystemExit, match="failed=1 of 48"):
        ab_pairs.checked(run_json(failed=1, ops=2100.0), 0, "a")
    for drifted in (2, None):  # None: no drift line was printed
        with pytest.raises(SystemExit, match=f"drift {drifted}"):
            ab_pairs.checked(run_json(ops=2100.0), drifted, "a")
