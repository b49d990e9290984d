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


def test_summary_gives_quartiles_change_and_wins_in_each_direction():
    ops = [(2000, 2300), (2100, 2050), (2050, 2400), (2150, 2350), (2080, 2380)]
    p50 = [(0.50, 0.43), (0.52, 0.44), (0.46, 0.46), (0.55, 0.42), (0.49, 0.50)]
    pairs = [({"ops": a, "p50": c}, {"ops": b, "p50": d}) for (a, b), (c, d) in zip(ops, p50)]
    rows = ab_pairs.summarize(pairs, {"ops": "higher", "p50": "lower"})
    (name, old, new, pct, won, n), p50_row = rows
    assert (name, n) == ("ops", 5)
    # sorted parent 2000 2050 2080 2100 2150; change 2050 2300 2350 2380 2400
    assert old == (2050, 2080, 2100) and new == (2300, 2350, 2380)
    assert pct == pytest.approx(100 * (2350 - 2080) / 2080)
    assert won == 4  # 2100 -> 2050 is a loss
    # lower is better: 0.46 -> 0.46 is a tie, and 0.49 -> 0.50 a loss
    assert p50_row[0] == "p50" and p50_row[4] == 3
    assert p50_row[2][1] == 0.44
    text = ab_pairs.table(rows)
    assert "| ops | 2050 / 2080 / 2100 | 2300 / 2350 / 2380 | +13.0% | 4/5 |" in text


def test_one_pair_has_its_value_as_every_quartile():
    rows = ab_pairs.summarize([({"m": 3.0}, {"m": 2.0})], {"m": "lower"})
    assert rows == [("m", (3.0, 3.0, 3.0), (2.0, 2.0, 2.0), pytest.approx(-100 / 3), 1, 1)]


def test_runs_that_are_wrong_failed_or_drifted_are_refused():
    assert ab_pairs.checked(run_json(ops=2100.0), 0, "a") == {"ops": 2100.0}
    with pytest.raises(SystemExit, match="correct=False"):
        ab_pairs.checked(run_json(correct=False, ops=2100.0), 0, "a")
    with pytest.raises(SystemExit, match="failed=1 of 48"):
        ab_pairs.checked(run_json(failed=1, ops=2100.0), 0, "a")
    for drifted in (2, None):  # None: no drift line was printed
        with pytest.raises(SystemExit, match=f"drift {drifted}"):
            ab_pairs.checked(run_json(ops=2100.0), drifted, "a")
