"""Alternating pairs of benchmark runs from two checkouts, and their summary.

    python3 tools/ab_pairs.py PARENT CHANGE --workload solve_uni \
        --seeds 3101 3102 3103 3104 3105 3106 3107 3108 3109 3110

PARENT and CHANGE are two checkouts of the repository.  For each seed the
tool runs `perfbench/run.py --trace 0` once in each, as it is in that
checkout, with PYTHONDONTWRITEBYTECODE=1, so that every run compiles its
source as a fresh checkout does.  The parent runs first in even pairs and
the change first in odd ones, so that a drift of the host's speed falls on
both sides alike.  A run that is not `correct`, has a failed op or prints
op digests that drift from the recorded reference stops the tool: its
figures would compare unequal work.

Every run lasts BENCHMARK.json's `run_seconds`, as the benchmark's own
runs do.  For each end-to-end metric of BENCHMARK.json the tool prints q1,
the median and q3 of each side, the change of the median in percent, the
pairs the change won in the metric's direction (a tie wins nothing), and a
verdict:

- `gain` when the change won at least 9 of every 10 pairs and its median
  is better than the parent's by more than the parent's interquartile
  range;
- `worse` when its median is worse than the parent's by more than the
  metric's `bound`, a fraction of the parent's median;
- `unresolved` when it is neither, the parent's interquartile range is
  wider than the bound, so the parent's own runs spread past what the
  bound can tell apart, and not every run of the change is better than
  every run of the parent;
- `within` otherwise.

Nothing is written; each run's figures are printed as they come.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values):
    """(q1, median, q3) by linear interpolation between the order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(q_old, q_new, won, n, sign, bound, apart):
    """`gain`, `worse`, `unresolved` or `within` (see the module docstring)
    for parent and change quartiles, `won` of `n` pairs, `sign` 1 when
    higher is better and -1 when lower is, the metric's relative `bound`,
    and `apart`, whether every change run is better than every parent
    run."""
    gained = sign * (q_new[1] - q_old[1])
    if 10 * won >= 9 * n and gained > q_old[2] - q_old[0]:
        return "gain"
    if -gained > bound * abs(q_old[1]):
        return "worse"
    if q_old[2] - q_old[0] > bound * abs(q_old[1]) and not apart:
        return "unresolved"
    return "within"


def summarize(pairs, metrics):
    """One row per metric of `metrics`, BENCHMARK.json's `end_to_end` list:
    (name, parent quartiles, change quartiles, % change of the median, pairs
    won by the change, pairs, verdict).  `pairs` holds (parent, change)
    dicts of metric name -> value, one per seed."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        old = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        apart = min(sign * b for b in new) > max(sign * a for a in old)
        q_old, q_new = quartiles(old), quartiles(new)
        pct = 100 * (q_new[1] - q_old[1]) / q_old[1] if q_old[1] else float("nan")
        said = verdict(q_old, q_new, won, len(pairs), sign, metric["bound"], apart)
        rows.append((name, q_old, q_new, pct, won, len(pairs), said))
    return rows


def table(rows):
    """The rows of `summarize` as a markdown table."""
    out = [
        "| metric | parent q1 / median / q3 | change q1 / median / q3 | median | won | verdict |",
        "|---|---|---|---|---|---|",
    ]
    for name, q_old, q_new, pct, won, n, said in rows:
        old = " / ".join(f"{v:.4g}" for v in q_old)
        new = " / ".join(f"{v:.4g}" for v in q_new)
        out.append(f"| {name} | {old} | {new} | {pct:+.1f}% | {won}/{n} | {said} |")
    return "\n".join(out)


def checked(result, drifted, where):
    """The metric values of one run's JSON line; SystemExit when the run is
    not correct, has a failed op, or `drifted` (None when not printed) is
    not 0."""
    if not result.get("correct") or result.get("failed") or drifted != 0:
        raise SystemExit(
            f"{where}: correct={result.get('correct')}, failed={result.get('failed')} "
            f"of {result.get('attempted')} ops, drift {drifted}; refusing to compare it"
        )
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_once(checkout, workload, seed, seconds):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    where = f"{checkout} seed {seed}"
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    drift = next((line.split()[1] for line in lines if line.startswith("drift: ")), "")
    return checked(json.loads(lines[-1]), int(drift) if drift.isdigit() else None, where)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            got[side] = run_once(getattr(args, side), args.workload, seed, bench["run_seconds"])
            figures = " ".join(f"{m['name']}={got[side][m['name']]:.4g}" for m in metrics)
            print(f"pair {i + 1} seed {seed} {side}: {figures}", flush=True)
        pairs.append((got["parent"], got["change"]))
    print(f"\n{args.workload}: {len(pairs)} pairs of {bench['run_seconds']:g} s runs")
    print(table(summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
