"""Record the output digest of every instance the generator can emit.

    python3 perfbench/record.py

Run from the repository root.  Runs each (shape, variant) instance of every
workload once under the benchmark's op budget, checks it as a benchmark run
would, and writes perfbench/reference_digests.json,
against which every run counts drifted outputs.  Prints the slowest op of each
shape and every outcome, so a generator change can be checked for ops that
fail or come near the budget.  Exits 1 if any op fails.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from collections import defaultdict
from pathlib import Path

import run as bench
import workloads as wl


def main():
    root = Path.cwd()
    madic, _ = bench.import_madic(root)
    try:
        with open(bench.REFERENCE_DIGESTS, encoding="utf-8") as fh:
            digests = json.load(fh)["digests"]
    except OSError:
        digests = {}
    failed = 0
    for workload in sorted(wl.SHAPES):
        run = bench.Run(argparse.Namespace(trace=0, seconds=float("inf")), madic)
        signal.signal(signal.SIGALRM, run._alarm)
        restore = run.capture_probe_certificates() if workload == "solve_uni" else None
        shapes = wl.SHAPES[workload]
        passes = [
            [wl.parse_instance(wl.instance_text(workload, i, v), madic) for i in range(len(shapes))]
            for v in range(wl.VARIANTS)
        ]
        run.loop(passes)
        if restore:
            restore()
        run.oracle()
        slowest = defaultdict(float)
        outcomes = defaultdict(lambda: defaultdict(int))
        for r in run.results:
            slowest[r["shape"]] = max(slowest[r["shape"]], r["seconds"])
            outcomes[r["shape"]][r["outcome"]] += 1
            if r["failure"] or r["outcome"] in ("timeout", "error"):
                failed += 1
                print(f"FAILED {r['id']}: {r['failure']}")
            elif r["digest"] is not None:
                digests[r["id"]] = r["digest"]
        for shape, *_ in shapes:
            print(f"{workload}/{shape}: slowest {slowest[shape]:.3f} s, {dict(outcomes[shape])}")
        sys.stdout.flush()
    with open(bench.REFERENCE_DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"commit": bench.git_sha(root), "digests": dict(sorted(digests.items()))}, fh, indent=0)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
