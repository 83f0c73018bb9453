"""Repeat the benchmark over several seeds and show how steady each metric is.

    python3 perfbench/steady.py --workload media --runs 10 [--first-seed 1] [--seconds 55]

Runs perfbench/run.py once per seed, one run after another, and prints for
every metric the median, the first and third quartiles and the spread
(third minus first quartile, as a share of the median) over the runs,
with quartiles as `statistics.quantiles(values, n=4)` gives them. The raw
results go to perfbench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    args = parser.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + ", ".join(
            f"{name}={m['value']:.5g}" for name, m in results[-1]["metrics"].items()
        ), flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{args.workload}.json"), "w") as out:
        json.dump(results, out, indent=1)

    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:28} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}  {first['unit']}")
    failed = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(failed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
