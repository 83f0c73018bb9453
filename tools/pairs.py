"""Run a parent tree and a change tree's benchmark in alternating pairs and
write what they show to one JSON file.

    python3 tools/pairs.py PARENT CHANGE --workload media directory \
        --seeds 101-110 --seconds 55 --note "2 cores, shared" --out BENCH_32.json

Each tree is a checkout with its own `perfbench/run.py`, which runs against
the `src/` beside it. For each workload and each seed of the range, both
trees run `perfbench/run.py --trace 0` once at that seed, the parent first
on even pairs and the change first on odd ones. Per end-to-end metric of the
change tree's BENCHMARK.json, the file holds both sides' values, medians and
quartiles, the change's wins out of the pairs (in the metric's `better`
direction, ties counting for neither), the gap of the medians against the
parent's interquartile range, and whether the change's median stays within
the metric's bound. It also holds the operations attempted and failed on
each side, the seeds, the Python version, `nproc` and the note.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    """`7` or `101-110` (both ends included) as a list of seeds."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def reduce_pairs(end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> dict:
    """What a list of (parent, change) `perfbench/run.py` outputs shows.

    `end_to_end` is BENCHMARK.json's list of end-to-end metrics (name, unit,
    better, bound). A gap is how far the change's median is better than the
    parent's (negative when worse), and `gap_over_iqr` sets it against the
    parent's own spread; `relative` is the change's median over the parent's,
    minus one, which `within_bound` holds to the metric's bound.
    """
    columns = dict(zip(SIDES, zip(*pairs)))
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        values = {
            side: [run["metrics"][name]["value"] for run in runs]
            for side, runs in columns.items()
        }
        parent, change = (quartiles(values[side]) for side in SIDES)
        paired = zip(values["parent"], values["change"])
        gap = sign * (parent["median"] - change["median"])
        iqr = parent["q3"] - parent["q1"]
        relative = change["median"] / parent["median"] - 1
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "values": values,
            "parent": parent,
            "change": change,
            "wins": sum(sign * (p - c) > 0 for p, c in paired),
            "pairs": len(pairs),
            "median_gap": gap,
            "parent_iqr": iqr,
            "gap_over_iqr": gap / iqr if iqr else None,
            "relative": relative,
            "within_bound": sign * relative <= spec["bound"],
        }
    operations = {
        side: {
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
        }
        for side, runs in columns.items()
    }
    return {"metrics": metrics, "operations": operations}


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One `perfbench/run.py --trace 0` of `tree`: its last line of output."""
    command = [
        sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{tree}: {workload} seed {seed} printed no result")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent checkout")
    parser.add_argument("change", help="the change checkout")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 101-110")
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--note", default="", help="free text, such as the machine")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]

    workloads = {}
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            result = {
                side: run_once(getattr(args, side), workload, seed, args.seconds)
                for side in order
            }
            pairs.append((result["parent"], result["change"]))
            print(f"{workload} seed {seed}: {' then '.join(order)}", file=sys.stderr)
        workloads[workload] = reduce_pairs(end_to_end, pairs)

    report = {
        "workloads": workloads,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "order": "parent first on even pairs, change first on odd ones",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "note": args.note,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
