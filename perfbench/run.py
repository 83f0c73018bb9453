"""Benchmark of whole simulated meetings: seeded scripts, checked outputs.

    python3 perfbench/run.py --workload media --seed 1 --seconds 55 --trace 0

Runs the workload's script (see scripts.py) again and again, each time in a
fresh process (workload.py), for as many whole rounds as fit in --seconds
(at least one). Every round runs the same script, so action i is the same
work in every round. With --trace 0 every round is one untraced run; set-up
and run time are those of the fastest round, and a per-action latency is
first taken per action as its fastest time over the rounds, then as a
percentile over the actions. With --trace 1 every round is an untraced run
followed by a traced one through the CLI, and the per-layer metrics are
medians over the traced runs. The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("media", "directory")
# every process of a run must be done well within three minutes
HARD_LIMIT_S = 170



def load_units() -> tuple[dict[str, str], dict[str, str]]:
    """Each metric's unit, as BENCHMARK.json names it: (end to end, per layer)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    """Fail loudly unless the metrics measured are exactly the ones named."""
    if set(values) != set(units):
        raise SystemExit(
            f"metrics measured but not named: {sorted(set(values) - set(units))};"
            f" named but not measured: {sorted(set(units) - set(values))}"
        )
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def spawn(args, mode: str, deadline: float, *extra: str) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode, *extra,
    ]
    # a fixed hash seed keeps set and dict layouts, and so timings, alike across runs
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = monotonic()
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - started),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} run of {args.workload} exited {proc.returncode}")
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    result = json.loads(lines[-1])
    result["spawned_at"] = started
    return result


def end_to_end(plain: list[dict]) -> dict[str, float]:
    """Time figures are the fastest over the rounds.

    The machine's speed drifts within seconds and another process's load only
    ever adds time, so a round's median follows how much of it ran slow; the
    fastest time of the same work over several rounds follows the program.
    A per-action latency takes, for each scripted action, its fastest time
    over the rounds, and then the percentile over those actions.
    """

    def fastest_per_action(key: str) -> list[float]:
        per_round = [r[key] for r in plain]
        if len({len(times) for times in per_round}) != 1:
            raise SystemExit(f"rounds timed different numbers of {key} actions")
        return [min(times) for times in zip(*per_round)]

    packets = fastest_per_action("packet_s")
    return {
        "setup_s": min(r["first_event_at"] - r["spawned_at"] for r in plain),
        "run_s": min(r["run_s"] for r in plain),
        "rekey_ms_p50": statistics.median(fastest_per_action("distribute_s")) * 1e3,
        "packet_us_p50": statistics.median(packets) * 1e6,
        "packet_us_p90": statistics.quantiles(packets, n=10)[-1] * 1e6,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["metrics"]
    out = {name: statistics.median(t["metrics"][name] for t in traced) for name in names}
    out["trace.overhead_s"] = statistics.median(
        t["run_s"] - p["run_s"] for p, t in zip(plain, traced)
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "chainmeet", "__init__.py")):
        print(f"no chainmeet sources under {ROOT}/src", file=sys.stderr)
        return 2

    began = monotonic()
    hard_stop = began + HARD_LIMIT_S
    plain, traced = [], []
    while True:
        round_began = monotonic()
        if args.trace:
            plain.append(spawn(args, "plain", hard_stop, "--digest"))
            traced.append(spawn(args, "traced", hard_stop))
        else:
            plain.append(spawn(args, "plain", hard_stop))
        # start a round only if one as long as the last still ends in time
        now = monotonic()
        if now + (now - round_began) > min(began + args.seconds, hard_stop):
            break

    correct = not any(r["problems"] for r in plain + traced)
    for p, t in zip(plain, traced):
        if p.get("transcript_sha256") != t.get("transcript_sha256"):
            # a failed output check: every action of the traced run failed
            print("traced transcript differs from the untraced one", file=sys.stderr)
            t["failed"] = t["attempted"]
            correct = False
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    # a round that raised has no figures; the others still give metrics
    plain, traced = [r for r in plain if "run_s" in r], [r for r in traced if "run_s" in r]
    if not plain or (args.trace and not traced):
        print("no round of the workload ran to its end", file=sys.stderr)
        return 1
    end_units, layer_units = load_units()
    if args.trace:
        metrics = with_units(per_layer(plain, traced), layer_units)
    else:
        metrics = with_units(end_to_end(plain), end_units)
    print(f"workload={args.workload} seed={args.seed} rounds={len(plain)}"
          f" attempted={attempted} failed={failed} correct={correct}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
