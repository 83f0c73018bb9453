"""One scripted run of one workload, in a process of its own.

    python3 perfbench/workload.py --workload media --seed 1 --mode plain
    python3 perfbench/workload.py --workload media --seed 1 --mode traced

`plain` runs the generated script through `sim.Simulation(...).run()` with
no tracing, times every scripted action from outside and checks the
outputs. `traced` writes the script to a file, runs it through
`chainmeet run --persist --out` and `chainmeet inspect` (in-process
`cli.main`) with every layer wrapped, and reports per-layer metrics. Either
way the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import traceback
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [SRC, HERE]

import checks  # noqa: E402
import scripts  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


class StampedEvents:
    """The scenario's events, reading the clock as the simulator takes each.

    `times[i]` is when event i was taken and `end` when the simulator asked
    for one more after the last, so action i lasted `times[i+1] - times[i]`.
    With a tracer, each action is also a span `sim.action.<kind>`.
    """

    def __init__(self, events, tracer=None):
        self.events = tuple(events)
        self.tracer = tracer
        self.times: list[float] = []
        self.end = None
        self.passes = 0

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        self.passes += 1
        tracer = self.tracer
        for event in self.events:
            span = None
            if tracer is not None:
                kind = "attack" if event.action.startswith("adversary.") else event.action
                span = tracer.open(f"sim.action.{kind}")
            self.times.append(monotonic())
            yield event
            if span is not None:
                tracer.close(span)
        self.end = monotonic()

    def durations(self) -> list[float]:
        bounds = self.times + [self.end]
        return [b - a for a, b in zip(bounds, bounds[1:])]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def plain_run(script, digest: bool = False) -> dict:
    from chainmeet import sim

    parsed = sim.parse_scenario(script.text())
    stamps = StampedEvents(parsed.events)
    simulation = sim.Simulation(sim.Scenario(parsed.seed, parsed.rule, parsed.actors, stamps))
    simulation.run()
    done = monotonic()
    rss = peak_rss_mb()
    checks.check_stamps(stamps, script.actions)

    ivk_of = {user: actor.keypair.ivk for user, actor in simulation.actors.items()}
    problems = checks.check_transcript(script, simulation.transcript, ivk_of)
    problems += checks.check_ledgers(
        {
            "identity": simulation.identity_ledger.blocks,
            "meeting": simulation.meeting_ledger.blocks,
        }
    )
    by_kind: dict[str, list[float]] = {}
    for action, seconds in zip(script.actions, stamps.durations()):
        by_kind.setdefault(action.kind, []).append(seconds)
    result = {
        "first_event_at": stamps.times[0],
        "run_s": done - stamps.times[0],
        "distribute_s": by_kind.get("distribute", []),
        "packet_s": by_kind.get("packet", []),
        "peak_rss_mb": rss,
        "problems": problems,
    }
    if digest:
        text = sim.render_transcript(simulation)
        result["transcript_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return result


def traced_run(script) -> dict:
    modules = {layer: importlib.import_module(f"chainmeet.{layer}") for layer in LAYERS}
    sim, cli = modules["sim"], modules["cli"]
    os.makedirs(OUT, exist_ok=True)
    base = os.path.join(OUT, script.workload)
    scenario_path, transcript_path, persist = base + ".scenario.txt", base + ".transcript.txt", base + ".ledgers"
    with open(scenario_path, "w", encoding="utf-8") as handle:
        handle.write(script.text())

    tracer = Tracer()
    tracer.install(modules)
    seen = {}
    parse, run_scenario = sim.parse_scenario, sim.run_scenario

    def stamped_parse(text):
        parsed = parse(text)
        seen["stamps"] = StampedEvents(parsed.events, tracer)
        return sim.Scenario(parsed.seed, parsed.rule, parsed.actors, seen["stamps"])

    def watched_run(scenario):
        seen["simulation"] = run_scenario(scenario)
        seen["done"] = monotonic()
        return seen["simulation"]

    tracer.patch(sim, "parse_scenario", stamped_parse)
    tracer.patch(sim, "run_scenario", watched_run)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            run_code = cli.main(
                ["run", "--scenario", scenario_path, "--persist", persist, "--out", transcript_path]
            )
            inspect_code = cli.main(["inspect", "--persist", persist])
    finally:
        tracer.uninstall()
    stamps, simulation = seen["stamps"], seen["simulation"]
    checks.check_stamps(stamps, script.actions)
    tracer.write(base + ".spans.tsv")

    transcript = simulation.transcript
    admitted = sum(
        1 for e in transcript
        if type(e).__name__ == "TxEvent" and e.ok and e.action != "register"
    )
    metrics = tracer.metrics(admitted)
    run_start = min(
        tracer.start[i] for i in range(len(tracer.start))
        if tracer.names[tracer.name[i]] == "sim.Simulation.run"
    )
    metrics["sim.register.ms"] = (stamps.times[0] - run_start) * 1e3
    metrics["sim.events"] = len(transcript)
    metrics["sim.validate_events"] = sum(
        1 for e in transcript if type(e).__name__ == "ValidateEvent"
    )
    metrics["ledger.persisted_kb"] = sum(
        os.path.getsize(os.path.join(persist, name)) for name in os.listdir(persist)
    ) / 1024
    with open(transcript_path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    problems = []
    if run_code != 0 or inspect_code != 0:
        problems.append(checks.Problem(None, f"cli run exit {run_code}, inspect exit {inspect_code}"))
    return {
        "run_s": seen["done"] - stamps.times[0],
        "metrics": metrics,
        "transcript_sha256": digest,
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(scripts.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), default="plain")
    parser.add_argument("--digest", action="store_true",
                        help="report the SHA-256 of the rendered transcript")
    args = parser.parse_args(argv)

    import chainmeet

    if not os.path.abspath(chainmeet.__file__).startswith(SRC + os.sep):
        print(f"chainmeet imported from {chainmeet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    script = scripts.generate(args.workload, args.seed)
    try:
        if args.mode == "plain":
            result = plain_run(script, args.digest)
        else:
            result = traced_run(script)
    except Exception:
        traceback.print_exc()
        result = {"problems": [checks.Problem(None, "the run raised an exception")]}
    problems = result.pop("problems")
    for problem in problems[:20]:
        print(f"problem at tick {problem.tick}: {problem.text}", file=sys.stderr)
    result["attempted"] = len(script.actions)
    result["failed"] = checks.failed_actions(problems, len(script.actions))
    result["problems"] = [list(p) for p in problems[:20]]
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
