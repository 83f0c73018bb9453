"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests

Their main job is to show that the output checks can fail: each doctored
transcript or ledger below must be rejected, at the tick that was doctored.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import scripts  # noqa: E402
import workload  # noqa: E402
from chainmeet import ledger, sim  # noqa: E402

TINY = {
    "media": {"members": 4, "senders": 3, "packets": 30, "cycles": 2, "attacks": 1},
    "directory": {"registry": 30, "meetings": 2, "members": 3, "packets": (2, 2, 2)},
}


def tiny(name: str, seed: int = 5):
    script = scripts.generate(name, seed, **TINY[name])
    simulation = sim.Simulation(sim.parse_scenario(script.text())).run()
    return script, simulation


def problems_of(script, simulation, transcript=None):
    ivk_of = {user: actor.keypair.ivk for user, actor in simulation.actors.items()}
    return checks.check_transcript(
        script, simulation.transcript if transcript is None else transcript, ivk_of
    )


def doctor(transcript, kind: str, match, **changes):
    """Replace the first event of `kind` for which match(event) holds; a
    callable change is applied to the event's old value."""
    for i, event in enumerate(transcript):
        if type(event).__name__ == kind and match(event):
            new = {k: v(getattr(event, k)) if callable(v) else v for k, v in changes.items()}
            return transcript[:i] + [dataclasses.replace(event, **new)] + transcript[i + 1:], event
    raise AssertionError(f"no {kind} to doctor")


@pytest.mark.parametrize("name", sorted(TINY))
def test_honest_tiny_runs_pass_every_check(name):
    script = scripts.generate(name, 5, **TINY[name])
    result = workload.plain_run(script, digest=True)
    assert result["problems"] == []
    assert len(result["distribute_s"]) == sum(a.action == "distribute" for a in script.actions)
    assert len(result["packet_s"]) == sum(a.action == "packet" for a in script.actions)


def test_same_seed_same_script_and_other_seed_other_script():
    assert scripts.generate("directory", 3).text() == scripts.generate("directory", 3).text()
    assert scripts.generate("media", 3).text() != scripts.generate("media", 4).text()


def test_skipped_epoch_is_rejected():
    script, simulation = tiny("media")
    transcript, event = doctor(
        simulation.transcript, "KeyEpochEvent", lambda e: e.epoch == 2, epoch=3
    )
    problems = problems_of(script, simulation, transcript)
    assert [p.tick for p in problems] == [event.tick]
    assert checks.failed_actions(problems, len(script.actions)) == 1


def test_missing_key_entry_is_rejected():
    script, simulation = tiny("directory")
    transcript, event = doctor(
        simulation.transcript, "KeyEpochEvent", lambda e: len(e.recipients) > 1,
        recipients=lambda old: old[1:],
    )
    assert {p.tick for p in problems_of(script, simulation, transcript)} == {event.tick}


def test_extra_successful_ghost_decrypt_is_rejected():
    script, simulation = tiny("media")
    transcript, event = doctor(
        simulation.transcript, "DecryptEvent", lambda e: e.ghost and not e.ok, ok=True
    )
    problems = problems_of(script, simulation, transcript)
    assert {p.tick for p in problems} == {event.tick}
    assert any("departed" in p.text for p in problems)


def test_failed_member_decrypt_is_rejected():
    script, simulation = tiny("media")
    transcript, event = doctor(
        simulation.transcript, "DecryptEvent",
        lambda e: not e.ghost and not e.tampered and e.ok, ok=False,
    )
    assert {p.tick for p in problems_of(script, simulation, transcript)} == {event.tick}


def test_accepted_tamper_probe_is_rejected():
    script, simulation = tiny("media")
    transcript, event = doctor(
        simulation.transcript, "DecryptEvent", lambda e: e.tampered, ok=True
    )
    assert {p.tick for p in problems_of(script, simulation, transcript)} == {event.tick}


def test_nonce_off_the_counter_is_rejected():
    script, simulation = tiny("media")
    transcript, event = doctor(
        simulation.transcript, "PacketEvent", lambda e: e.counter == 1,
        nonce=bytes(12),
    )
    problems = problems_of(script, simulation, transcript)
    assert {p.tick for p in problems} == {event.tick}
    assert any("nonce" in p.text for p in problems)


def test_refused_honest_transaction_is_rejected():
    script, simulation = tiny("directory")
    transcript, event = doctor(
        simulation.transcript, "TxEvent", lambda e: e.honest and e.action == "leave",
        ok=False,
    )
    assert {p.tick for p in problems_of(script, simulation, transcript)} == {event.tick}


def test_successful_attack_is_rejected():
    script, simulation = tiny("media")
    transcript, event = doctor(
        simulation.transcript, "AdversaryEvent", lambda e: e.attack == "replay_request",
        failed=False,
    )
    assert {p.tick for p in problems_of(script, simulation, transcript)} == {event.tick}


def test_failed_goal_fails_the_whole_run():
    script, simulation = tiny("media")
    transcript, _ = doctor(
        simulation.transcript, "CheckEvent", lambda e: e.name == "nonces-unique", ok=False
    )
    problems = problems_of(script, simulation, transcript)
    assert any(p.tick is None for p in problems)
    assert checks.failed_actions(problems, len(script.actions)) == len(script.actions)


def test_rewritten_ledger_block_is_rejected():
    _, simulation = tiny("media")
    blocks = list(simulation.meeting_ledger.blocks)
    assert checks.check_ledgers({"meeting": blocks}) == []
    target = blocks[3]
    tx = target.txs[0]
    forged = dataclasses.replace(tx, body=tx.body[:-1] + bytes([tx.body[-1] ^ 1]))
    blocks[3] = dataclasses.replace(target, txs=(forged,) + target.txs[1:])
    assert checks.check_ledgers({"meeting": blocks})
    relinked = ledger.make_block(target.index, target.prev_hash, target.timestamp, blocks[3].txs)
    blocks[3] = relinked
    assert any("link" in p.text for p in checks.check_ledgers({"meeting": blocks}))


def test_block_bytes_match_the_program_layout():
    _, simulation = tiny("directory")
    for block in simulation.identity_ledger.blocks + simulation.meeting_ledger.blocks:
        assert checks.block_bytes(block) == block.canonical_bytes()


def test_stamps_must_cover_every_event_once():
    events = tuple(range(3))
    stamps = workload.StampedEvents(events)
    list(stamps)
    checks.check_stamps(stamps, events)
    with pytest.raises(RuntimeError):
        checks.check_stamps(stamps, events + (3,))
    list(stamps)
    with pytest.raises(RuntimeError):
        checks.check_stamps(stamps, events)
    partial = workload.StampedEvents(events)
    next(iter(partial))
    with pytest.raises(RuntimeError):
        checks.check_stamps(partial, events)


def test_traced_run_matches_untraced_and_restores_the_program():
    script = scripts.generate("directory", 7, **TINY["directory"])
    plain = workload.plain_run(script, digest=True)
    originals = (sim.parse_scenario, ledger.Ledger.append_block, ledger.dump_hex_lines)
    traced = workload.traced_run(script)
    assert (sim.parse_scenario, ledger.Ledger.append_block, ledger.dump_hex_lines) == originals
    assert traced["problems"] == []
    assert traced["transcript_sha256"] == plain["transcript_sha256"]
    metrics = traced["metrics"]
    _, layer_units = run.load_units()
    assert set(metrics) | {"trace.overhead_s"} == set(layer_units)
    for name in ("meeting.verdict.calls", "sim.action.reassign.ms", "cli.inspect.ms",
                 "crypto.keygen.calls", "encoding.take.calls", "ledger.txs_scanned"):
        assert metrics[name] > 0, name


def test_metric_not_named_in_the_benchmark_is_refused():
    units = {"run_s": "s"}
    assert run.with_units({"run_s": 1.5}, units) == {"run_s": {"value": 1.5, "unit": "s"}}
    with pytest.raises(SystemExit):
        run.with_units({"run_s": 1.5, "other_s": 2.0}, units)
    with pytest.raises(SystemExit):
        run.with_units({}, units)


def test_timings_are_the_fastest_of_each_action_over_rounds():
    def round_(spawned, first, run_s, distribute, packets):
        return {"spawned_at": spawned, "first_event_at": first, "run_s": run_s,
                "distribute_s": distribute, "packet_s": packets, "peak_rss_mb": 30.0}

    slow_first = [0.004] * 5 + [0.001] * 5
    slow_last = [0.001] * 5 + [0.004] * 5
    rounds = [round_(0.0, 0.5, 3.0, [0.02, 0.05, 0.03], slow_first),
              round_(4.0, 4.3, 2.0, [0.04, 0.01, 0.03], slow_last)]
    metrics = run.end_to_end(rounds)
    assert metrics["setup_s"] == pytest.approx(0.3)
    assert metrics["run_s"] == 2.0
    # per action: 0.02, 0.01, 0.03, whereas each round's own median is 0.03
    assert metrics["rekey_ms_p50"] == pytest.approx(20.0)
    assert metrics["packet_us_p50"] == pytest.approx(1000.0)
    assert metrics["packet_us_p90"] == pytest.approx(1000.0)
    with pytest.raises(SystemExit):
        run.end_to_end(rounds + [round_(8.0, 8.3, 2.0, [0.01], slow_last)])


def test_traced_transcript_that_differs_fails_its_actions(monkeypatch, capsys):
    _, layer_units = run.load_units()

    def fake_spawn(args, mode, deadline, *extra):
        return {"attempted": 10, "failed": 0, "problems": [], "run_s": 1.0,
                "transcript_sha256": mode, "metrics": dict.fromkeys(layer_units, 1.0)}

    monkeypatch.setattr(run, "spawn", fake_spawn)
    code = run.main(["--workload", "media", "--seed", "1", "--seconds", "1", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    # every round is one untraced and one traced run of ten actions each
    assert not result["correct"]
    assert result["failed"] > 0 and result["attempted"] == 2 * result["failed"]


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "media", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_runner_prints_every_end_to_end_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "media", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
