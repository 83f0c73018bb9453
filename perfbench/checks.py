"""Output checks made apart from the program.

`check_transcript` holds a run's transcript against the outcome the script
generator's own model predicts for every action; `check_ledgers` recomputes
every block hash and link with hashlib; `check_stamps` makes sure the clock
read each scripted event exactly once. Each finding is a `Problem` naming
the scripted tick it belongs to, or tick None when it concerns the whole run.
"""

from __future__ import annotations

import hashlib
import struct
from collections import defaultdict
from typing import NamedTuple, Optional

GOALS = (
    "confidentiality",
    "integrity",
    "availability",
    "expulsion",
    "attacks-frustrated",
    "epochs-contiguous",
    "nonces-unique",
    "all-goals",
)


class Problem(NamedTuple):
    tick: Optional[int]
    text: str


def failed_actions(problems: list[Problem], attempted: int) -> int:
    """Scripted actions that count as failed: one per tick with a problem,
    or all of them when a problem concerns the whole run."""
    if any(p.tick is None for p in problems):
        return attempted
    return len({p.tick for p in problems})


def _by_kind(events) -> dict[str, list]:
    kinds = defaultdict(list)
    for event in events:
        kinds[type(event).__name__].append(event)
    return kinds


def check_transcript(script, transcript, ivk_of: dict[str, bytes]) -> list[Problem]:
    problems: list[Problem] = []
    by_tick: dict[int, list] = defaultdict(list)
    goals = []
    for event in transcript:
        if type(event).__name__ == "CheckEvent":
            goals.append(event)
        else:
            by_tick[event.tick].append(event)

    registered = _by_kind(by_tick.pop(0, [])).get("TxEvent", [])
    if len(registered) != len(script.actors) or not all(e.ok for e in registered):
        problems.append(Problem(None, "identity registration incomplete"))

    for action in script.actions:
        for text in _check_action(action, _by_kind(by_tick.pop(action.tick, [])), ivk_of):
            problems.append(Problem(action.tick, f"{action.action}: {text}"))
    for tick in sorted(by_tick):
        problems.append(Problem(tick, "events at a tick the script does not have"))

    names = [g.name for g in goals]
    if names != list(GOALS):
        problems.append(Problem(None, f"goal checks {names}"))
    for goal in goals:
        if not goal.ok:
            problems.append(Problem(None, f"goal {goal.name} failed: {goal.detail}"))
    return problems


def _check_action(action, kinds: dict, ivk_of: dict) -> list[str]:
    expect = action.expect
    out = []

    honest = [e for e in kinds.get("TxEvent", []) if e.honest]
    if len(honest) != expect.honest_txs:
        out.append(f"{len(honest)} honest transactions, expected {expect.honest_txs}")
    out += [f"honest {e.tag} refused ({e.reason})" for e in honest if not e.ok]

    epochs = [
        (e.meeting, e.epoch, e.leader, frozenset(e.recipients))
        for e in kinds.get("KeyEpochEvent", [])
    ]
    wanted = [
        (m, epoch, leader, frozenset(ivk_of[u] for u in recipients))
        for m, epoch, leader, recipients in expect.epochs
    ]
    if epochs != wanted:
        out.append(
            "key epochs " + str([(m, e, len(r)) for m, e, _, r in epochs])
            + " expected " + str([(m, e, len(r)) for m, e, _, r in wanted])
        )
    accepts = kinds.get("AcceptKeyEvent", [])
    if len(accepts) != sum(len(r) for _, _, _, r in expect.epochs):
        out.append(f"{len(accepts)} members took the new key")
    out += [f"{e.actor} could not unwrap epoch {e.epoch}" for e in accepts if not e.ok]

    out += _check_packet(expect.packet, kinds)

    departures = [(e.actor, e.meeting, e.epoch_at_leave) for e in kinds.get("DepartureEvent", [])]
    if departures != ([expect.departure] if expect.departure else []):
        out.append(f"departures {departures}, expected {expect.departure}")

    attacks = [e.attack for e in kinds.get("AdversaryEvent", [])]
    if sorted(attacks) != sorted(expect.attacks):
        out.append(f"attacks {attacks}, expected {expect.attacks}")
    out += [
        f"attack {e.attack} succeeded: {e.detail}"
        for e in kinds.get("AdversaryEvent", [])
        if not e.failed
    ]
    return out


def _check_packet(expect, kinds: dict) -> list[str]:
    packets = kinds.get("PacketEvent", [])
    decrypts = kinds.get("DecryptEvent", [])
    if expect is None:
        return ["unexpected media"] if packets or decrypts else []
    if len(packets) != 1:
        return [f"{len(packets)} packets sent, expected 1"]
    (p,) = packets
    out = []
    got = (p.meeting, p.stream, p.epoch, p.counter, p.nbytes)
    want = (expect.meeting, expect.stream, expect.epoch, expect.counter, expect.nbytes)
    if got != want:
        out.append(f"packet (m, stream, epoch, ctr, bytes) {got}, expected {want}")
    if p.nonce != struct.pack(">IQ", expect.epoch, expect.counter):
        out.append(f"nonce {p.nonce.hex()} is not epoch {expect.epoch} ctr {expect.counter}")

    members = {e.actor: e.ok for e in decrypts if not e.ghost and not e.tampered}
    if members != expect.members:
        out.append(f"member decrypts {members}, expected {expect.members}")

    ghosts = [(e.actor, e.epoch_at_leave, e.ok) for e in decrypts if e.ghost]
    out += [
        f"departed {actor} (left at epoch {left}) read epoch {expect.epoch}"
        for actor, left, ok in ghosts
        if ok and left is not None and expect.epoch > left
    ]
    if ghosts != list(expect.ghosts):
        out.append(f"ghost decrypts {ghosts}, expected {list(expect.ghosts)}")

    tampered = [e for e in decrypts if e.tampered]
    if len(tampered) != int(expect.probe):
        out.append(f"{len(tampered)} tamper probes, expected {int(expect.probe)}")
    out += [f"{e.actor} accepted a tampered packet" for e in tampered if e.ok]
    return out


def block_bytes(block) -> bytes:
    """The block layout of ledger.py's docstring, written out independently."""
    out = struct.pack(">Q", block.index) + block.prev_hash
    out += struct.pack(">QI", block.timestamp, len(block.txs))
    for tx in block.txs:
        out += struct.pack(">BI", tx.tag, len(tx.body)) + tx.body + tx.signature
    return out


def check_ledgers(ledgers: dict[str, list]) -> list[Problem]:
    problems = []
    for name, blocks in ledgers.items():
        prev = bytes(32)
        for position, block in enumerate(blocks):
            where = f"{name} ledger block {position}"
            if block.index != position:
                problems.append(Problem(None, f"{where} has index {block.index}"))
            if block.prev_hash != prev:
                problems.append(Problem(None, f"{where} does not link to its predecessor"))
            if hashlib.sha256(block_bytes(block)).digest() != block.block_hash:
                problems.append(Problem(None, f"{where} hash does not match its bytes"))
            prev = block.block_hash
    return problems


def check_stamps(stamps, events) -> None:
    """Raise unless the clock read every scripted event exactly once."""
    if stamps.passes != 1:
        raise RuntimeError(f"the simulator read its events {stamps.passes} times")
    if len(stamps.times) != len(events) or stamps.end is None:
        raise RuntimeError(
            f"{len(stamps.times)} stamps for {len(events)} events"
            + ("" if stamps.end is not None else ", and no end stamp")
        )
