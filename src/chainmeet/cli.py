"""Command-line front end: run scenarios, dump ledgers, emit test vectors.

Exit codes: 0 on success, 1 when a run's goal checks fail, 2 for usage or
input problems. A scenario that scripts an action the protocol refuses to
take (a packet before the sender holds a key, a rekey with no membership
change) is an input problem: every ChainmeetError exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import crypto, identity as identity_mod, meeting as m, sim
from .encoding import U64_MAX, u32
from .errors import ChainmeetError, EncodingError, InvalidTransaction
from .ledger import LedgerKind, TxTag, dump_hex_lines, load_hex_lines
from .rng import DeterministicRng

VECTOR_SEED = 7  # fixed so the emitted vectors never drift between runs

IDENTITY_FILE = "identity.ledger"
MEETING_FILE = "meeting.ledger"


# ---------------------------------------------------------------------------
# run / goals


def _load(args) -> sim.Scenario:
    scenario = sim.parse_scenario(sim.load_scenario_text(args.scenario))
    if args.seed is not None:
        scenario = sim.Scenario(
            args.seed, scenario.rule, scenario.actors, scenario.events
        )
    return scenario


def cmd_run(args) -> int:
    simulation = sim.run_scenario(_load(args))
    text = sim.render_transcript(simulation)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.persist:
        os.makedirs(args.persist, exist_ok=True)
        for filename, ledger in (
            (IDENTITY_FILE, simulation.identity_ledger),
            (MEETING_FILE, simulation.meeting_ledger),
        ):
            path = os.path.join(args.persist, filename)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(dump_hex_lines(ledger)) + "\n")
    return 0 if simulation.report.ok else 1


def cmd_goals(args) -> int:
    simulation = sim.run_scenario(_load(args))
    report = simulation.report
    for check in report.check_events()[:-1]:  # all but the all-goals line
        print(f"{check.name}: {'pass' if check.ok else 'FAIL'}")
    for violation in report.violations:
        print(f"violation: {violation}")
    print(f"note: {report.note}")
    print(f"result: {'pass' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# inspect


def cmd_inspect(args) -> int:
    # each ledger is re-admitted as it loads, the meeting ledger against the
    # identity ledger loaded before it; the first refusal is named and exits 2
    state = identity_mod.IdentityState()
    for filename, kind in (
        (IDENTITY_FILE, LedgerKind.IDENTITY),
        (MEETING_FILE, LedgerKind.MEETING),
    ):
        path = os.path.join(args.persist, filename)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except UnicodeDecodeError:
            raise EncodingError(f"{kind.value} ledger: not UTF-8 text") from None
        try:
            ledger = load_hex_lines(kind, lines, state)
        except InvalidTransaction as exc:
            block, pos = exc.at
            detail = f" {exc.detail}" if exc.detail else ""
            print(f"ledger={kind.value} block={block} pos={pos} reason={exc.reason}{detail}",
                  file=sys.stderr)
            return 2  # the files are input, and they do not re-admit
        print(f"ledger={kind.value} blocks={len(ledger.blocks)}")
        for block_index, _, tx in ledger.iter_txs():
            print(
                f"block={block_index} tag={TxTag(tx.tag).name}"
                f" signer={tx.signer.hex()[:8]} body={tx.body.hex()}"
            )
        state = m.MeetingState(ledger)  # the meeting ledger's, over this one
    return 0


# ---------------------------------------------------------------------------
# vectors


def _record(op: str, **fields: bytes) -> str:
    lines = [f"op={op}"]
    lines.extend(f"{name}={value.hex()}" for name, value in fields.items())
    return "\n".join(lines)


def make_vectors() -> str:
    """Deterministic known-answer records covering every primitive in use."""
    rng = DeterministicRng(VECTOR_SEED)
    records = []

    identity = crypto.identity_keygen(rng)
    message = rng.take(40)
    records.append(
        _record(
            "ed25519_sign",
            secret=identity.isk,
            public=identity.ivk,
            message=message,
            signature=crypto.sign(identity, message),
        )
    )

    pair_a = crypto.ephemeral_keygen(rng)
    pair_b = crypto.ephemeral_keygen(rng)
    records.append(
        _record(
            "x25519_dh",
            scalar_a=pair_a.esk,
            public_a=pair_a.epk,
            scalar_b=pair_b.esk,
            public_b=pair_b.epk,
            shared=crypto.dh(pair_a, pair_b.epk),
        )
    )

    ikm, info = rng.take(32), rng.take(24)
    records.append(
        _record(
            "hkdf_sha256",
            ikm=ikm,
            info=info,
            okm=crypto.derive_enc_key(ikm, info),
        )
    )

    data = rng.take(55)
    records.append(_record("sha256", data=data, digest=crypto.sha256(data)))

    meeting_key, stream_id = rng.take(32), 3
    records.append(
        _record(
            "hmac_stream_key",
            meeting_key=meeting_key,
            stream_id=u32(stream_id),
            stream_key=m.derive_stream_key(meeting_key, stream_id),
        )
    )

    # the full member wrap: DH -> HKDF over the bound context -> AEAD with
    # the recipient pinned in the associated data
    leader_eph = crypto.ephemeral_keygen(rng)
    member_eph = crypto.ephemeral_keygen(rng)
    meeting_id, epoch = rng.take(m.MEETING_ID_LEN), 2
    recipient_ivk = rng.take(32)
    wrap_key = crypto.derive_enc_key(
        crypto.dh(leader_eph, member_eph.epk),
        m.kdf_context(meeting_id, epoch, leader_eph.epk, member_eph.epk),
    )
    nonce = rng.take(crypto.NONCE_LEN)
    box = crypto.aead_encrypt(
        wrap_key, nonce, meeting_key, m.wrap_aad(meeting_id, epoch, recipient_ivk)
    )
    records.append(
        _record(
            "meeting_key_wrap",
            leader_esk=leader_eph.esk,
            leader_epk=leader_eph.epk,
            member_esk=member_eph.esk,
            member_epk=member_eph.epk,
            meeting_id=meeting_id,
            epoch=u32(epoch),
            recipient_ivk=recipient_ivk,
            meeting_key=meeting_key,
            nonce=nonce,
            ciphertext=box.ciphertext,
            tag=box.tag,
        )
    )

    ledger = identity_mod.new_identity_ledger()
    ledger.append_block(
        [identity_mod.register_identity("vector", "device", identity)], timestamp=1
    )
    for block in ledger.blocks:
        records.append(
            _record(
                "block_hash",
                block_bytes=block.encode(),
                block_hash=block.block_hash,
            )
        )

    return "\n\n".join(records) + "\n"


def cmd_vectors(args) -> int:
    text = make_vectors()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def parse_vectors(text: str) -> list[dict[str, bytes]]:
    """Inverse of make_vectors' format: list of {field: raw bytes} with 'op'."""
    records = []
    for chunk in text.strip().split("\n\n"):
        fields: dict[str, bytes] = {}
        for line in chunk.splitlines():
            name, _, value = line.partition("=")
            fields[name] = value.encode() if name == "op" else bytes.fromhex(value)
        records.append(fields)
    return records


# ---------------------------------------------------------------------------
# entry point


def _seed(text: str) -> int:
    """--seed takes an unsigned 64-bit integer, like a scenario's seed line."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= seed <= U64_MAX:
        raise argparse.ArgumentTypeError(f"{seed} does not fit in 64 unsigned bits")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainmeet",
        description="decentralized end-to-end encrypted meetings, simulated",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and print its transcript")
    run.add_argument("--scenario", required=True,
                     help="scenario file path or bundled name")
    run.add_argument("--seed", type=_seed, default=None,
                     help="override the scenario's seed")
    run.add_argument("--out", default=None, help="write the transcript here")
    run.add_argument("--persist", default=None,
                     help="directory for the ledgers after the run")
    run.set_defaults(func=cmd_run)

    goals = sub.add_parser("goals", help="run a scenario and report goal checks")
    goals.add_argument("--scenario", required=True)
    goals.add_argument("--seed", type=_seed, default=None)
    goals.set_defaults(func=cmd_goals)

    inspect = sub.add_parser("inspect", help="dump persisted ledgers")
    inspect.add_argument("--persist", required=True,
                         help="directory holding the ledger files")
    inspect.set_defaults(func=cmd_inspect)

    vectors = sub.add_parser("vectors", help="emit known-answer test vectors")
    vectors.add_argument("--out", default=None)
    vectors.set_defaults(func=cmd_vectors)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ChainmeetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
