"""Command line: vectors against reference implementations, run/inspect flows."""

import hashlib
import hmac as stdlib_hmac

import pytest

import oracles
from chainmeet import cli, crypto, identity as ident, meeting as m, sim
from chainmeet.ledger import (
    LedgerKind, TxTag, dump_hex_lines, load_hex_lines, make_block, parse_block,
)
from chainmeet.rng import DeterministicRng
from test_state import forged

FAILING_SCENARIO = """\
seed 5
actor alice laptop
actor bob phone
tick 1 alice publish doomed
tick 2 bob request
tick 3 bob request
"""


def vectors_by_op():
    records = cli.parse_vectors(cli.make_vectors())
    grouped = {}
    for record in records:
        grouped.setdefault(record["op"].decode(), []).append(record)
    return grouped


def test_vectors_are_deterministic():
    assert cli.make_vectors() == cli.make_vectors()


def test_vectors_command_writes_or_prints_the_vectors(tmp_path, capsys):
    path = tmp_path / "vectors.txt"
    assert cli.main(["vectors", "--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == cli.make_vectors()
    assert capsys.readouterr().out == ""
    assert cli.main(["vectors"]) == 0
    assert capsys.readouterr().out == cli.make_vectors()


def test_ed25519_vector_matches_reference():
    (rec,) = vectors_by_op()["ed25519_sign"]
    assert oracles.ed25519_public(rec["secret"]) == rec["public"]
    assert oracles.ed25519_sign(rec["secret"], rec["message"]) == rec["signature"]


def test_x25519_vector_matches_reference():
    (rec,) = vectors_by_op()["x25519_dh"]
    assert oracles.x25519_public(rec["scalar_a"]) == rec["public_a"]
    assert oracles.x25519_public(rec["scalar_b"]) == rec["public_b"]
    shared_ab = oracles.x25519(rec["scalar_a"], rec["public_b"])
    shared_ba = oracles.x25519(rec["scalar_b"], rec["public_a"])
    assert shared_ab == shared_ba == rec["shared"]


def test_hkdf_vector_matches_reference():
    (rec,) = vectors_by_op()["hkdf_sha256"]
    assert oracles.hkdf_sha256(rec["ikm"], b"", rec["info"], 32) == rec["okm"]


def test_sha256_vector_matches_reference():
    (rec,) = vectors_by_op()["sha256"]
    assert hashlib.sha256(rec["data"]).digest() == rec["digest"]


def test_stream_key_vector_matches_reference():
    (rec,) = vectors_by_op()["hmac_stream_key"]
    expected = stdlib_hmac.new(
        rec["meeting_key"], rec["stream_id"], hashlib.sha256
    ).digest()
    assert expected == rec["stream_key"]


def test_wrap_vector_matches_reference_end_to_end():
    """The whole member-wrap pipeline recomputed with reference primitives."""
    (rec,) = vectors_by_op()["meeting_key_wrap"]
    shared = oracles.x25519(rec["leader_esk"], rec["member_epk"])
    assert shared == oracles.x25519(rec["member_esk"], rec["leader_epk"])
    context = (
        rec["meeting_id"] + rec["epoch"] + rec["leader_epk"] + rec["member_epk"]
    )
    wrap_key = oracles.hkdf_sha256(shared, b"", context, 32)
    aad = rec["meeting_id"] + rec["epoch"] + rec["recipient_ivk"]
    ciphertext, tag = oracles.aes256gcm_encrypt(
        wrap_key, rec["nonce"], rec["meeting_key"], aad
    )
    assert (ciphertext, tag) == (rec["ciphertext"], rec["tag"])


def test_block_hash_vectors_match_reference():
    records = vectors_by_op()["block_hash"]
    assert len(records) == 2  # genesis plus one payload block
    for rec in records:
        assert hashlib.sha256(rec["block_bytes"]).digest() == rec["block_hash"]


# ---------------------------------------------------------------------------
# run / goals / inspect


def test_run_writes_reproducible_transcript(tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    assert cli.main(["run", "--scenario", "honest", "--out", str(first)]) == 0
    assert cli.main(["run", "--scenario", "honest", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    reseeded = tmp_path / "c.txt"
    assert (
        cli.main(
            ["run", "--scenario", "honest", "--seed", "31415", "--out", str(reseeded)]
        )
        == 0
    )
    assert reseeded.read_bytes() != first.read_bytes()


def test_run_to_stdout(capsys):
    assert cli.main(["run", "--scenario", "eavesdrop"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "[t=end] check name=all-goals ok=1"


def test_run_persist_and_inspect(tmp_path, capsys):
    store = tmp_path / "ledgers"
    assert (
        cli.main(
            ["run", "--scenario", "leave_rekey", "--out",
             str(tmp_path / "t.txt"), "--persist", str(store)]
        )
        == 0
    )
    identity = load_hex_lines(
        LedgerKind.IDENTITY, (store / "identity.ledger").read_text().splitlines()
    )
    meeting = load_hex_lines(
        LedgerKind.MEETING, (store / "meeting.ledger").read_text().splitlines()
    )
    assert identity.verify_chain() and meeting.verify_chain()

    assert cli.main(["inspect", "--persist", str(store)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "ledger=identity blocks=2" in lines[0]
    body_lines = [l for l in lines if l.startswith("block=")]
    assert body_lines, "inspect printed no transactions"
    for line in body_lines:
        fields = dict(part.split("=", 1) for part in line.split())
        assert fields["tag"]
        assert len(fields["signer"]) == 8
        bytes.fromhex(fields["body"])  # must be valid hex
    tags = [l.split()[1] for l in body_lines]
    assert "tag=MEETING_LEAVE" in tags and "tag=KEY_DISTRIBUTION" in tags


def test_inspect_refuses_a_forged_registration(tmp_path, capsys):
    store = tmp_path / "ledgers"
    assert cli.main(["run", "--scenario", "honest", "--out",
                     str(tmp_path / "t.txt"), "--persist", str(store)]) == 0
    path = store / "identity.ledger"
    lines = forged(path.read_text().splitlines(), TxTag.IDENTITY,
                   lambda body: body.replace(b"alice", b"blice"))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["inspect", "--persist", str(store)]) == 2
    assert "bad_signature" in capsys.readouterr().err


def test_inspect_names_the_binding_a_duplicate_registration_claims(tmp_path, capsys):
    store = tmp_path / "ledgers"
    assert cli.main(["run", "--scenario", "honest", "--out",
                     str(tmp_path / "t.txt"), "--persist", str(store)]) == 0
    path = store / "identity.ledger"
    lines = path.read_text().splitlines()
    head = parse_block(bytes.fromhex(lines[-1]))
    # validly signed by a key of its own, but alice's binding is taken
    squatter = crypto.identity_keygen(DeterministicRng(1))
    duplicate = make_block(
        head.index + 1, head.block_hash, head.timestamp,
        (ident.register_identity("alice", "laptop", squatter),),
    )
    path.write_text("\n".join(lines + [duplicate.encode().hex()]) + "\n")
    capsys.readouterr()
    assert cli.main(["inspect", "--persist", str(store)]) == 2
    assert (
        f"ledger=identity block={duplicate.index} pos=0"
        " reason=duplicate_binding (alice, laptop)"
    ) in capsys.readouterr().err


def test_goals_reports_each_goal(capsys):
    assert cli.main(["goals", "--scenario", "mix_keys"]) == 0
    out = capsys.readouterr().out
    for name in (
        "confidentiality", "integrity", "availability", "expulsion",
        "attacks-frustrated", "epochs-contiguous", "nonces-unique",
    ):
        assert f"{name}: pass" in out
    assert "result: pass" in out
    assert "note: availability is reduced to admission" in out


def test_failed_goals_exit_one(tmp_path, capsys):
    path = tmp_path / "fail.txt"
    path.write_text(FAILING_SCENARIO)
    assert cli.main(["goals", "--scenario", str(path)]) == 1
    out = capsys.readouterr().out
    assert "availability: FAIL" in out
    assert "result: FAIL" in out
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "t")]) == 1


def test_usage_and_input_errors_exit_two(tmp_path, capsys):
    assert cli.main(["run", "--scenario", "does_not_exist"]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["inspect", "--persist", str(tmp_path / "empty")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("tick nonsense\n")
    assert cli.main(["run", "--scenario", str(bad)]) == 2
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])  # 2**64
def test_seed_outside_64_bits_is_a_usage_error(seed, capsys):
    for command in ("run", "goals"):
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--scenario", "honest", "--seed", seed])
        assert err.value.code == 2
        assert "64 unsigned bits" in capsys.readouterr().err


def test_seed_that_is_not_a_number_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--scenario", "honest", "--seed", "abc"])
    assert err.value.code == 2
    assert "not an integer" in capsys.readouterr().err


def late_error_script(action):
    """alice leads bob in a keyed meeting, then `action` runs at t=4."""
    return (
        "actor alice laptop\nactor bob phone\n"
        "tick 1 alice publish\ntick 2 bob request\ntick 3 alice distribute\n"
        f"tick 4 {action}\n"
    )


@pytest.mark.parametrize(
    "action, message",
    [
        ("alice packet 1 70000", "error: t=4: packet payloads are capped at 64 KiB"),
        ("bob leave 7", "error: t=4: no meeting with index 7"),
        (
            "alice reassign bob\ntick 5 alice distribute",
            "error: t=5: not_current_leader: alice is not leading",
        ),
        ("bob dismiss", "error: t=4: not_current_leader: bob is not leading"),
    ],
    ids=["packet-cap", "meeting-index", "demoted-leader-distributes", "member-dismisses"],
)
def test_errors_found_while_running_name_their_tick(tmp_path, capsys, action, message):
    path = tmp_path / "late_error.txt"
    path.write_text(late_error_script(action))
    assert cli.main(["run", "--scenario", str(path)]) == 2
    assert message in capsys.readouterr().err.splitlines()


def test_an_actor_without_a_session_is_named_with_the_meeting_index(tmp_path, capsys):
    # bob's session is in the second meeting published, index 1
    path = tmp_path / "no_session.txt"
    actions = [
        "alice publish", "carol publish", "bob request 1", "carol distribute 1",
        "bob leave 1", "bob packet 1 8 1",
    ]
    path.write_text(
        "actor alice laptop\nactor bob phone\nactor carol tablet\n"
        + "".join(f"tick {tick} {action}\n" for tick, action in enumerate(actions, 1))
    )
    assert cli.main(["run", "--scenario", str(path)]) == 2
    assert "error: t=6: bob has no session in meeting 1" in capsys.readouterr().err.splitlines()


def test_packet_before_holding_a_key_exits_two(tmp_path, capsys):
    path = tmp_path / "early.txt"
    path.write_text(
        "actor alice laptop\nactor bob phone\n"
        "tick 1 alice publish\ntick 2 bob request\ntick 3 bob packet 1 8\n"
    )
    assert cli.main(["run", "--scenario", str(path)]) == 2
    assert "error: t=3: bob holds no meeting key" in capsys.readouterr().err


def test_rekey_without_membership_change_exits_two(tmp_path, capsys):
    path = tmp_path / "rekey.txt"
    path.write_text(
        "actor alice laptop\nactor bob phone\n"
        "tick 1 alice publish\ntick 2 bob request\n"
        "tick 3 alice distribute\ntick 4 alice distribute\n"
    )
    assert cli.main(["goals", "--scenario", str(path)]) == 2
    assert "error: t=4: rule_violation: rekey without a membership change" in (
        capsys.readouterr().err
    )


def test_mix_keys_within_one_meeting_exits_two(tmp_path, capsys):
    # a meeting's distribution spliced into itself is no attack to frustrate
    path = tmp_path / "self_splice.txt"
    text = sim.load_scenario_text("mix_keys")
    path.write_text(text.replace("adversary.mix_keys bob 0 1", "adversary.mix_keys bob 0 0"))
    assert cli.main(["goals", "--scenario", str(path)]) == 2
    assert "mix_keys splices between two different meetings" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["packet 1 32", "leave"])
def test_tick_outside_64_bits_names_its_line(tmp_path, capsys, action):
    path = tmp_path / "late.txt"
    path.write_text(
        "actor alice laptop\nactor bob phone\n"
        "tick 1 alice publish\ntick 2 bob request\ntick 3 alice distribute\n"
        f"tick 18446744073709551616 bob {action}\n"  # 2**64
    )
    assert cli.main(["run", "--scenario", str(path)]) == 2
    assert "line 6: tick does not fit in 64 bits" in capsys.readouterr().err


def test_last_u64_tick_lands_on_the_chain(tmp_path):
    path = tmp_path / "last.txt"
    path.write_text(
        "actor alice laptop\nactor bob phone\n"
        "tick 1 alice publish\ntick 2 bob request\ntick 3 alice distribute\n"
        "tick 18446744073709551615 bob leave\n"  # 2**64 - 1
    )
    assert cli.main(["goals", "--scenario", str(path)]) == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("seed ³\nactor alice laptop\n", "seed wants one unsigned integer"),
        ("actor alice laptop\ntick ² alice publish\n", "bad tick number '²'"),
        (
            "actor alice laptop\nactor bob phone\n"
            "tick 1 alice publish\ntick 2 bob request ²\n",
            "expected a number, got '²'",
        ),
    ],
    ids=["seed", "tick", "action-argument"],
)
def test_non_ascii_digits_exit_two(tmp_path, capsys, text, message):
    path = tmp_path / "superscript.txt"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["run", "--scenario", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_a_scenario_that_is_not_utf8_exits_two_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"seed 3\nactor alice laptop\xff\n")
    assert cli.main(["run", "--scenario", str(path)]) == 2
    assert f"error: {path}: line 2: not UTF-8 text" in capsys.readouterr().err


def test_surplus_action_argument_exits_two(tmp_path, capsys):
    path = tmp_path / "surplus.txt"
    path.write_text(
        "actor alice laptop\nactor bob phone\n"
        "tick 1 alice publish\ntick 2 bob request 0 junk\n"
    )
    assert cli.main(["run", "--scenario", str(path)]) == 2
    assert "error: line 4: request takes [meeting]" in capsys.readouterr().err


def test_leader_request_is_refused_and_the_leader_keeps_leading(tmp_path, capsys):
    path = tmp_path / "leader_request.txt"
    path.write_text(
        "actor alice laptop\nactor bob phone\n"
        "tick 1 alice publish\ntick 2 bob request\ntick 3 alice request\n"
        "tick 4 alice distribute\n"
    )
    assert cli.main(["goals", "--scenario", str(path)]) == 1
    out = capsys.readouterr().out
    assert "violation: availability: honest alice refused at t=3 (duplicate_request)" in out
    assert cli.main(["run", "--scenario", str(path)]) == 1
    assert "[t=4] key-epoch m=0 epoch=0 leader=alice" in capsys.readouterr().out


def test_inspect_of_a_broken_chain_exits_two(tmp_path, capsys):
    store = tmp_path / "ledgers"
    assert cli.main(["run", "--scenario", "join_rekey", "--out",
                     str(tmp_path / "t.txt"), "--persist", str(store)]) == 0
    path = store / "meeting.ledger"
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-1] + ("1" if lines[2][-1] == "0" else "0")
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["inspect", "--persist", str(store)]) == 2
    assert "ledger=meeting block=2 pos=0 reason=bad_signature" in capsys.readouterr().err


def test_inspect_skips_blank_lines_between_blocks(tmp_path, capsys):
    store = tmp_path / "ledgers"
    assert cli.main(["run", "--scenario", "honest", "--out",
                     str(tmp_path / "t.txt"), "--persist", str(store)]) == 0
    path = store / "meeting.ledger"
    blocks = path.read_text().splitlines()
    path.write_text("\n\n".join(blocks) + "\n")
    capsys.readouterr()
    assert cli.main(["inspect", "--persist", str(store)]) == 0
    assert f"ledger=meeting blocks={len(blocks)}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "kind, data, message",
    [
        ("identity", b"not hex at all\n", "bad hex block line"),
        ("identity", b"", "no blocks in ledger file"),
        ("identity", b"\xff\xfe", "not UTF-8 text"),
        ("meeting", b"not hex at all\n", "bad hex block line"),
        ("meeting", b"", "no blocks in ledger file"),
        ("meeting", b"\xff\xfe", "not UTF-8 text"),
    ],
    ids=["not-hex", "empty", "not-utf8", "meeting-not-hex", "meeting-empty",
         "meeting-not-utf8"],
)
def test_inspect_of_an_unreadable_ledger_file_exits_two(
    tmp_path, capsys, kind, data, message
):
    store = tmp_path / "ledgers"
    assert cli.main(["run", "--scenario", "honest", "--out",
                     str(tmp_path / "t.txt"), "--persist", str(store)]) == 0
    (store / f"{kind}.ledger").write_bytes(data)
    capsys.readouterr()
    assert cli.main(["inspect", "--persist", str(store)]) == 2
    assert f"error: {kind} ledger: {message}" in capsys.readouterr().err


def flip_last_byte(body):
    return body[:-1] + bytes([body[-1] ^ 1])


def flip_rule_byte(body):
    """Designation becomes time order; the rule follows the meeting id and info."""
    at = 16 + 4 + int.from_bytes(body[16:20], "big")
    flipped = body[:at] + bytes([body[at] ^ 1]) + body[at + 1 :]
    assert m.PublishMeeting.parse(flipped).rule is m.ReassignRule.TIME_ORDER
    return flipped


@pytest.mark.parametrize("edit", [flip_last_byte, flip_rule_byte])
def test_inspect_refuses_a_forged_meeting_publish(tmp_path, capsys, edit):
    store = tmp_path / "ledgers"
    assert cli.main(["run", "--scenario", "join_rekey", "--out",
                     str(tmp_path / "t.txt"), "--persist", str(store)]) == 0
    path = store / "meeting.ledger"
    lines = forged(path.read_text().splitlines(), TxTag.MEETING_PUBLISH, edit)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["inspect", "--persist", str(store)]) == 2
    assert "ledger=meeting block=1 pos=0 reason=bad_signature" in capsys.readouterr().err


def test_inspect_refuses_a_request_whose_epk_has_small_order(tmp_path, capsys):
    simulation = sim.run_scenario_text(sim.load_scenario_text("honest"))
    block, pos, request = next(
        entry for entry in simulation.meeting_ledger.iter_txs()
        if entry[2].tag == TxTag.MEETING_REQUEST
    )
    # the epk is the body's last 32 bytes; its author signs the splice again
    lines = forged(
        dump_hex_lines(simulation.meeting_ledger), TxTag.MEETING_REQUEST,
        lambda body: body[: -crypto.KEY_LEN] + bytes(crypto.KEY_LEN),
        simulation.actors[request.payload.user].keypair,
    )
    store = tmp_path / "ledgers"
    store.mkdir()
    identity_lines = dump_hex_lines(simulation.identity_ledger)
    (store / cli.IDENTITY_FILE).write_text("\n".join(identity_lines) + "\n")
    (store / cli.MEETING_FILE).write_text("\n".join(lines) + "\n")
    assert cli.main(["inspect", "--persist", str(store)]) == 2
    assert f"ledger=meeting block={block} pos={pos} reason=malformed_body" in (
        capsys.readouterr().err
    )
