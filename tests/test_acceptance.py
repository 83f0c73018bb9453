"""Acceptance suite: one test per criterion, names double as the report.

Run with -v to get exactly one PASSED/FAILED line per criterion. Time
limits are pinned as module constants next to the tests that use them.
"""

import hashlib
import hmac as stdlib_hmac
import time

import oracles
from chainmeet import cli, crypto, identity as ident, meeting as m, sim
from chainmeet.errors import (
    AuthenticationFailure,
    EncodingError,
    NoEntryForMe,
    Reason,
)
from chainmeet.ledger import Transaction, parse_block
from chainmeet.rng import DeterministicRng

VECTOR_TIME_LIMIT = 1.0  # seconds, criterion 1
HONEST_TIME_LIMIT = 1.0  # seconds, criterion 2
MUTATION_TIME_LIMIT = 30.0  # seconds, criterion 5


def run_bundled(name, seed=None):
    scenario = sim.parse_scenario(sim.load_scenario_text(name))
    if seed is not None:
        scenario = sim.Scenario(seed, scenario.rule, scenario.actors, scenario.events)
    return sim.run_scenario(scenario)


def events_of(simulation, kind):
    return [e for e in simulation.transcript if isinstance(e, kind)]


def test_criterion_01_vectors_match_independent_oracles():
    started = time.perf_counter()
    records = cli.parse_vectors(cli.make_vectors())
    checked = 0
    for rec in records:
        op = rec["op"].decode()
        if op == "ed25519_sign":
            assert oracles.ed25519_public(rec["secret"]) == rec["public"]
            assert (
                oracles.ed25519_sign(rec["secret"], rec["message"])
                == rec["signature"]
            )
        elif op == "x25519_dh":
            assert oracles.x25519_public(rec["scalar_a"]) == rec["public_a"]
            assert oracles.x25519_public(rec["scalar_b"]) == rec["public_b"]
            assert (
                oracles.x25519(rec["scalar_a"], rec["public_b"])
                == oracles.x25519(rec["scalar_b"], rec["public_a"])
                == rec["shared"]
            )
        elif op == "hkdf_sha256":
            assert oracles.hkdf_sha256(rec["ikm"], b"", rec["info"], 32) == rec["okm"]
        elif op == "sha256":
            assert hashlib.sha256(rec["data"]).digest() == rec["digest"]
        elif op == "hmac_stream_key":
            assert (
                stdlib_hmac.new(
                    rec["meeting_key"], rec["stream_id"], hashlib.sha256
                ).digest()
                == rec["stream_key"]
            )
        elif op == "meeting_key_wrap":
            shared = oracles.x25519(rec["leader_esk"], rec["member_epk"])
            context = (
                rec["meeting_id"] + rec["epoch"]
                + rec["leader_epk"] + rec["member_epk"]
            )
            wrap_key = oracles.hkdf_sha256(shared, b"", context, 32)
            aad = rec["meeting_id"] + rec["epoch"] + rec["recipient_ivk"]
            ciphertext, tag = oracles.aes256gcm_encrypt(
                wrap_key, rec["nonce"], rec["meeting_key"], aad
            )
            assert (ciphertext, tag) == (rec["ciphertext"], rec["tag"])
        elif op == "block_hash":
            assert (
                hashlib.sha256(rec["block_bytes"]).digest() == rec["block_hash"]
            )
        else:
            raise AssertionError(f"unrecognized vector op {op!r}")
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == len(records) >= 8
    assert elapsed < VECTOR_TIME_LIMIT, f"vectors took {elapsed:.2f}s"


def test_criterion_02_honest_run_completes_clean_and_fast():
    started = time.perf_counter()
    simulation = run_bundled("honest")
    elapsed = time.perf_counter() - started
    packets = events_of(simulation, sim.PacketEvent)
    assert len(packets) == 100
    assert {p.stream for p in packets} == {1, 2, 3}
    assert len({p.sender for p in packets}) == 3
    transactions = events_of(simulation, sim.TxEvent)
    assert transactions and all(t.ok for t in transactions)
    deliveries = [
        d for d in events_of(simulation, sim.DecryptEvent) if not d.tampered
    ]
    assert deliveries and all(d.ok for d in deliveries)
    assert simulation.report.ok
    assert elapsed < HONEST_TIME_LIMIT, f"honest run took {elapsed:.2f}s"


def test_criterion_03_departed_keys_never_read_later_epochs():
    attempts = 0
    for name in ("leave_rekey", "reassign_designation", "replay_request"):
        simulation = run_bundled(name)
        assert simulation.report.ok, name
        for event in events_of(simulation, sim.DecryptEvent):
            if event.ghost and event.epoch > event.epoch_at_leave:
                attempts += 1
                assert not event.ok, (
                    f"{name}: {event.actor} read epoch {event.epoch} after"
                    f" leaving at {event.epoch_at_leave}"
                )
    assert attempts >= 5, "the expulsion check needs real material"


def test_criterion_04_thousand_fuzzed_impersonations_all_named():
    rng = DeterministicRng(0xFACE)
    identity_ledger = ident.new_identity_ledger()
    people = {}
    for user in ("alys", "brice", "cato", "dara"):
        pair = crypto.identity_keygen(rng)
        identity_ledger.append_block(
            [ident.register_identity(user, "dev", pair)], timestamp=0
        )
        people[user] = pair
    users = sorted(people)
    meeting_id = rng.take(16)
    attacker = crypto.identity_keygen(rng)

    def request_tx(user, device, ivk, signer):
        payload = m.MeetingRequest(
            meeting_id, user, device, ivk, crypto.ephemeral_keygen(rng).epk
        )
        return m.signed_tx(payload, signer)

    outcomes = {Reason.BAD_SIGNATURE: 0, Reason.UNKNOWN_IDENTITY: 0,
                Reason.KEY_MISMATCH: 0}
    for i in range(1000):
        victim = users[i % len(users)]
        variant = i % 5
        if variant == 0:
            # nobody by that name on the identity ledger
            tx = request_tx(f"stranger{i}", "dev", attacker.ivk, attacker)
            expected = Reason.UNKNOWN_IDENTITY
        elif variant == 1:
            # a real name, but the attacker's own key: self-consistent lie
            tx = request_tx(victim, "dev", attacker.ivk, attacker)
            expected = Reason.KEY_MISMATCH
        elif variant == 2:
            # a throwaway key invented for this one forgery
            burner = crypto.identity_keygen(rng)
            tx = request_tx(victim, "dev", burner.ivk, burner)
            expected = Reason.KEY_MISMATCH
        elif variant == 3:
            # the victim's true key, but the attacker cannot sign for it
            tx = request_tx(victim, "dev", people[victim].ivk, attacker)
            expected = Reason.BAD_SIGNATURE
        else:
            # a genuine request with one signature byte shot off
            good = request_tx(victim, "dev", people[victim].ivk, people[victim])
            flips = 1 + rng.take(1)[0] % 255
            position = rng.take(1)[0] % crypto.SIG_LEN
            signature = bytearray(good.signature)
            signature[position] ^= flips
            tx = Transaction(good.tag, good.body, bytes(signature))
            expected = Reason.BAD_SIGNATURE
        verdict = m.verify_request_tx(tx, identity_ledger)
        assert verdict == expected, f"case {i}: {verdict} != {expected}"
        outcomes[expected] += 1
    assert sum(outcomes.values()) == 1000
    assert all(count > 0 for count in outcomes.values())


def _twenty_block_ledger():
    rng = DeterministicRng(0x20B)
    identity_ledger = ident.new_identity_ledger()
    actors = {}
    for user in ("lead", "m1", "m2", "m3", "m4", "m5"):
        pair = crypto.identity_keygen(rng)
        identity_ledger.append_block(
            [ident.register_identity(user, "dev", pair)], timestamp=0
        )
        actors[user] = m.ParticipantState(user=user, device="dev", keypair=pair)
    ledger = m.new_meeting_ledger(identity_ledger)
    tick = 0

    def commit(tx):
        nonlocal tick
        tick += 1
        ledger.append_block([tx], timestamp=tick)

    leader = actors["lead"]
    commit(m.publish_meeting(leader, "busy room", rng))
    for user in ("m1", "m2", "m3", "m4", "m5"):
        commit(
            m.make_request(
                actors[user], ledger, leader.meeting_id, rng
            )
        )

    def rekey():
        m.review_requests(leader, ledger)
        commit(m.distribute_key(leader, ledger, rng)[0])

    def leave(user):
        commit(m.make_leave(actors[user]))
        actors[user] = m.ParticipantState(
            user=user, device="dev", keypair=actors[user].keypair
        )

    def rejoin(user):
        commit(
            m.make_request(
                actors[user], ledger, leader.meeting_id, rng
            )
        )

    rekey()
    leave("m1"); rekey()
    leave("m2"); rekey()
    rejoin("m1"); rekey()
    leave("m3"); rekey()
    rejoin("m2"); rekey()
    leave("m4"); rekey()
    assert len(ledger.blocks) == 20
    assert ledger.verify_chain()
    return ledger


def test_criterion_05_every_single_byte_mutation_is_detected():
    started = time.perf_counter()
    ledger = _twenty_block_ledger()
    mutations = 0
    for block in ledger.blocks:
        raw = block.canonical_bytes()
        for position in range(len(raw)):
            mutated = (
                raw[:position]
                + bytes([raw[position] ^ 0xA5])
                + raw[position + 1 :]
            )
            try:
                forged = parse_block(mutated, stored_hash=block.block_hash)
                detected = forged.block_hash != crypto.sha256(
                    forged.canonical_bytes()
                )
            except EncodingError:
                detected = True
            assert detected, f"block {block.index} byte {position} slipped by"
            mutations += 1
    elapsed = time.perf_counter() - started
    assert mutations > 4000, "the sweep covered suspiciously few bytes"
    assert elapsed < MUTATION_TIME_LIMIT, f"mutation sweep took {elapsed:.2f}s"


def test_criterion_06_spliced_key_entries_always_fail_closed():
    rng = DeterministicRng(0x515)
    identity_ledger = ident.new_identity_ledger()
    pairs = {}
    for user in ("leada", "leadb", "bob", "carol", "dave"):
        pair = crypto.identity_keygen(rng)
        identity_ledger.append_block(
            [ident.register_identity(user, "dev", pair)], timestamp=0
        )
        pairs[user] = pair
    ledger = m.new_meeting_ledger(identity_ledger)
    tick = 0

    def commit(tx):
        nonlocal tick
        tick += 1
        ledger.append_block([tx], timestamp=tick)

    leaders = {}
    sessions = {}  # (member, meeting label) -> state
    dists = {}
    for label, leader_name in (("a", "leada"), ("b", "leadb")):
        leader = m.ParticipantState(
            user=leader_name, device="dev", keypair=pairs[leader_name]
        )
        commit(m.publish_meeting(leader, f"room {label}", rng))
        for member in ("bob", "carol", "dave"):
            state = m.ParticipantState(
                user=member, device="dev", keypair=pairs[member]
            )
            commit(
                m.make_request(
                    state, ledger, leader.meeting_id, rng
                )
            )
            sessions[(member, label)] = state
        m.review_requests(leader, ledger)
        dist_tx, _ = m.distribute_key(leader, ledger, rng)
        commit(dist_tx)
        dists[label] = m.KeyDistribution.parse(dist_tx.body)
        leaders[label] = leader
        for member in ("bob", "carol", "dave"):
            m.accept_key(sessions[(member, label)], dists[label])

    dist_a, dist_b = dists["a"], dists["b"]
    rejections = 0
    silent_wrong_keys = 0
    for member in ("bob", "carol", "dave"):
        session = sessions[(member, "a")]
        true_key = session.known_mk
        spliced = [
            m.KeyDistribution(
                dist_a.meeting_id, dist_a.epoch, dist_b.leader_epk, dist_a.entries
            ),
            m.KeyDistribution(
                dist_a.meeting_id, dist_a.epoch + 1, dist_a.leader_epk, dist_a.entries
            ),
        ]
        # every single entry of the other meeting, spliced in alone
        for entry in dist_b.entries:
            spliced.append(
                m.KeyDistribution(
                    dist_a.meeting_id, dist_a.epoch, dist_a.leader_epk, (entry,)
                )
            )
        for candidate in spliced:
            try:
                m.accept_key(session, candidate)
                if session.known_mk != true_key:
                    silent_wrong_keys += 1
            except (AuthenticationFailure, NoEntryForMe):
                rejections += 1
        assert session.known_mk == true_key
    assert rejections == 3 * 5, f"only {rejections} splices rejected"
    assert silent_wrong_keys == 0

    simulation = run_bundled("mix_keys")
    assert simulation.report.ok
    attack = [
        e for e in events_of(simulation, sim.AdversaryEvent)
        if e.attack == "mix_keys"
    ]
    assert attack and attack[0].failed


def test_criterion_07_transcripts_reproducible_and_seed_sensitive():
    for name in ("honest", "leave_rekey", "reassign_violation"):
        first = sim.render_transcript(run_bundled(name))
        second = sim.render_transcript(run_bundled(name))
        assert first == second, f"{name}: same seed, different bytes"
        reseeded_run = run_bundled(name, seed=0xD1FF)
        reseeded = sim.render_transcript(reseeded_run)
        assert reseeded != first, f"{name}: new seed, same bytes"
        assert reseeded_run.report.ok == run_bundled(name).report.ok


def test_criterion_08_handover_rules_converge_and_violations_die():
    designated = run_bundled("reassign_designation")
    ordered = run_bundled("reassign_timeorder")
    assert designated.report.ok and ordered.report.ok
    last_d = events_of(designated, sim.KeyEpochEvent)[-1]
    last_t = events_of(ordered, sim.KeyEpochEvent)[-1]
    assert last_d.leader == last_t.leader == "bob"
    assert last_d.leader_ivk == last_t.leader_ivk  # same seed, same principal
    assert last_d.epoch == last_t.epoch

    simulation = run_bundled("reassign_violation")
    assert simulation.report.ok
    grabs = [
        e for e in events_of(simulation, sim.AdversaryEvent)
        if e.attack == "leadership_grab"
    ]
    assert len(grabs) == 1 and grabs[0].failed
    verdicts = [
        v for v in events_of(simulation, sim.ValidateEvent)
        if v.tag == "LEADER_REASSIGN" and v.tick == grabs[0].tick
    ]
    honest = sorted(
        a.user for a in simulation.scenario.actors if not a.adversary
    )
    assert sorted(v.validator for v in verdicts) == honest
    assert all(v.reason == Reason.RULE_VIOLATION for v in verdicts)


def test_criterion_09_stream_keys_match_the_hmac_oracle():
    rng = DeterministicRng(0x57E4)
    for _ in range(100):
        meeting_key = rng.take(32)
        stream_id = int.from_bytes(rng.take(4), "big")
        expected = stdlib_hmac.new(
            meeting_key, stream_id.to_bytes(4, "big"), hashlib.sha256
        ).digest()
        assert m.derive_stream_key(meeting_key, stream_id) == expected


def test_criterion_10_epoch_and_nonce_hygiene_across_all_scenarios():
    names = sim.bundled_scenario_names()
    assert len(names) == 11
    total_packets = 0
    total_epochs = 0
    for name in names:
        simulation = run_bundled(name)
        report = simulation.report
        assert report.passed("epochs-contiguous"), f"{name}: epoch sequence has holes"
        assert report.passed("nonces-unique"), f"{name}: stream nonce reused"
        # independent recount, not just the report's word for it
        per_meeting = {}
        for event in events_of(simulation, sim.KeyEpochEvent):
            per_meeting.setdefault(event.meeting, []).append(event.epoch)
        for meeting, epochs in per_meeting.items():
            assert epochs == list(range(len(epochs))), (name, meeting, epochs)
            total_epochs += len(epochs)
        seen = set()
        for event in events_of(simulation, sim.PacketEvent):
            pair = (event.key_digest, event.nonce)
            assert pair not in seen, (name, event.nonce.hex())
            seen.add(pair)
        total_packets += len(seen)
    assert total_packets > 120 and total_epochs > 12
