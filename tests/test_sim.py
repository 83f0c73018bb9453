"""Scenario engine: parsing, determinism, goal checking, bundled runs."""

import dataclasses
import gc
import hashlib
import types
import typing
from collections import Counter

import pytest

from chainmeet import crypto, meeting as m, rng as rng_mod, sim
from chainmeet.encoding import Wire
from chainmeet.errors import InvalidTransaction, MalformedScenario, Reason
from chainmeet.ledger import Ledger, LedgerKind, dump_hex_lines
from chainmeet.meeting import ReassignRule
from chainmeet.rng import DeterministicRng
from test_cli import late_error_script


def run_bundled(name, seed=None):
    text = sim.load_scenario_text(name)
    if seed is not None:
        scenario = sim.parse_scenario(text)
        scenario = sim.Scenario(seed, scenario.rule, scenario.actors, scenario.events)
        return sim.run_scenario(scenario)
    return sim.run_scenario_text(text)


def events_of(simulation, kind):
    return [e for e in simulation.transcript if isinstance(e, kind)]


# ---------------------------------------------------------------------------
# scenario parsing


def test_parse_scenario_full_grammar():
    scenario = sim.parse_scenario(
        """
        # comment line
        seed 42
        rule timeorder
        actor alice laptop
        actor mallory lair adversary   # trailing comment
        tick 1 alice publish kick off
        tick 3 mallory adversary.eavesdrop
        """
    )
    assert scenario.seed == 42
    assert scenario.rule is ReassignRule.TIME_ORDER
    assert [a.user for a in scenario.actors] == ["alice", "mallory"]
    assert scenario.actors[1].adversary
    assert scenario.events[0] == sim.ScriptedEvent(1, "alice", "publish", ("kick", "off"))


@pytest.mark.parametrize(
    "text",
    [
        "actor alice laptop\nbogus directive",
        "actor alice laptop\nseed notanumber",
        "actor alice laptop\nseed 18446744073709551616",  # 2**64
        "actor alice laptop\nrule dictatorship",
        "actor alice laptop\nactor alice phone",  # duplicate user
        "actor alice laptop friend",  # bad flag
        "actor alice laptop\ntick 1 ghost publish",  # unknown actor
        "actor alice laptop\ntick 1 alice teleport",  # unknown action
        "actor alice laptop\ntick 1 alice publish\ntick 1 alice publish",
        "actor alice laptop\ntick 2 alice publish\ntick 1 alice leave",
        "actor alice laptop\ntick 1 alice adversary.eavesdrop",  # not flagged
        "",  # no actors at all
    ],
)
def test_parse_scenario_rejects_malformed(text):
    with pytest.raises(MalformedScenario):
        sim.parse_scenario(text)


@pytest.mark.parametrize(
    "tail, message",
    [
        ("alice reassign", "line 4: reassign takes new_user [meeting]"),
        ("bob request 0 junk", "line 4: request takes [meeting]"),
        ("bob packet 1 1e3", "line 4: expected a number, got '1e3'"),
        ("alice reassign zed", "line 4: unknown actor 'zed'"),
    ],
    ids=["missing", "surplus", "not-decimal", "unknown-actor"],
)
def test_action_arguments_are_checked_at_load(monkeypatch, tail, message):
    monkeypatch.setattr(sim.Simulation, "run", None)  # no event may run
    text = f"actor alice laptop\nactor bob phone\ntick 1 alice publish\ntick 2 {tail}\n"
    with pytest.raises(MalformedScenario) as err:
        sim.run_scenario_text(text)
    assert str(err.value) == message


def test_action_arguments_arrive_as_their_handler_declares_them():
    scenario = sim.parse_scenario(
        "actor alice laptop\nactor bob phone\nactor eve lair adversary\n"
        "tick 1 alice publish\ntick 2 alice packet 3 1200\n"
        "tick 3 eve adversary.mix_keys bob\ntick 4 alice reassign bob 0\n"
    )
    assert [e.args for e in scenario.events] == [(), (3, 1200), ("bob",), ("bob", 0)]
    assert sim.ACTIONS["adversary.mix_keys"].usage == "victim [meeting_a] [meeting_b]"
    assert sim.ACTIONS["publish"].usage == "[words...]"


def test_bundled_scenarios_present_and_loadable():
    names = sim.bundled_scenario_names()
    for expected in (
        "honest", "leave_rekey", "join_rekey", "reassign_designation",
        "reassign_timeorder", "reassign_violation", "impersonate",
        "tamper_ledger", "mix_keys", "replay_request", "eavesdrop",
    ):
        assert expected in names
        sim.parse_scenario(sim.load_scenario_text(expected))
    with pytest.raises(FileNotFoundError):
        sim.load_scenario_text("no_such_scenario")


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_same_transcript_bytes():
    first = sim.render_transcript(run_bundled("leave_rekey"))
    second = sim.render_transcript(run_bundled("leave_rekey"))
    assert first == second


def test_different_seed_different_bytes_same_verdict():
    base = run_bundled("honest")
    other = run_bundled("honest", seed=987654321)
    base_text = sim.render_transcript(base)
    other_text = sim.render_transcript(other)
    assert base_text != other_text
    assert base.report.ok and other.report.ok


# ---------------------------------------------------------------------------
# bundled scenario behaviour


def test_honest_run_everyone_reads_everything():
    simulation = run_bundled("honest")
    assert simulation.report.ok
    packets = events_of(simulation, sim.PacketEvent)
    decrypts = events_of(simulation, sim.DecryptEvent)
    assert len(packets) == 100
    assert {p.stream for p in packets} == {1, 2, 3}
    plain = [d for d in decrypts if not d.tampered]
    assert plain and all(d.ok for d in plain)
    probes = [d for d in decrypts if d.tampered]
    assert probes and not any(d.ok for d in probes)


def test_leave_rekey_locks_out_the_departed():
    simulation = run_bundled("leave_rekey")
    assert simulation.report.ok
    ghost_tries = [
        d for d in events_of(simulation, sim.DecryptEvent)
        if d.ghost and d.epoch > d.epoch_at_leave
    ]
    assert len(ghost_tries) >= 3  # the check must actually have had material
    assert not any(d.ok for d in ghost_tries)
    departures = events_of(simulation, sim.DepartureEvent)
    assert [(d.actor, d.epoch_at_leave) for d in departures] == [("bob", 0)]


def test_join_rekey_advances_the_epoch_for_the_newcomer():
    simulation = run_bundled("join_rekey")
    assert simulation.report.ok
    epochs = [e.epoch for e in events_of(simulation, sim.KeyEpochEvent)]
    assert epochs == [0, 1]
    carol_reads = [
        d for d in events_of(simulation, sim.DecryptEvent)
        if d.actor == "carol" and not d.tampered
    ]
    assert carol_reads and all(d.ok and d.epoch == 1 for d in carol_reads)


def test_reassign_rules_converge_on_the_same_leader():
    designated = run_bundled("reassign_designation")
    ordered = run_bundled("reassign_timeorder")
    assert designated.report.ok and ordered.report.ok
    final_d = events_of(designated, sim.KeyEpochEvent)[-1]
    final_t = events_of(ordered, sim.KeyEpochEvent)[-1]
    assert final_d.leader == final_t.leader == "bob"
    # same seed, so the two rules elect the identical principal
    assert final_d.leader_ivk == final_t.leader_ivk
    assert designated.meeting_ledger.verify_chain()
    assert ordered.meeting_ledger.verify_chain()


# bob leads after alice, then hands over to carol and stays a member
HANDED_OVER_AND_STAYED = (
    "seed 5\nrule designation\n"
    "actor alice laptop\nactor bob phone\nactor carol tablet\n"
    "tick 1 alice publish\ntick 2 bob request\ntick 3 carol request\n"
    "tick 4 alice distribute\ntick 5 alice reassign bob\ntick 6 bob reassign carol\n"
    "tick 7 carol packet 1 32\n"
)


def test_a_leader_that_hands_over_and_stays_reads_the_next_key():
    """bob holds the ephemeral his handover announced, not the one in his
    request, and the next leader wraps the key to that one."""
    simulation = sim.run_scenario_text(HANDED_OVER_AND_STAYED)
    assert simulation.report.ok
    lines = sim.render_transcript(simulation).splitlines()
    assert "[t=6] accept who=bob m=0 epoch=2 ok=1" in lines
    assert "[t=7] decrypt who=bob m=0 stream=1 epoch=2 ctr=0 ok=1" in lines


def test_a_time_order_leader_that_joined_by_request_hands_over():
    """Under time order bob, who joined by request, hands over to carol, the
    earliest verified requester other than himself."""
    simulation = sim.run_scenario_text(
        HANDED_OVER_AND_STAYED.replace("rule designation", "rule timeorder")
    )
    assert simulation.report.ok
    lines = sim.render_transcript(simulation).splitlines()
    assert "[t=6] tx who=bob action=reassign tag=LEADER_REASSIGN ok=1 block=7" in lines
    assert "[t=6] accept who=bob m=0 epoch=2 ok=1" in lines


def test_verify_all_reviews_without_distributing_and_distribute_reviews_first():
    simulation = sim.run_scenario_text(
        "actor alice laptop\nactor bob phone\nactor carol tablet\n"
        "tick 1 alice publish\ntick 2 bob request\ntick 3 alice verify_all\n"
        "tick 4 carol request\ntick 5 alice distribute\n"
    )
    lines = sim.render_transcript(simulation).splitlines()

    def words_at(tick):
        return [line.split()[1] for line in lines if line.startswith(f"[t={tick}] ")]

    assert words_at(3) == ["review"]
    # distribute reviews what came in since, then wraps the key
    assert words_at(5)[:2] == ["review", "key-epoch"]
    assert [line.split()[0] for line in lines if " key-epoch " in line] == ["[t=5]"]


def test_violation_rejected_by_every_honest_validator():
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
    honest = [a.user for a in simulation.scenario.actors if not a.adversary]
    assert sorted(v.validator for v in verdicts) == sorted(honest)
    assert all(v.reason == Reason.RULE_VIOLATION for v in verdicts)
    # the lawful handover afterwards still went through
    reassigns = [
        t for t in events_of(simulation, sim.TxEvent)
        if t.tag == "LEADER_REASSIGN" and t.ok
    ]
    assert len(reassigns) == 1 and reassigns[0].actor == "alice"


def test_impersonation_denied_while_the_real_user_joins():
    simulation = run_bundled("impersonate")
    assert simulation.report.ok
    attack = [
        e for e in events_of(simulation, sim.AdversaryEvent)
        if e.attack == "impersonate"
    ]
    assert len(attack) == 1 and attack[0].failed
    reviews = events_of(simulation, sim.ReviewEvent)
    granted = [r for r in reviews if r.granted]
    denied = [r for r in reviews if not r.granted]
    assert [r.subject_user for r in granted] == ["victim"]
    assert [(r.subject_user, r.verdict) for r in denied] == [
        ("victim", Reason.KEY_MISMATCH)
    ]


def test_ledger_tampering_always_detected():
    simulation = run_bundled("tamper_ledger")
    assert simulation.report.ok
    attempts = [
        e for e in events_of(simulation, sim.AdversaryEvent)
        if e.attack == "tamper_ledger"
    ]
    assert len(attempts) == 3
    assert all(e.failed for e in attempts)
    assert simulation.meeting_ledger.verify_chain()  # the real chain is unhurt


def test_mix_keys_rejected_without_touching_the_victim():
    simulation = run_bundled("mix_keys")
    assert simulation.report.ok
    attack = [
        e for e in events_of(simulation, sim.AdversaryEvent)
        if e.attack == "mix_keys"
    ]
    assert len(attack) == 1 and attack[0].failed
    assert "rejected=3" in attack[0].detail and "key_untouched=1" in attack[0].detail
    # the victim keeps using both meetings afterwards
    after = [
        p for p in events_of(simulation, sim.PacketEvent)
        if p.tick > attack[0].tick and p.sender == "bob"
    ]
    assert {p.meeting for p in after} == {0, 1}


def test_replayed_request_cannot_reenrol_a_departed_member():
    simulation = run_bundled("replay_request")
    assert simulation.report.ok
    attack = [
        e for e in events_of(simulation, sim.AdversaryEvent)
        if e.attack == "replay_request"
    ]
    assert len(attack) == 1 and attack[0].failed
    rejected = [
        t for t in events_of(simulation, sim.TxEvent)
        if t.action == "replay_request"
    ]
    assert rejected[0].reason == Reason.REPLAYED_REQUEST
    ghost_tries = [
        d for d in events_of(simulation, sim.DecryptEvent)
        if d.ghost and d.epoch > d.epoch_at_leave
    ]
    assert ghost_tries and not any(d.ok for d in ghost_tries)


def test_eavesdropper_recovers_nothing():
    simulation = run_bundled("eavesdrop")
    assert simulation.report.ok
    attempts = [
        e for e in events_of(simulation, sim.AdversaryEvent)
        if e.attack == "eavesdrop"
    ]
    assert len(attempts) >= 3
    assert all(e.failed for e in attempts)
    assert all("recovered=0" in e.detail for e in attempts)


# ---------------------------------------------------------------------------
# the checker itself must catch fabricated violations


def fabricated_epoch(meeting=0, epoch=0, recipients=(b"R" * 32,)):
    return sim.KeyEpochEvent(
        tick=1, meeting=meeting, epoch=epoch, leader="alice",
        leader_ivk=b"L" * 32, recipients=recipients, key_digest=b"K" * 32,
    )


def fabricated_decrypt(**kwargs):
    base = dict(
        tick=2, actor="zed", meeting=0, stream=1, epoch=0, counter=0,
        ok=True, actor_ivk=b"Z" * 32,
    )
    base.update(kwargs)
    return sim.DecryptEvent(**base)


def test_checker_flags_unauthorized_reads():
    report = sim.check_goals([fabricated_epoch(), fabricated_decrypt()])
    assert not report.passed("confidentiality") and not report.ok
    assert any(v.goal == "confidentiality" for v in report.violations)


def test_checker_accepts_authorized_reads():
    report = sim.check_goals(
        [fabricated_epoch(recipients=(b"Z" * 32,)), fabricated_decrypt()]
    )
    assert report.passed("confidentiality")


def test_checker_flags_tampered_accepts():
    report = sim.check_goals([fabricated_decrypt(tampered=True)])
    assert not report.passed("integrity")


def test_checker_flags_honest_rejection():
    event = sim.TxEvent(
        tick=1, actor="bob", action="request", tag="MEETING_REQUEST",
        ok=False, reason=Reason.DUPLICATE_REQUEST, block=None, honest=True,
    )
    assert not sim.check_goals([event]).passed("availability")
    adversarial = sim.TxEvent(
        tick=1, actor="mallory", action="request", tag="MEETING_REQUEST",
        ok=False, reason=Reason.DUPLICATE_REQUEST, block=None, honest=False,
    )
    assert sim.check_goals([adversarial]).passed("availability")


def test_checker_flags_ghost_readthrough():
    sneaky = fabricated_decrypt(
        actor_ivk=b"R" * 32, ghost=True, epoch=1, epoch_at_leave=0
    )
    report = sim.check_goals([fabricated_epoch(epoch=1, recipients=(b"R" * 32,)), sneaky])
    assert not report.passed("expulsion")


def test_checker_flags_successful_attack():
    event = sim.AdversaryEvent(
        tick=1, actor="mallory", attack="impersonate", failed=False, detail=""
    )
    assert not sim.check_goals([event]).passed("attacks-frustrated")


def test_checker_flags_epoch_gap():
    report = sim.check_goals([fabricated_epoch(epoch=0), fabricated_epoch(epoch=2)])
    assert not report.passed("epochs-contiguous")


def test_checker_flags_nonce_reuse():
    packet = sim.PacketEvent(
        tick=1, sender="bob", meeting=0, stream=1, epoch=0, counter=0,
        nbytes=8, key_digest=b"K" * 32, nonce=bytes(12),
    )
    assert not sim.check_goals([packet, packet]).passed("nonces-unique")
    different_key = sim.PacketEvent(
        tick=2, sender="carol", meeting=1, stream=1, epoch=0, counter=0,
        nbytes=8, key_digest=b"Q" * 32, nonce=bytes(12),
    )
    assert sim.check_goals([packet, different_key]).passed("nonces-unique")


def test_checker_keeps_goal_order_over_interleaved_violations():
    """Violations of every goal, interleaved in one transcript, come out
    goal by goal, each goal's in transcript order, and each names its tick."""
    ivk_r = b"R" * 32
    refused = dict(
        action="request", tag="MEETING_REQUEST", ok=False,
        reason=Reason.DUPLICATE_REQUEST, block=None,
    )
    packet = dict(
        sender="bob", meeting=0, stream=1, epoch=0, counter=0, nbytes=8,
        key_digest=b"K" * 32, nonce=bytes(12),
    )
    transcript = [
        fabricated_epoch(recipients=(ivk_r,)),
        sim.PacketEvent(tick=3, **packet),
        fabricated_decrypt(tick=3),  # zed reads epoch 0 without an entry
        sim.TxEvent(tick=4, actor="bob", honest=True, **refused),
        fabricated_decrypt(tick=4, actor="rob", actor_ivk=ivk_r, tampered=True),
        fabricated_decrypt(tick=4, actor="zed", ok=False),
        sim.AdversaryEvent(5, "mallory", "impersonate", False, ""),
        sim.AdversaryEvent(5, "mallory", "eavesdrop", True, ""),
        sim.PacketEvent(tick=5, **packet),  # the same nonce under the same key
        # read before its key epoch appears: judged against it all the same
        fabricated_decrypt(tick=6, actor="rob", actor_ivk=ivk_r, meeting=1, epoch=1),
        fabricated_epoch(meeting=1, epoch=1, recipients=(ivk_r,)),
        fabricated_epoch(epoch=2, recipients=(ivk_r,)),
        fabricated_decrypt(tick=7, ghost=True, epoch=2, epoch_at_leave=0),
        sim.TxEvent(tick=8, actor="mallory", honest=False, **refused),
        sim.TxEvent(tick=9, actor="carol", honest=True, **refused),
        sim.DepartureEvent(9, "zed", 0, 0),
        sim.ValidateEvent(9, "bob", "MEETING_REQUEST", None),
    ]
    report = sim.check_goals(transcript)
    assert not any(report.passed(goal) for goal in sim.GOALS)
    assert report.note == sim.AVAILABILITY_NOTE
    assert [str(v) for v in report.violations] == [
        "confidentiality: zed read m=0 epoch=0 without an entry",
        "integrity: rob accepted a tampered packet at t=4",
        "confidentiality: zed read m=0 epoch=2 without an entry",
        "expulsion: departed zed read epoch=2 after leaving at 0",
        f"availability: honest bob refused at t=4 ({Reason.DUPLICATE_REQUEST})",
        f"availability: honest carol refused at t=9 ({Reason.DUPLICATE_REQUEST})",
        "attacks-frustrated: impersonate by mallory succeeded at t=5",
        "epochs-contiguous: m=0 saw [0, 2]",
        "epochs-contiguous: m=1 saw [1]",
        "nonces-unique: nonce 000000000000000000000000 reused under one"
        " stream key at t=5",
    ]
    # each violation carries the tick of the event that broke its goal; a
    # gap in a meeting's epochs is a per-meeting fact, with no tick
    assert [v.tick for v in report.violations] == [3, 4, 7, 7, 4, 9, 5, None, None, 5]


EVENT_FIELDS = {
    sim.TxEvent: ("tick", "actor", "action", "tag", "ok", "reason", "block", "honest"),
    sim.ValidateEvent: ("tick", "validator", "tag", "reason"),
    sim.ReviewEvent: (
        "tick", "leader", "meeting", "subject_user", "subject_device", "verdict",
        "granted",
    ),
    sim.KeyEpochEvent: (
        "tick", "meeting", "epoch", "leader", "leader_ivk", "recipients", "key_digest",
    ),
    sim.AcceptKeyEvent: ("tick", "actor", "meeting", "epoch", "ok"),
    sim.PacketEvent: (
        "tick", "sender", "meeting", "stream", "epoch", "counter", "nbytes",
        "key_digest", "nonce",
    ),
    sim.DecryptEvent: (
        "tick", "actor", "meeting", "stream", "epoch", "counter", "ok", "actor_ivk",
        "ghost", "tampered", "epoch_at_leave",
    ),
    sim.DepartureEvent: ("tick", "actor", "meeting", "epoch_at_leave"),
    sim.AdversaryEvent: ("tick", "actor", "attack", "failed", "detail"),
    sim.CheckEvent: ("name", "ok", "detail"),
}


@pytest.mark.parametrize("kind", list(EVENT_FIELDS), ids=lambda kind: kind.__name__)
def test_event_fields_keep_their_order_and_replace(kind):
    names = EVENT_FIELDS[kind]
    assert tuple(f.name for f in dataclasses.fields(kind)) == names
    event = kind(*(f"v{i}" for i in range(len(names))))
    assert not hasattr(event, "__dict__")  # slotted
    changed = dataclasses.replace(event, **{names[-1]: "new"})
    assert getattr(changed, names[-1]) == "new" and changed != event
    assert getattr(event, names[-1]) == f"v{len(names) - 1}"
    assert dataclasses.replace(event) == event


def test_each_packet_costs_one_open_per_attempt(monkeypatch):
    """A packet is opened once for each key object its readers and ghosts
    hold (here no two holders of one key are apart), once for the tamper
    probe and twice for each eavesdropper, while every reader and ghost still
    gets its own event; its nonce and AAD are laid out twice (seal, delivery)
    however many read it."""
    simulation = sim.Simulation(
        sim.parse_scenario(
            """
            seed 5
            actor alice a
            actor bob b
            actor carol c
            actor dave d
            actor eve e adversary
            actor frank f adversary
            tick 1 alice publish
            tick 2 bob request
            tick 3 carol request
            tick 4 dave request
            tick 5 alice distribute
            tick 6 bob packet 1 32
            tick 7 eve adversary.eavesdrop
            tick 8 dave leave
            tick 9 alice distribute
            tick 10 frank adversary.eavesdrop
            tick 11 carol packet 2 32
            """
        )
    )
    opens = Counter()
    for module, name in ((crypto.AeadKey, "open"), (m, "media_nonce"), (m, "media_aad")):

        def counted(*args, name=name, real=getattr(module, name)):
            opens[name, simulation.tick] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    simulation.run()
    assert simulation.report.ok

    def expected(keys, eavesdroppers):
        return keys + 1 + 2 * eavesdroppers

    # tick 6: alice, carol and dave read under epoch 0's one key; tick 11:
    # alice and bob read under epoch 1's, dave's ghost tries epoch 0's, and
    # eve and frank eavesdrop
    assert opens["open", 6] == expected(keys=1, eavesdroppers=0)
    assert opens["open", 11] == expected(keys=2, eavesdroppers=2)
    # two guesses at the one captured packet
    assert opens["open", 7] == opens["open", 10] == 2
    for tick, readers, ghosts in ((6, 3, 0), (11, 2, 1)):
        events = [e for e in simulation.transcript if getattr(e, "tick", None) == tick]
        decrypts = [e for e in events if isinstance(e, sim.DecryptEvent)]
        assert sum(e.ghost for e in decrypts) == ghosts
        assert sum(not e.ghost and not e.tampered for e in decrypts) == readers
        assert sum(e.tampered for e in decrypts) == 1
        assert opens["media_nonce", tick] == opens["media_aad", tick] == 2


class OwnKeyCopies(sim.Simulation):
    """Every party keeps its own copy of each key it holds, so each reader
    and ghost of a packet opens it for itself."""

    def _take_key(self, run, dist, key):
        super()._take_key(run, dist, key)
        for session in run.sessions.values():
            if session.known_mk is not None:
                session.known_mk = m.MeetingKey(session.known_mk.key, session.known_mk.epoch)


# one packet's readers and ghosts hold different key objects: dave leaves
# before a rekey and erin after it; bob sits in a second meeting whose key
# distribution mallory splices into the first; alice hands over to bob, whose
# rekey leaves her, still present, with the old key
MIXED_KEYS = """
seed 31
actor alice laptop
actor bob phone
actor carol tablet
actor dave desk
actor erin watch
actor frank den
actor mallory lair adversary
tick 1 alice publish first room
tick 2 frank publish second room
tick 3 bob request 0
tick 4 carol request 0
tick 5 dave request 0
tick 6 erin request 0
tick 7 bob request 1
tick 8 alice distribute 0
tick 9 frank distribute 1
tick 10 mallory adversary.eavesdrop
tick 11 bob packet 1 32 0
tick 12 dave leave 0
tick 13 alice distribute 0
tick 14 erin leave 0
tick 15 carol packet 2 32 0
tick 16 mallory adversary.mix_keys bob 0 1
tick 17 bob packet 1 40 0
tick 18 bob packet 1 40 1
tick 19 alice distribute 0
tick 20 alice packet 3 24 0
tick 21 alice reassign bob 0
tick 22 carol packet 2 20 0
"""


@pytest.mark.parametrize("name", sim.bundled_scenario_names() + ["mixed_keys"])
def test_shared_opens_match_every_reader_opening_for_itself(name, monkeypatch):
    """Readers and ghosts that share a key object share its open; the
    transcript and both ledgers are byte for byte those of a run in which
    every party holds its own copy of each key and opens for itself."""
    text = MIXED_KEYS if name == "mixed_keys" else sim.load_scenario_text(name)
    calls = []
    real = crypto.AeadKey.open

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(crypto.AeadKey, "open", counted)
    shared = sim.Simulation(sim.parse_scenario(text)).run()
    shared_opens = len(calls)
    own = OwnKeyCopies(sim.parse_scenario(text)).run()
    own_opens = len(calls) - shared_opens
    assert sim.render_transcript(shared) == sim.render_transcript(own)
    for ledger in ("identity_ledger", "meeting_ledger"):
        assert dump_hex_lines(getattr(shared, ledger)) == dump_hex_lines(getattr(own, ledger))
    assert shared.report.ok and own.report.ok
    assert own_opens >= shared_opens
    if name == "mixed_keys":
        # sharing saves 3 opens at t=11, where four readers hold epoch 0's
        # key; 1 at each of t=15, 17 and 20, where two readers share a key
        # and the ghosts hold others; and 1 more at each of t=15 and 17,
        # where erin's ghost holds the readers' key after dave's older one
        assert own_opens - shared_opens == 8
        decrypts = events_of(shared, sim.DecryptEvent)
        ghosts = {(e.tick, e.actor): e.ok for e in decrypts if e.ghost}
        assert ghosts[15, "dave"] is False and ghosts[15, "erin"] is True
        assert ghosts[20, "erin"] is False
        readers = {
            e.actor: e.ok for e in decrypts if e.tick == 22 and not (e.ghost or e.tampered)
        }
        assert readers == {"alice": False, "bob": True}


def test_a_ghost_holding_the_readers_key_takes_their_open(monkeypatch):
    """At t=15 of MIXED_KEYS, alice and bob read under epoch 1's key, dave's
    ghost holds epoch 0's and erin's ghost epoch 1's after it: two key
    objects, so two opens under members' and ghosts' keys."""
    simulation = sim.Simulation(sim.parse_scenario(MIXED_KEYS))
    keys = []
    real = m.Delivery.open

    def counted(delivery, key, sealed=None):
        # the tamper probe passes its own bytes; eavesdroppers try the zero key
        if simulation.tick == 15 and sealed is None and key is not simulation.zero_key:
            keys.append(key)
        return real(delivery, key, sealed)

    monkeypatch.setattr(m.Delivery, "open", counted)
    simulation.run()
    assert simulation.report.ok
    assert len(keys) == 2 and keys[0] is not keys[1]
    assert [key.epoch for key in keys] == [1, 0]


@pytest.mark.parametrize("nbytes", [0, 32])
def test_tamper_probe_flips_one_bit_of_the_delivered_bytes(nbytes, monkeypatch):
    """The probe opens the delivery's own ciphertext || tag with one bit
    flipped: ciphertext byte `counter % len`, or tag byte 0 for an empty
    payload. It is refused while every honest reader succeeds."""
    simulation = sim.Simulation(
        sim.parse_scenario(
            f"""
            seed 4
            actor alice a
            actor bob b
            actor carol c
            tick 1 alice publish
            tick 2 bob request
            tick 3 carol request
            tick 4 alice distribute
            tick 5 bob packet 1 {nbytes}
            tick 6 bob packet 1 {nbytes}
            """
        )
    )
    opened = []
    real = crypto.AeadKey.open

    def recorded(key, nonce, sealed, aad):
        if simulation.tick >= 5:
            opened.append((simulation.tick, sealed))
        return real(key, nonce, sealed, aad)

    monkeypatch.setattr(crypto.AeadKey, "open", recorded)
    simulation.run()
    assert simulation.report.ok
    for (meeting_id, packet), tick in zip(simulation.packets, (5, 6)):
        sealed = packet.box.ciphertext + packet.box.tag
        assert len(sealed) == nbytes + crypto.TAG_LEN
        position = packet.counter % nbytes if nbytes else 0
        flipped = bytearray(sealed)
        flipped[position] ^= 0x01
        # alice and carol share one open of the packet itself, then carol
        # gets the probe
        assert [s for t, s in opened if t == tick] == [sealed, bytes(flipped)]
        decrypts = [
            (e.actor, e.tampered, e.ok)
            for e in events_of(simulation, sim.DecryptEvent)
            if e.tick == tick
        ]
        assert decrypts == [
            ("alice", False, True), ("carol", False, True), ("alice", True, False)
        ]


def cyclic_garbage(run):
    """How many objects only the cycle collector could free after `run()`,
    with the collector off from a clean start until then, and their types."""
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        return found, Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if collecting:
            gc.enable()


@pytest.mark.parametrize("name", sim.bundled_scenario_names() + ["mixed_keys"])
def test_a_run_leaves_nothing_for_the_cycle_collector(name):
    """`Simulation.run` pauses the collector because a run makes no
    reference cycles: afterwards it finds nothing unreachable."""
    text = MIXED_KEYS if name == "mixed_keys" else sim.load_scenario_text(name)
    found, types = cyclic_garbage(lambda: sim.run_scenario_text(text))
    assert found == 0, f"unreachable after the run: {dict(types)}"


@pytest.mark.parametrize("collecting", [True, False])
def test_a_run_leaves_the_collector_as_it_found_it(collecting):
    honest = sim.load_scenario_text("honest")
    failing = late_error_script("alice reassign bob\ntick 5 alice distribute")
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        sim.run_scenario_text(honest)
        assert gc.isenabled() is collecting
        with pytest.raises(InvalidTransaction, match="^t=5: not_current_leader: "):
            sim.run_scenario_text(failing)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("members", [3, 6])
def test_stream_contexts_are_derived_once_per_epoch_key(members, monkeypatch):
    """Every member that unwraps the leader's key holds the leader's object,
    so across two epochs a stream key is derived once per (epoch key,
    stream) in use, however many read; the eavesdropper's guesses are stream
    keys already and derive none."""
    names = [f"m{i}" for i in range(members)]
    first, second, leaver = names[0], names[1], names[-1]
    lines = ["seed 17", "actor alice a", "actor bob b", "actor eve e adversary"]
    lines += [f"actor {name} d{name}" for name in names]
    script = ["alice publish", "bob publish"]
    script += [f"{name} request" for name in names]
    script += [
        "alice distribute",
        f"{first} packet 1 32",
        f"{second} packet 2 32",
        "alice packet 3 32",
        "eve adversary.eavesdrop",
        f"{leaver} leave",
        "alice distribute",
        f"{first} packet 1 32",
        f"{second} packet 2 32",
        f"{first} request 1",
        "bob distribute 1",
        f"eve adversary.mix_keys {first} 0 1",
    ]
    lines += [f"tick {tick} {action}" for tick, action in enumerate(script, 1)]
    simulation = sim.Simulation(sim.parse_scenario("\n".join(lines)))
    derived = []
    real = m.derive_stream_key

    def counted(meeting_key, stream_id):
        derived.append((meeting_key, stream_id))
        return real(meeting_key, stream_id)

    monkeypatch.setattr(m, "derive_stream_key", counted)
    simulation.run()
    assert simulation.report.ok

    packets = events_of(simulation, sim.PacketEvent)
    in_use = {(p.meeting, p.epoch, p.stream) for p in packets}
    assert len(in_use) == 5  # streams 1 to 3 in epoch 0, 1 and 2 in epoch 1
    attacks = events_of(simulation, sim.AdversaryEvent)
    (capture,) = [a for a in attacks if a.detail.startswith("captured=")]
    guesses = int(capture.detail.split()[0].split("=")[1])  # captured=N
    guesses += sum(a.attack == "eavesdrop" and a is not capture for a in attacks)
    zero_key_streams = {p.stream for p in packets}
    assert guesses > 0
    assert len(derived) == len(set(derived))
    assert len(derived) == len(in_use) + len(zero_key_streams)

    meeting_0, meeting_1 = simulation.meetings
    for run, leader in ((meeting_0, "alice"), (meeting_1, "bob")):
        held = run.sessions[simulation.actors[leader]].known_mk
        sessions = list(run.sessions.values())
        assert len(sessions) > 1 and all(s.known_mk is held for s in sessions)

    (ghost,) = meeting_0.ghosts
    stale = ghost.key
    assert stale.epoch == 0  # the object it held when it left
    opens = [
        (packet.epoch, m.Delivery(meeting_id, packet).open(stale) is not None)
        for meeting_id, packet in simulation.packets
    ]
    assert opens == [(0, True)] * 3 + [(1, False)] * 2
    ghost_reads = [e for e in events_of(simulation, sim.DecryptEvent) if e.ghost]
    assert len(ghost_reads) == 2 and not any(e.ok for e in ghost_reads)

    (mix,) = [a for a in attacks if a.attack == "mix_keys"]
    assert mix.failed and "key_untouched=1" in mix.detail


# payload sizes either side of a keystream block, a typical packet and the cap
SKIPPED_PAYLOADS = """
    seed 23
    actor alice a
    actor bob b
    actor carol c
    actor dave d
    actor eve e adversary
    tick 1 alice publish
    tick 2 bob request
    tick 3 carol request
    tick 4 alice distribute
    tick 5 bob packet 1 0
    tick 6 carol packet 2 1
    tick 7 dave request
    tick 8 alice packet 3 31
    tick 9 alice distribute
    tick 10 bob packet 1 33
    tick 11 carol leave
    tick 12 alice distribute
    tick 13 eve adversary.eavesdrop
    tick 14 bob packet 1 1200
    tick 15 alice packet 3 65536
    tick 16 eve adversary.eavesdrop
    tick 17 dave packet 2 1200
"""


def test_skipped_payloads_leave_the_transcript_as_drawn_ones(monkeypatch):
    """Stepping over a payload's keystream leaves every later key, nonce and
    guess where drawing the bytes and dropping them would: the transcript and
    both ledgers come out the same."""
    skipped = sim.run_scenario_text(SKIPPED_PAYLOADS)
    assert skipped.report.ok
    assert {e.nbytes for e in events_of(skipped, sim.PacketEvent)} == {
        0, 1, 31, 33, 1200, 65536
    }

    def take_and_drop(rng, n):
        rng.take(n)

    monkeypatch.setattr(DeterministicRng, "skip", take_and_drop)
    drawn = sim.run_scenario_text(SKIPPED_PAYLOADS)
    assert sim.render_transcript(skipped) == sim.render_transcript(drawn)
    for ledger in ("identity_ledger", "meeting_ledger"):
        assert dump_hex_lines(getattr(skipped, ledger)) == dump_hex_lines(getattr(drawn, ledger))


def test_a_packet_hashes_at_most_one_keystream_block(monkeypatch):
    """A 1,200 B payload steps over its 38 keystream blocks, hashing at most
    the last one it steps into."""
    simulation = sim.Simulation(
        sim.parse_scenario(
            """
            seed 9
            actor alice a
            actor bob b
            tick 1 alice publish
            tick 2 bob request
            tick 3 alice distribute
            tick 4 bob packet 1 1200
            tick 5 alice packet 2 1200
            tick 6 bob packet 1 1200
            """
        )
    )
    blocks = Counter()

    def counted(data):
        blocks[simulation.tick] += 1
        return hashlib.sha256(data)

    monkeypatch.setattr(rng_mod, "hashlib", types.SimpleNamespace(sha256=counted))
    simulation.run()
    assert simulation.report.ok
    assert [e.tick for e in events_of(simulation, sim.PacketEvent)] == [4, 5, 6]
    assert all(blocks[tick] <= 1 for tick in (4, 5, 6))


@pytest.mark.parametrize("name", sim.bundled_scenario_names())
def test_one_body_decode_per_meeting_transaction_offered(name, monkeypatch):
    """The ledger's judgement decodes a meeting body; nothing decodes it again."""
    bodies = set(typing.get_args(m.MeetingTx))
    decodes = offered = 0
    read, append = Wire.read.__func__, Ledger.append_block

    def counted_read(cls, reader):
        nonlocal decodes
        decodes += cls in bodies
        return read(cls, reader)

    def counted_append(ledger, txs, timestamp):
        nonlocal offered
        if ledger.kind is LedgerKind.MEETING:
            offered += len(txs)
        return append(ledger, txs, timestamp)

    monkeypatch.setattr(Wire, "read", classmethod(counted_read))
    monkeypatch.setattr(Ledger, "append_block", counted_append)
    run_bundled(name)
    assert offered > 0 and decodes == offered


@pytest.mark.parametrize("name", sim.bundled_scenario_names())
def test_a_key_epoch_lists_the_entries_of_its_admitted_distribution(name):
    """A key-epoch line's recipients come from `view.members()`, read as the
    distribution is built; the chain admits no epk a distribution could skip,
    so they are the entries of the distribution submitted next, in order."""
    simulation = run_bundled(name)
    transcript = simulation.transcript
    admitted = 0
    for event, submitted in zip(transcript, transcript[1:]):
        if not isinstance(event, sim.KeyEpochEvent):
            continue
        assert (submitted.action, submitted.tag) == ("distribute", "KEY_DISTRIBUTION")
        if submitted.ok:
            (tx,) = simulation.meeting_ledger.blocks[submitted.block].txs
            dist = tx.payload
            assert (dist.meeting_id, dist.epoch) == (
                simulation.meetings[event.meeting].id, event.epoch
            )
            assert tuple(e.recipient_ivk for e in dist.entries) == event.recipients
            admitted += 1
    assert admitted > 0


def test_transcript_ends_with_check_lines():
    simulation = run_bundled("join_rekey")
    text = sim.render_transcript(simulation)
    lines = text.splitlines()
    assert lines[0].startswith("# seed=2003 rule=designation")
    assert lines[-1] == "[t=end] check name=all-goals ok=1"
    assert sum(1 for l in lines if l.startswith("[t=end] check")) == 8


def test_delivery_follows_declaration_order_not_join_order():
    simulation = sim.run_scenario_text(
        """
        seed 9
        actor dave d
        actor carol c
        actor bob b
        actor alice a
        actor eve e adversary
        tick 1 alice publish
        tick 2 bob request
        tick 3 carol request
        tick 4 dave request
        tick 5 alice distribute
        tick 6 eve adversary.eavesdrop
        tick 7 bob packet 1 16
        tick 8 carol leave
        tick 9 alice distribute
        tick 10 bob packet 1 16
        tick 11 carol request
        tick 12 alice distribute
        tick 13 bob packet 1 16
        tick 14 alice dismiss
        """
    )
    assert simulation.report.ok

    def delivered(tick):
        return [
            (type(e).__name__, getattr(e, "actor", None), getattr(e, "ghost", False),
             getattr(e, "tampered", False))
            for e in simulation.transcript
            if getattr(e, "tick", None) == tick and not isinstance(e, sim.PacketEvent)
        ]

    assert delivered(7) == [
        ("DecryptEvent", "dave", False, False),
        ("DecryptEvent", "carol", False, False),
        ("DecryptEvent", "alice", False, False),
        ("DecryptEvent", "dave", False, True),
        ("AdversaryEvent", "eve", False, False),
    ]
    assert delivered(10) == [
        ("DecryptEvent", "dave", False, False),
        ("DecryptEvent", "alice", False, False),
        ("DecryptEvent", "carol", True, False),
        ("DecryptEvent", "dave", False, True),
        ("AdversaryEvent", "eve", False, False),
    ]
    # carol rejoins in her declared place, not after the others
    assert [
        e.actor for e in events_of(simulation, sim.AcceptKeyEvent) if e.tick == 12
    ] == ["dave", "carol", "bob"]
    assert [
        (e.actor, e.ok) for e in events_of(simulation, sim.DecryptEvent)
        if e.tick == 13 and not e.ghost and not e.tampered
    ] == [("dave", True), ("carol", True), ("alice", True)]
    ghost_reads = [e for e in events_of(simulation, sim.DecryptEvent) if e.ghost]
    assert [e.tick for e in ghost_reads] == [10, 13]
    assert all(e.epoch_at_leave == 0 and not e.ok for e in ghost_reads)
    # the dismissal took every session, and emptied the meeting's sessions
    # and ghosts
    (run,) = simulation.meetings
    assert run.sessions == {} and run.ghosts == []
