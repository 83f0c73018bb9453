"""Kept chain state: blocks land whole or not at all, rebuilds match the live
state, and each admitted transaction has its signature checked once."""

import pytest

from chainmeet import crypto, identity as ident, meeting as m, sim
from chainmeet.errors import InvalidTransaction, Reason
from chainmeet.ledger import LedgerKind, dump_hex_lines, load_hex_lines
from chainmeet.rng import DeterministicRng


def registered(rng, identity_ledger, user, device="dev"):
    pair = crypto.identity_keygen(rng)
    identity_ledger.append_block([ident.register_identity(user, device, pair)], 0)
    return m.ParticipantState(user=user, device=device, keypair=pair)


def reviewed_meeting(seed=5):
    """alice publishes, bob requests, alice reviews: ready to distribute."""
    rng = DeterministicRng(seed)
    identity_ledger = ident.new_identity_ledger()
    meeting_ledger = m.new_meeting_ledger(identity_ledger)
    alice = registered(rng, identity_ledger, "alice")
    bob = registered(rng, identity_ledger, "bob")
    meeting_ledger.append_block([m.publish_meeting(alice, "sync", rng)], 1)
    meeting_ledger.append_block(
        [m.make_request(bob, meeting_ledger, alice.meeting_id, rng)], 2
    )
    m.review_requests(alice, meeting_ledger)
    return rng, identity_ledger, meeting_ledger, alice, bob


# ---------------------------------------------------------------------------
# each transaction is judged with the earlier ones of its block applied


def test_two_bindings_of_one_device_in_one_block_refused():
    rng = DeterministicRng(11)
    ledger = ident.new_identity_ledger()
    first, second = crypto.identity_keygen(rng), crypto.identity_keygen(rng)
    block = [
        ident.register_identity("ada", "laptop", first),
        ident.register_identity("ada", "laptop", second),
    ]
    with pytest.raises(InvalidTransaction) as err:
        ledger.append_block(block, timestamp=1)
    assert err.value.reason == Reason.DUPLICATE_BINDING
    # nothing of the refused block stays behind, in the chain or the state
    assert len(ledger.blocks) == 1
    assert ident.find_identity(ledger, "ada", "laptop") is None
    assert not ident.ivk_registered(ledger, first.ivk)
    ledger.append_block(block[:1], timestamp=1)
    assert ident.resolve_identity(ledger, "ada", "laptop") == first.ivk


def test_two_identical_publishes_in_one_block_refused():
    rng = DeterministicRng(12)
    identity_ledger = ident.new_identity_ledger()
    meeting_ledger = m.new_meeting_ledger(identity_ledger)
    alice = registered(rng, identity_ledger, "alice")
    publish = m.publish_meeting(alice, "twice", rng)
    with pytest.raises(InvalidTransaction) as err:
        meeting_ledger.append_block([publish, publish], timestamp=1)
    assert err.value.reason == Reason.DUPLICATE_MEETING
    assert len(meeting_ledger.blocks) == 1
    view = m.build_view(meeting_ledger, alice.meeting_id)
    assert not view.exists
    meeting_ledger.append_block([publish], timestamp=1)
    assert m.build_view(meeting_ledger, alice.meeting_id).exists


def test_two_epoch_zero_distributions_in_one_block_refused():
    rng, identity_ledger, meeting_ledger, alice, _ = reviewed_meeting()
    first = m.distribute_key(alice, rng)
    alice.last_epoch = None  # mint a second, competing epoch 0
    second = m.distribute_key(alice, rng)
    assert m.KeyDistribution.parse(second.body).epoch == 0
    with pytest.raises(InvalidTransaction) as err:
        meeting_ledger.append_block([first, second], timestamp=3)
    assert err.value.reason == Reason.BAD_EPOCH
    view = m.build_view(meeting_ledger, alice.meeting_id)
    assert view.last_epoch is None and view.distributions == {}
    meeting_ledger.append_block([second], timestamp=3)
    view = m.build_view(meeting_ledger, alice.meeting_id)
    assert view.last_epoch == 0


def test_block_of_consistent_transactions_lands_whole():
    rng = DeterministicRng(13)
    identity_ledger = ident.new_identity_ledger()
    meeting_ledger = m.new_meeting_ledger(identity_ledger)
    alice = registered(rng, identity_ledger, "alice")
    bob = registered(rng, identity_ledger, "bob")
    publish = m.publish_meeting(alice, "batched", rng)
    # the request is judged against the publish earlier in its own block
    request = m.signed_tx(
        m.MeetingRequest(alice.meeting_id, "bob", "dev", bob.keypair.ivk,
                         crypto.ephemeral_keygen(rng).epk),
        bob.keypair.isk,
    )
    meeting_ledger.append_block([publish, request], timestamp=1)
    view = m.build_view(meeting_ledger, alice.meeting_id)
    assert [r.request.user for r in view.members()] == ["bob"]


# ---------------------------------------------------------------------------
# rebuilt state equals the state kept on append


def view_facts(view):
    return (
        view.exists, view.info, view.leader_ivk, view.dismissed, view.last_epoch,
        view.distributions, view.present_leader_ivks, view.request_hashes,
        [(r.request, r.block_index, r.block_pos, r.signed, r.active)
         for r in view.requests],
    )


def test_loaded_ledgers_rebuild_the_state_they_were_saved_with():
    simulation = sim.run_scenario_text(sim.load_scenario_text("leave_rekey"))
    identity = load_hex_lines(
        LedgerKind.IDENTITY, dump_hex_lines(simulation.identity_ledger),
        ident.IdentityState(),
    )
    assert identity.state.records == simulation.identity_ledger.state.records
    assert identity.state.ivks == simulation.identity_ledger.state.ivks
    meeting = load_hex_lines(
        LedgerKind.MEETING, dump_hex_lines(simulation.meeting_ledger),
        m.MeetingState(identity, simulation.rule),
    )
    live = simulation.meeting_ledger.state.views
    assert live and sorted(meeting.state.views) == sorted(live)
    for meeting_id, view in live.items():
        assert view_facts(meeting.state.views[meeting_id]) == view_facts(view)


def test_prune_rebuilds_the_state_from_the_blocks_kept():
    rng, identity_ledger, meeting_ledger, alice, bob = reviewed_meeting()
    meeting_ledger.append_block([m.distribute_key(alice, rng)], 3)
    meeting_ledger.prune(2)  # drops the publish, keeps the request onward
    view = m.build_view(meeting_ledger, alice.meeting_id)
    assert not view.exists and view.last_epoch == 0
    assert [r.request.user for r in view.requests] == ["bob"]
    assert view.requests[0].signed


def test_identity_registered_after_the_request_counts_from_then_on():
    rng = DeterministicRng(14)
    identity_ledger = ident.new_identity_ledger()
    meeting_ledger = m.new_meeting_ledger(identity_ledger)
    alice = registered(rng, identity_ledger, "alice")
    meeting_ledger.append_block([m.publish_meeting(alice, "late", rng)], 1)
    late = m.ParticipantState("lee", "dev", crypto.identity_keygen(rng))
    meeting_ledger.append_block(
        [m.make_request(late, meeting_ledger, alice.meeting_id, rng)], 2
    )
    view = m.build_view(meeting_ledger, alice.meeting_id)
    assert view.request_verdict(view.requests[0]) == Reason.UNKNOWN_IDENTITY
    assert view.members() == []
    identity_ledger.append_block(
        [ident.register_identity("lee", "dev", late.keypair)], 3
    )
    assert view.request_verdict(view.requests[0]) is None
    assert [r.request.user for r in view.members()] == ["lee"]


# ---------------------------------------------------------------------------
# one signature check per admitted transaction


@pytest.mark.parametrize("name", ["honest", "reassign_designation"])
def test_one_signature_check_per_admitted_transaction(monkeypatch, name):
    checks = []
    verify = crypto.verify

    def counted(*args):
        checks.append(args)
        return verify(*args)

    monkeypatch.setattr(crypto, "verify", counted)
    simulation = sim.run_scenario_text(sim.load_scenario_text(name))
    assert simulation.report.ok
    admitted = [e for e in simulation.transcript if isinstance(e, sim.TxEvent) and e.ok]
    # a designated handover also carries the outgoing leader's co-signature
    cosigned = [e for e in admitted if e.tag == "LEADER_REASSIGN"]
    assert simulation.rule is m.ReassignRule.DESIGNATION
    assert len(checks) == len(admitted) + len(cosigned)
