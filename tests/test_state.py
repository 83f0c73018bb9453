"""Kept chain state, written only by admission: blocks land whole or not at
all and a refused block is put back in place, a loaded ledger is re-admitted
to the live state, and each admitted transaction has its signature checked
once, under the key it records as its signer."""

import tracemalloc
from dataclasses import replace

import pytest

from chainmeet import crypto, identity as ident, meeting as m, sim
from chainmeet.errors import InvalidTransaction, Reason
from chainmeet.ledger import (
    LedgerKind, TxTag, dump_hex_lines, load_hex_lines, make_block, parse_block,
)
from chainmeet.rng import DeterministicRng


def registered(rng, identity_ledger, user, device="dev"):
    pair = crypto.identity_keygen(rng)
    identity_ledger.append_block([ident.register_identity(user, device, pair)], 0)
    return m.ParticipantState(user=user, device=device, keypair=pair)


def forged(lines, tag, edit, signer=None):
    """Persisted blocks with the body of the first `tag` transaction passed
    through `edit`, and every block from there on rehashed and relinked, so
    that only a signature can tell; or, signed again by `signer`, only the
    body itself."""
    blocks = [parse_block(bytes.fromhex(line)) for line in lines]
    at, pos = next(
        (i, j) for i, block in enumerate(blocks)
        for j, tx in enumerate(block.txs) if tx.tag == tag
    )
    txs = list(blocks[at].txs)
    txs[pos] = replace(txs[pos], body=edit(txs[pos].body))
    if signer is not None:
        txs[pos] = replace(txs[pos], signature=crypto.sign(signer, txs[pos].signing_bytes))
    blocks[at] = replace(blocks[at], txs=tuple(txs))
    for i in range(at, len(blocks)):
        block = blocks[i]
        blocks[i] = make_block(block.index, blocks[i - 1].block_hash, block.timestamp, block.txs)
    return [block.encode().hex() for block in blocks]


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


def view_facts(view):
    return (
        view.exists, view.rule, view.leader_ivk, view.dismissed, view.last_distribution,
        view.membership_changed, dict(view.leaders), set(view.request_txs),
        list(view.requests), list(view.present.items()),
    )


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
    assert ident.find_identity(ledger, "ada", "laptop").ivk == first.ivk


def test_refused_block_keeps_a_key_registered_before_it():
    rng = DeterministicRng(15)
    ledger = ident.new_identity_ledger()
    pair = crypto.identity_keygen(rng)
    ledger.append_block([ident.register_identity("ada", "laptop", pair)], timestamp=1)
    block = [
        ident.register_identity("ada", "phone", pair),
        ident.register_identity("ada", "laptop", pair),
    ]
    with pytest.raises(InvalidTransaction) as err:
        ledger.append_block(block, timestamp=2)
    assert err.value.reason == Reason.DUPLICATE_BINDING
    assert ident.find_identity(ledger, "ada", "phone") is None
    assert ident.ivk_registered(ledger, pair.ivk)


def test_refused_block_drops_a_key_shared_by_two_of_its_bindings():
    rng = DeterministicRng(16)
    ledger = ident.new_identity_ledger()
    pair = crypto.identity_keygen(rng)
    block = [
        ident.register_identity("ada", "laptop", pair),
        ident.register_identity("ada", "phone", pair),
        ident.register_identity("ada", "laptop", pair),
    ]
    with pytest.raises(InvalidTransaction) as err:
        ledger.append_block(block, timestamp=1)
    assert err.value.reason == Reason.DUPLICATE_BINDING
    assert ident.find_identity(ledger, "ada", "laptop") is None
    assert ident.find_identity(ledger, "ada", "phone") is None
    assert not ident.ivk_registered(ledger, pair.ivk)


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
    first, _ = m.distribute_key(alice, meeting_ledger, rng)
    second, _ = m.distribute_key(alice, meeting_ledger, rng)  # a competing epoch 0
    assert m.KeyDistribution.parse(second.body).epoch == 0
    with pytest.raises(InvalidTransaction) as err:
        meeting_ledger.append_block([first, second], timestamp=3)
    assert err.value.reason == Reason.BAD_EPOCH
    view = m.build_view(meeting_ledger, alice.meeting_id)
    assert view.next_epoch == 0 and view.last_distribution is None
    meeting_ledger.append_block([second], timestamp=3)
    view = m.build_view(meeting_ledger, alice.meeting_id)
    assert view.next_epoch == 1


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


def test_view_held_across_a_refused_block_reads_as_before_it():
    rng, identity_ledger, meeting_ledger, alice, _ = reviewed_meeting()
    carol = registered(rng, identity_ledger, "carol")
    view = m.build_view(meeting_ledger, alice.meeting_id)
    facts = view_facts(view)
    request = m.make_request(carol, meeting_ledger, alice.meeting_id, rng)
    publish = meeting_ledger.blocks[1].txs[0]
    with pytest.raises(InvalidTransaction) as err:
        meeting_ledger.append_block([request, publish], timestamp=3)
    assert err.value.reason == Reason.DUPLICATE_MEETING
    # put back in place: the held view is still the live one
    assert m.build_view(meeting_ledger, alice.meeting_id) is view
    assert view_facts(view) == facts
    meeting_ledger.append_block([request], timestamp=3)
    assert [r.request.user for r in view.members()] == ["bob", "carol"]
    assert request in view.request_txs


def test_refused_block_after_a_distribution_puts_the_cleared_rekey_flag_back():
    rng, identity_ledger, meeting_ledger, alice, _ = reviewed_meeting()
    tx, _ = m.distribute_key(alice, meeting_ledger, rng)
    meeting_ledger.append_block([tx], timestamp=3)
    view = m.build_view(meeting_ledger, alice.meeting_id)
    assert not view.membership_changed
    facts = view_facts(view)
    carol = registered(rng, identity_ledger, "carol")
    request = m.make_request(carol, meeting_ledger, alice.meeting_id, rng)
    publish = meeting_ledger.blocks[1].txs[0]
    # the request sets the flag before the repeated publish is refused
    with pytest.raises(InvalidTransaction) as err:
        meeting_ledger.append_block([request, publish], timestamp=4)
    assert err.value.reason == Reason.DUPLICATE_MEETING
    assert view_facts(view) == facts
    # no membership change landed, so the leader may not rekey
    with pytest.raises(InvalidTransaction) as err:
        m.distribute_key(alice, meeting_ledger, rng)
    assert err.value.reason == Reason.RULE_VIOLATION
    meeting_ledger.append_block([request], timestamp=4)
    assert view.membership_changed


def churned_meeting(cycles):
    """A reviewed meeting that carol has joined and left `cycles` + 1 times,
    so its request history holds `cycles` + 2 requests."""
    rng, identity_ledger, meeting_ledger, alice, bob = reviewed_meeting()
    carol = registered(rng, identity_ledger, "carol")
    tick = 3
    for _ in range(cycles + 1):
        meeting_ledger.append_block(
            [m.make_request(carol, meeting_ledger, alice.meeting_id, rng)], tick
        )
        meeting_ledger.append_block([m.make_leave(carol)], tick + 1)
        tick += 2
    return meeting_ledger, alice, bob, carol, rng, tick


def refuse_leave_and_rejoin(meeting_ledger, alice, bob, rng, tick):
    """Offer a block in which bob leaves and requests again, then repeats
    the meeting's publish; the block is refused at its third transaction."""
    rejoin = m.ParticipantState(user="bob", device="dev", keypair=bob.keypair)
    txs = [
        m.make_leave(bob),
        m.make_request(rejoin, meeting_ledger, alice.meeting_id, rng),
        meeting_ledger.blocks[1].txs[0],
    ]
    with pytest.raises(InvalidTransaction) as err:
        meeting_ledger.append_block(txs, timestamp=tick)
    assert err.value.reason == Reason.DUPLICATE_MEETING


def test_refused_block_puts_the_view_back_exactly():
    meeting_ledger, alice, bob, carol, rng, tick = churned_meeting(2)
    meeting_ledger.append_block(
        [m.make_request(carol, meeting_ledger, alice.meeting_id, rng)], tick
    )
    view = m.build_view(meeting_ledger, alice.meeting_id)
    assert [key[0] for key in view.present] == ["bob", "carol"]
    facts = view_facts(view)
    # the refused leave moved bob behind carol before the block was undone
    refuse_leave_and_rejoin(meeting_ledger, alice, bob, rng, tick + 1)
    assert m.build_view(meeting_ledger, alice.meeting_id) is view
    assert view_facts(view) == facts


@pytest.mark.parametrize("step", ["handover", "leader-leave"])
def test_refused_block_puts_leadership_back_exactly(step):
    """A block that changes who leads, then is refused, leaves the leader
    and the epk the view announced for it as they were."""
    rng, identity_ledger, meeting_ledger, alice, bob = reviewed_meeting()
    view = m.build_view(meeting_ledger, alice.meeting_id)
    facts = view_facts(view)
    if step == "handover":
        tx, _ = m.build_reassign(view, alice.keypair, bob.keypair, rng)
    else:
        tx = m.make_leave(alice)
    with pytest.raises(InvalidTransaction) as err:
        meeting_ledger.append_block([tx, meeting_ledger.blocks[1].txs[0]], timestamp=3)
    assert err.value.reason == Reason.DUPLICATE_MEETING
    assert m.build_view(meeting_ledger, alice.meeting_id) is view
    assert view_facts(view) == facts
    assert view.leaders == {alice.keypair.ivk: alice.ephemeral.epk}
    # alice still leads, and the block lands once its refused tail is gone
    assert m.review_requests(alice, meeting_ledger) != []
    meeting_ledger.append_block([tx], timestamp=3)
    assert view_facts(view) != facts


def test_undoing_a_refused_block_costs_the_live_meeting_not_its_history():
    peaks = []
    for cycles in (20, 2000):
        meeting_ledger, alice, bob, _, rng, tick = churned_meeting(cycles)
        assert len(m.build_view(meeting_ledger, alice.meeting_id).requests) == cycles + 2
        tracemalloc.start()
        refuse_leave_and_rejoin(meeting_ledger, alice, bob, rng, tick)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


# ---------------------------------------------------------------------------
# loading re-admits the state


def load_both(identity_lines, meeting_lines):
    identity = load_hex_lines(LedgerKind.IDENTITY, identity_lines, ident.IdentityState())
    meeting = load_hex_lines(LedgerKind.MEETING, meeting_lines, m.MeetingState(identity))
    return identity, meeting


@pytest.mark.parametrize("name", sim.bundled_scenario_names())
def test_loaded_ledgers_readmit_to_the_state_they_were_saved_with(name):
    simulation = sim.run_scenario_text(sim.load_scenario_text(name))
    identity, meeting = load_both(
        dump_hex_lines(simulation.identity_ledger),
        dump_hex_lines(simulation.meeting_ledger),
    )
    assert identity.blocks == simulation.identity_ledger.blocks
    assert meeting.blocks == simulation.meeting_ledger.blocks
    assert identity.state.records == simulation.identity_ledger.state.records
    assert identity.state.ivks == simulation.identity_ledger.state.ivks
    live = simulation.meeting_ledger.state.views
    assert live and sorted(meeting.state.views) == sorted(live)
    for meeting_id, view in live.items():
        assert view_facts(meeting.state.views[meeting_id]) == view_facts(view)


def test_reloading_hashes_each_block_once(monkeypatch):
    simulation = sim.run_scenario_text(sim.load_scenario_text("honest"))
    identity = load_hex_lines(
        LedgerKind.IDENTITY, dump_hex_lines(simulation.identity_ledger), ident.IdentityState()
    )
    meeting_lines = dump_hex_lines(simulation.meeting_ledger)
    hashes = 0
    real = crypto.sha256

    def counted(data):
        nonlocal hashes
        hashes += 1
        return real(data)

    monkeypatch.setattr(crypto, "sha256", counted)
    meeting = load_hex_lines(LedgerKind.MEETING, meeting_lines, m.MeetingState(identity))
    assert meeting.blocks == simulation.meeting_ledger.blocks
    assert hashes == len(meeting_lines) == 7


def test_loading_with_a_state_refuses_a_forged_body_in_a_relinked_chain():
    simulation = sim.run_scenario_text(sim.load_scenario_text("join_rekey"))
    identity_lines = dump_hex_lines(simulation.identity_ledger)
    meeting_lines = forged(
        dump_hex_lines(simulation.meeting_ledger), TxTag.MEETING_PUBLISH,
        lambda body: body[:-1] + bytes([body[-1] ^ 1]),
    )
    # hashes and links hold, so a stateless load cannot tell
    assert load_hex_lines(LedgerKind.MEETING, meeting_lines).verify_chain()
    with pytest.raises(InvalidTransaction) as err:
        load_both(identity_lines, meeting_lines)
    assert err.value.reason == Reason.BAD_SIGNATURE


@pytest.mark.parametrize("name", sim.bundled_scenario_names())
def test_admission_records_the_key_each_transaction_is_signed_under(name):
    simulation = sim.run_scenario_text(sim.load_scenario_text(name))
    live = (simulation.identity_ledger, simulation.meeting_ledger)
    loaded = load_both(*(dump_hex_lines(ledger) for ledger in live))
    for before, after in zip(live, loaded):
        txs = [tx for _, _, tx in before.iter_txs()]
        assert [tx.signer for _, _, tx in after.iter_txs()] == [tx.signer for tx in txs]
        for tx in txs:
            assert crypto.verify(tx.signer, tx.signing_bytes, tx.signature)


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
    assert m.verify_request_tx(view.requests[0].tx, identity_ledger) == Reason.UNKNOWN_IDENTITY
    assert view.members() == []
    outcomes = m.review_requests(alice, meeting_ledger)
    assert [(o.user, o.verdict, o.granted) for o in outcomes] == [
        ("lee", Reason.UNKNOWN_IDENTITY, False)
    ]
    identity_ledger.append_block(
        [ident.register_identity("lee", "dev", late.keypair)], 3
    )
    assert m.verify_request_tx(view.requests[0].tx, identity_ledger) is None
    assert [r.request.user for r in view.members()] == ["lee"]
    # the review's verdict binds nothing: the next distribution keys lee
    tx, key = m.distribute_key(alice, meeting_ledger, rng)
    meeting_ledger.append_block([tx], 4)
    assert m.accept_key(late, m.parse_meeting_tx(tx)) == key


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
