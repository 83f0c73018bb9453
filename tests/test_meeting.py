"""Meeting protocol: wire layouts, key distribution, media, validation."""

import hashlib
import hmac as stdlib_hmac
import typing
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

import oracles
from chainmeet import crypto, identity as ident, meeting as m, sim
from chainmeet.errors import (
    AuthenticationFailure,
    CounterExhausted,
    EncodingError,
    InvalidTransaction,
    NoEntryForMe,
    NoMeetingKey,
    Reason,
)
from chainmeet.encoding import Reader, Wire, lp
from chainmeet.ledger import Transaction, TxTag, dump_hex_lines
from chainmeet.rng import DeterministicRng, FixedRng
from test_state import load_both, view_facts


class World:
    """Identity ledger plus helpers to spin up actors and meetings."""

    def __init__(self, seed=31337):
        self.rng = DeterministicRng(seed)
        self.identity_ledger = ident.new_identity_ledger()
        self.meeting_ledger = m.new_meeting_ledger(self.identity_ledger)
        self.tick = 0

    def actor(self, user, device="dev", register=True):
        pair = crypto.identity_keygen(self.rng)
        if register:
            self.identity_ledger.append_block(
                [ident.register_identity(user, device, pair)], timestamp=0
            )
        return m.ParticipantState(user=user, device=device, keypair=pair)

    def commit(self, tx):
        self.tick += 1
        return self.meeting_ledger.append_block([tx], timestamp=self.tick)

    def verdict(self, tx):
        return m.meeting_tx_verdict(tx, self.meeting_ledger)

    def distribute(self, leader, policy=m.allow_all):
        """The leader's next key distribution, committed; the leader takes up
        its key once the ledger has admitted it."""
        tx, key = m.distribute_key(leader, self.meeting_ledger, self.rng, policy)
        self.commit(tx)
        leader.known_mk = key
        return tx


def assert_refused_like(world, twin, step):
    """The library step refuses to build, with the reason the chain gives
    `twin`, the same transaction forged by hand, and with no place on it."""
    with pytest.raises(InvalidTransaction) as err:
        step()
    assert err.value.at is None
    assert err.value.reason == world.verdict(twin)
    return err.value.reason


def standard_meeting(world, member_names=("bob", "carol"), rule=m.ReassignRule.DESIGNATION):
    leader = world.actor("alice")
    world.commit(m.publish_meeting(leader, "sync", world.rng, rule))
    members = []
    for name in member_names:
        member = world.actor(name)
        world.commit(
            m.make_request(
                member,
                world.meeting_ledger,
                leader.meeting_id,
                world.rng,
            )
        )
        members.append(member)
    m.review_requests(leader, world.meeting_ledger)
    dist = m.KeyDistribution.parse(world.distribute(leader).body)
    for member in members:
        m.accept_key(member, dist)
    return leader, members, dist


# ---------------------------------------------------------------------------
# wire layouts against hand-assembled bytes


def test_request_body_layout():
    rng = DeterministicRng(1)
    mid, ivk, epk = rng.take(16), rng.take(32), rng.take(32)
    body = m.MeetingRequest(mid, "bob", "phone", ivk, epk).encode()
    manual = (
        mid
        + len(b"bob").to_bytes(4, "big") + b"bob"
        + len(b"phone").to_bytes(4, "big") + b"phone"
        + ivk + epk
    )
    assert body == manual
    assert m.MeetingRequest.parse(body) == m.MeetingRequest(mid, "bob", "phone", ivk, epk)


def test_publish_body_layout():
    rng = DeterministicRng(5)
    mid, ivk, epk = rng.take(16), rng.take(32), rng.take(32)
    publish = m.PublishMeeting(mid, "sync", m.ReassignRule.TIME_ORDER, ivk, epk)
    manual = mid + len(b"sync").to_bytes(4, "big") + b"sync" + b"\x01" + ivk + epk
    assert publish.encode() == manual
    assert m.PublishMeeting.parse(manual) == publish


def test_key_distribution_body_layout():
    rng = DeterministicRng(2)
    mid, lepk = rng.take(16), rng.take(32)
    entries = tuple(
        m.KeyEntry(
            rng.take(32), crypto.AeadBox(rng.take(12), rng.take(size), rng.take(16))
        )
        for size in (32, 0, 33)
    )
    dist = m.KeyDistribution(mid, 3, lepk, entries)
    manual = mid + (3).to_bytes(4, "big") + lepk + (3).to_bytes(4, "big")
    for entry in entries:
        manual += (
            entry.recipient_ivk
            + entry.box.nonce
            + len(entry.box.ciphertext).to_bytes(4, "big")
            + entry.box.ciphertext
            + entry.box.tag
        )
    assert dist.encode() == manual
    assert m.KeyDistribution.parse(manual) == dist


def test_entry_for_returns_the_first_entry_per_recipient():
    rng = DeterministicRng(4)
    ivk_a, ivk_b = rng.take(32), rng.take(32)
    entries = tuple(
        m.KeyEntry(ivk, crypto.AeadBox(rng.take(12), rng.take(32), rng.take(16)))
        for ivk in (ivk_a, ivk_b, ivk_a)
    )
    dist = m.KeyDistribution(rng.take(16), 0, rng.take(32), entries)
    fresh = m.KeyDistribution.parse(dist.encode())
    before = repr(dist)
    assert dist.entry_for(ivk_a) is entries[0]  # a repeated ivk keeps its first
    assert dist.entry_for(ivk_b) is entries[1]
    assert dist.entry_for(rng.take(32)) is None
    # the index built on the way takes no part in equality, hashing or repr
    assert dist == fresh and hash(dist) == hash(fresh)
    assert repr(dist) == before == repr(fresh)
    empty = m.KeyDistribution(dist.meeting_id, 1, dist.leader_epk, ())
    assert empty.entry_for(ivk_a) is None


@pytest.mark.parametrize("value", [0, 2**32 - 1])
def test_media_nonce_and_aad_pack_u32_fields(value):
    mid = bytes(range(16))
    assert m.media_nonce(value, 0) == value.to_bytes(4, "big") + bytes(8)
    assert m.media_aad(mid, value) == mid + value.to_bytes(4, "big")


@pytest.mark.parametrize("value", [0, 2**32 - 1, 2**64 - 1])
def test_media_nonce_packs_a_u64_counter(value):
    assert m.media_nonce(7, value) == (7).to_bytes(4, "big") + value.to_bytes(8, "big")


@pytest.mark.parametrize("value", [-1, 2**32, 2**64])
def test_media_nonce_and_aad_refuse_out_of_range_fields(value):
    with pytest.raises(EncodingError):
        m.media_nonce(value, 0)
    with pytest.raises(EncodingError):
        m.media_aad(bytes(16), value)
    if value != 2**32:  # a u64 counter holds 2**32
        with pytest.raises(EncodingError):
            m.media_nonce(0, value)


def test_media_packet_wire_layout():
    rng = DeterministicRng(3)
    box = crypto.AeadBox(
        (5).to_bytes(4, "big") + (9).to_bytes(8, "big"), rng.take(21), rng.take(16)
    )
    packet = m.MediaPacket(stream_id=2, epoch=5, counter=9, box=box)
    manual = (
        (2).to_bytes(4, "big")
        + (5).to_bytes(4, "big")
        + (9).to_bytes(8, "big")
        + box.nonce
        + len(box.ciphertext).to_bytes(4, "big")
        + box.ciphertext
        + box.tag
    )
    assert packet.encode() == manual
    assert m.MediaPacket.parse(manual) == packet


def test_reassign_body_optional_signature_flag():
    rng = DeterministicRng(4)
    mid = rng.take(16)
    bare = m.LeaderReassign(mid, rng.take(32), rng.take(32), rng.take(32), None)
    assert bare.encode().endswith(b"\x00")
    assert m.LeaderReassign.parse(bare.encode()) == bare
    cosigned = m.LeaderReassign(
        bare.meeting_id, bare.prev_leader_ivk, bare.new_leader_ivk,
        bare.new_leader_epk, rng.take(64),
    )
    raw = cosigned.encode()
    assert raw[16 + 96] == 1 and raw.endswith(cosigned.prev_leader_sig)
    assert m.LeaderReassign.parse(raw) == cosigned


# ---------------------------------------------------------------------------
# the honest path


def test_honest_flow_distributes_one_key_to_all():
    world = World()
    leader, (bob, carol), dist = standard_meeting(world)
    assert dist.epoch == 0 and len(dist.entries) == 2
    assert bob.known_mk == carol.known_mk == leader.known_mk
    members = m.build_view(world.meeting_ledger, leader.meeting_id).members()
    assert bob.keypair.ivk in [record.request.ivk for record in members]
    packet = m.encrypt_media(carol, 4, b"media payload")
    assert m.decrypt_media(bob, packet) == b"media payload"
    assert m.decrypt_media(leader, packet) == b"media payload"
    assert world.meeting_ledger.verify_chain()


def test_wrap_derivation_reproducible_from_oracles():
    """Rebuild a member's wrap entry entirely out of reference primitives."""
    world = World()
    leader, (bob, _), dist = standard_meeting(world)
    entry = dist.entry_for(bob.keypair.ivk)
    shared = oracles.x25519(bob.ephemeral.esk, dist.leader_epk)
    context = (
        leader.meeting_id
        + (0).to_bytes(4, "big")
        + dist.leader_epk
        + bob.ephemeral.epk
    )
    enc_key = oracles.hkdf_sha256(shared, b"", context, 32)
    aad = leader.meeting_id + (0).to_bytes(4, "big") + bob.keypair.ivk
    ciphertext, tag = oracles.aes256gcm_encrypt(
        enc_key, entry.box.nonce, leader.known_mk.key, aad
    )
    assert (ciphertext, tag) == (entry.box.ciphertext, entry.box.tag)


def test_stream_key_is_hmac_of_meeting_key():
    rng = DeterministicRng(6)
    for _ in range(10):
        mk, stream_id = rng.take(32), int.from_bytes(rng.take(2), "big")
        assert m.derive_stream_key(mk, stream_id) == stdlib_hmac.new(
            mk, stream_id.to_bytes(4, "big"), hashlib.sha256
        ).digest()


def test_media_nonce_is_epoch_then_counter():
    world = World()
    _, (bob, _), _ = standard_meeting(world)
    first = m.encrypt_media(bob, 3, b"a")
    second = m.encrypt_media(bob, 3, b"b")
    assert (first.counter, second.counter) == (0, 1)
    assert first.box.nonce == (0).to_bytes(4, "big") + (0).to_bytes(8, "big")
    assert second.box.nonce == (0).to_bytes(4, "big") + (1).to_bytes(8, "big")
    other_stream = m.encrypt_media(bob, 4, b"c")
    assert other_stream.counter == 0  # counters are per stream


def test_leader_not_own_member_and_absent_from_entries():
    world = World()
    leader, members, dist = standard_meeting(world)
    assert dist.entry_for(leader.keypair.ivk) is None
    view = m.build_view(world.meeting_ledger, leader.meeting_id)
    recipients = [r.request.ivk for r in view.members()]
    assert recipients == [member.keypair.ivk for member in members]
    assert leader.keypair.ivk not in recipients


# ---------------------------------------------------------------------------
# request verification reasons


def test_verify_request_reasons():
    world = World()
    leader = world.actor("alice")
    world.commit(m.publish_meeting(leader, "m", world.rng))
    victim = world.actor("victim")
    mallory = world.actor("mallory")
    stranger = world.actor("nobody", register=False)

    # forged claim on a registered identity: self-consistent signature,
    # wrong key on the identity ledger
    forged = m.MeetingRequest(
        leader.meeting_id, "victim", "dev", mallory.keypair.ivk,
        crypto.ephemeral_keygen(world.rng).epk,
    )
    tx = m.signed_tx(forged, mallory.keypair)
    assert m.verify_request_tx(tx, world.identity_ledger) == Reason.KEY_MISMATCH
    # admission lets it through; the leader is the one who catches it
    assert world.verdict(tx) is None

    unknown = m.MeetingRequest(
        leader.meeting_id, "nobody", "dev", stranger.keypair.ivk,
        crypto.ephemeral_keygen(world.rng).epk,
    )
    tx = m.signed_tx(unknown, stranger.keypair)
    assert m.verify_request_tx(tx, world.identity_ledger) == Reason.UNKNOWN_IDENTITY

    honest = m.make_request(
        world.actor("victim2"), world.meeting_ledger,
        leader.meeting_id, world.rng,
    )
    mangled = Transaction(
        honest.tag, honest.body,
        bytes([honest.signature[0] ^ 1]) + honest.signature[1:],
    )
    assert m.verify_request_tx(mangled, world.identity_ledger) == Reason.BAD_SIGNATURE
    assert world.verdict(mangled) == Reason.BAD_SIGNATURE


def test_leader_review_rejects_forged_and_keeps_them_out():
    world = World()
    leader = world.actor("alice")
    world.commit(m.publish_meeting(leader, "m", world.rng))
    world.actor("victim")
    mallory = world.actor("mallory")
    forged = m.MeetingRequest(
        leader.meeting_id, "victim", "dev", mallory.keypair.ivk,
        crypto.ephemeral_keygen(world.rng).epk,
    )
    world.commit(m.signed_tx(forged, mallory.keypair))
    outcomes = m.review_requests(leader, world.meeting_ledger)
    assert [(o.user, o.verdict, o.granted) for o in outcomes] == [
        ("victim", Reason.KEY_MISMATCH, False)
    ]
    # the forged request stays present on the chain, but it is never keyed
    view = m.build_view(world.meeting_ledger, leader.meeting_id)
    assert len(view.present) == 1
    assert view.members() == []
    # a second review, from where the first one stopped, has nothing new to say
    since = len(view.requests)
    assert m.review_requests(leader, world.meeting_ledger, since=since) == []


def test_review_looks_up_each_request_identity_once(monkeypatch):
    """One identity lookup per reviewed request serves both the key check and
    the policy's user info, whatever the verdict."""
    world = World()
    leader = world.actor("alice")
    world.commit(m.publish_meeting(leader, "m", world.rng))
    for name in ("bob", "carol"):
        member = world.actor(name)
        world.commit(
            m.make_request(member, world.meeting_ledger, leader.meeting_id, world.rng)
        )
    world.actor("victim")
    mallory = world.actor("mallory")
    forged = m.MeetingRequest(
        leader.meeting_id, "victim", "dev", mallory.keypair.ivk,
        crypto.ephemeral_keygen(world.rng).epk,
    )
    world.commit(m.signed_tx(forged, mallory.keypair))
    lookups = []
    real = ident.find_identity

    def counted(ledger, user, device):
        lookups.append(user)
        return real(ledger, user, device)

    monkeypatch.setattr(ident, "find_identity", counted)
    seen = []

    def policy(user, device, info):
        seen.append((user, info))
        return user != "carol"

    outcomes = m.review_requests(leader, world.meeting_ledger, policy)
    assert [(o.user, o.verdict, o.granted) for o in outcomes] == [
        ("bob", None, True),
        ("carol", None, False),
        ("victim", Reason.KEY_MISMATCH, False),
    ]
    assert lookups == ["bob", "carol", "victim"]
    assert seen == [
        (user, real(world.identity_ledger, user, "dev").info) for user in ("bob", "carol")
    ]
    # the recipients of a distribution follow the same rule
    lookups.clear()
    seen.clear()
    view = m.build_view(world.meeting_ledger, leader.meeting_id)
    assert [r.request.user for r in view.members(policy)] == ["bob"]
    assert lookups == ["bob", "carol", "victim"]
    assert [user for user, _ in seen] == ["bob", "carol"]


def test_policy_gate_with_committed_userinfo():
    world = World()
    leader = world.actor("alice")
    world.commit(m.publish_meeting(leader, "m", world.rng))
    blinding = world.rng.take(32)
    pair = crypto.identity_keygen(world.rng)
    world.identity_ledger.append_block(
        [
            ident.register_identity(
                "dora", "dev", pair, ident.commit_userinfo(b"staff", blinding)
            )
        ],
        timestamp=0,
    )
    dora = m.ParticipantState(user="dora", device="dev", keypair=pair)
    world.commit(
        m.make_request(
            dora, world.meeting_ledger,
            leader.meeting_id, world.rng,
        )
    )

    def needs_valid_opening(user, device, info):
        return isinstance(info, ident.CommittedInfo) and ident.verify_userinfo(
            info, b"staff", blinding
        )

    outcomes = m.review_requests(
        leader, world.meeting_ledger, needs_valid_opening
    )
    assert outcomes[0].granted
    view = m.build_view(world.meeting_ledger, leader.meeting_id)
    assert [r.request.user for r in view.members(needs_valid_opening)] == ["dora"]
    # wrong opening fails the same policy
    world2 = World(seed=4242)
    leader2 = world2.actor("alice")
    world2.commit(m.publish_meeting(leader2, "m", world2.rng))
    pair2 = crypto.identity_keygen(world2.rng)
    world2.identity_ledger.append_block(
        [
            ident.register_identity(
                "evan", "dev", pair2,
                ident.commit_userinfo(b"visitor", world2.rng.take(32)),
            )
        ],
        timestamp=0,
    )
    evan = m.ParticipantState(user="evan", device="dev", keypair=pair2)
    world2.commit(
        m.make_request(
            evan, world2.meeting_ledger,
            leader2.meeting_id, world2.rng,
        )
    )

    def needs_staff_opening(user, device, info):
        return isinstance(info, ident.CommittedInfo) and ident.verify_userinfo(
            info, b"staff", blinding
        )

    outcomes = m.review_requests(
        leader2, world2.meeting_ledger, needs_staff_opening
    )
    assert not outcomes[0].granted
    view2 = m.build_view(world2.meeting_ledger, leader2.meeting_id)
    assert view2.members(needs_staff_opening) == []


# ---------------------------------------------------------------------------
# splices must fail closed


def two_meetings(seed=555):
    world = World(seed=seed)
    alice = world.actor("alice")
    dave = world.actor("dave")
    bob = world.actor("bob")  # joins both meetings
    world.commit(m.publish_meeting(alice, "first", world.rng))
    world.commit(m.publish_meeting(dave, "second", world.rng))
    bob_a = m.ParticipantState(user="bob", device="dev", keypair=bob.keypair)
    bob_b = m.ParticipantState(user="bob", device="dev", keypair=bob.keypair)
    world.commit(
        m.make_request(bob_a, world.meeting_ledger,
                       alice.meeting_id, world.rng)
    )
    world.commit(
        m.make_request(bob_b, world.meeting_ledger,
                       dave.meeting_id, world.rng)
    )
    m.review_requests(alice, world.meeting_ledger)
    m.review_requests(dave, world.meeting_ledger)
    dist_a_tx = world.distribute(alice)
    dist_b_tx = world.distribute(dave)
    dist_a = m.KeyDistribution.parse(dist_a_tx.body)
    dist_b = m.KeyDistribution.parse(dist_b_tx.body)
    return world, alice, dave, bob_a, bob_b, dist_a, dist_b


def test_spliced_leader_key_fails_authentication():
    _, _, _, bob_a, _, dist_a, dist_b = two_meetings()
    spliced = m.KeyDistribution(
        meeting_id=dist_a.meeting_id,
        epoch=dist_a.epoch,
        leader_epk=dist_b.leader_epk,  # other meeting's leader ephemeral
        entries=dist_a.entries,
    )
    with pytest.raises(AuthenticationFailure):
        m.accept_key(bob_a, spliced)
    assert bob_a.known_mk is None  # nothing was silently accepted


def test_spliced_entry_fails_authentication():
    _, _, _, bob_a, _, dist_a, dist_b = two_meetings()
    foreign_entry = dist_b.entry_for(bob_a.keypair.ivk)
    assert foreign_entry is not None
    spliced = m.KeyDistribution(
        meeting_id=dist_a.meeting_id,
        epoch=dist_a.epoch,
        leader_epk=dist_a.leader_epk,
        entries=(foreign_entry,),
    )
    with pytest.raises(AuthenticationFailure):
        m.accept_key(bob_a, spliced)


def test_epoch_relabel_fails_authentication():
    world = World()
    leader, (bob, _), dist = standard_meeting(world)
    fresh_bob = m.ParticipantState(
        user="bob", device="dev", keypair=bob.keypair,
        meeting_id=leader.meeting_id, ephemeral=bob.ephemeral,
    )
    relabeled = m.KeyDistribution(
        dist.meeting_id, dist.epoch + 1, dist.leader_epk, dist.entries
    )
    with pytest.raises(AuthenticationFailure):
        m.accept_key(fresh_bob, relabeled)


def test_tampered_entry_ciphertext_fails():
    world = World()
    _, (bob, _), dist = standard_meeting(world)
    entry = dist.entry_for(bob.keypair.ivk)
    bent = m.KeyEntry(
        entry.recipient_ivk,
        crypto.AeadBox(
            entry.box.nonce,
            bytes([entry.box.ciphertext[0] ^ 0x80]) + entry.box.ciphertext[1:],
            entry.box.tag,
        ),
    )
    fresh_bob = m.ParticipantState(
        user="bob", device="dev", keypair=bob.keypair,
        meeting_id=dist.meeting_id, ephemeral=bob.ephemeral,
    )
    with pytest.raises(AuthenticationFailure):
        m.accept_key(fresh_bob, m.KeyDistribution(
            dist.meeting_id, dist.epoch, dist.leader_epk, (bent,)
        ))


# ---------------------------------------------------------------------------
# media failure modes


def test_media_decrypt_failure_modes():
    world = World()
    leader, (bob, carol), _ = standard_meeting(world)
    packet = m.encrypt_media(bob, 9, b"payload bytes")

    outsider = world.actor("zed")
    with pytest.raises(NoMeetingKey):
        m.decrypt_media(outsider, packet)

    chewed = m.MediaPacket(
        packet.stream_id, packet.epoch, packet.counter,
        crypto.AeadBox(
            packet.box.nonce,
            bytes([packet.box.ciphertext[0] ^ 1]) + packet.box.ciphertext[1:],
            packet.box.tag,
        ),
    )
    with pytest.raises(AuthenticationFailure):
        m.decrypt_media(carol, chewed)

    relabeled_stream = m.MediaPacket(
        packet.stream_id + 1, packet.epoch, packet.counter, packet.box
    )
    with pytest.raises(AuthenticationFailure):
        m.decrypt_media(carol, relabeled_stream)

    later = m.encrypt_media(bob, 9, b"second packet")
    assert later.box.nonce != bytes(12)
    forged_nonce = m.MediaPacket(
        later.stream_id, later.epoch, later.counter,
        crypto.AeadBox(bytes(12), later.box.ciphertext, later.box.tag),
    )
    with pytest.raises(AuthenticationFailure):
        m.decrypt_media(carol, forged_nonce)


def test_a_delivery_binds_its_meeting():
    """The right key with another meeting's id opens nothing: the AAD binds
    the meeting."""
    world = World()
    _, (bob, carol), _ = standard_meeting(world)
    packet = m.encrypt_media(bob, 9, b"payload bytes")
    assert m.Delivery(carol.meeting_id, packet).open(carol.known_mk) == b"payload bytes"
    elsewhere = bytes(b ^ 0xFF for b in carol.meeting_id)
    assert m.Delivery(elsewhere, packet).open(carol.known_mk) is None


def test_a_delivery_whose_nonce_is_not_its_header_makes_no_aead_call(monkeypatch):
    world = World()
    _, (bob, carol), _ = standard_meeting(world)
    packet = m.encrypt_media(bob, 9, b"payload bytes")
    relabeled = m.MediaPacket(packet.stream_id, packet.epoch, packet.counter + 1, packet.box)
    opens = 0
    real = crypto.AeadKey.open

    def counted(*args):
        nonlocal opens
        opens += 1
        return real(*args)

    monkeypatch.setattr(crypto.AeadKey, "open", counted)
    delivery = m.Delivery(carol.meeting_id, relabeled)
    assert not delivery.header_ok
    assert delivery.open(carol.known_mk) is None and opens == 0
    assert m.Delivery(carol.meeting_id, packet).open(carol.known_mk) == b"payload bytes"
    assert opens == 1


def test_counter_exhaustion():
    world = World()
    _, (bob, _), _ = standard_meeting(world)
    bob.stream_counters[(1, 0)] = 2**64 - 1
    with pytest.raises(CounterExhausted):
        m.encrypt_media(bob, 1, b"over the line")
    # the stream next door is unaffected
    assert m.encrypt_media(bob, 2, b"fine").counter == 0


def test_encrypt_without_key_raises():
    world = World()
    outsider = world.actor("zed")
    with pytest.raises(NoMeetingKey):
        m.encrypt_media(outsider, 1, b"nope")


# ---------------------------------------------------------------------------
# admission rules on the meeting ledger


def test_duplicate_meeting_id_rejected():
    world = World()
    world.actor("alice")  # consume rng in lockstep is not needed; use FixedRng
    leader1 = world.actor("a1")
    leader2 = world.actor("a2")
    script = DeterministicRng(777)
    fixed_id = script.take(16)
    rng1 = FixedRng(fixed_id + DeterministicRng(1).take(64))
    rng2 = FixedRng(fixed_id + DeterministicRng(2).take(64))
    world.commit(m.publish_meeting(leader1, "first", rng1))
    with pytest.raises(InvalidTransaction) as err:
        world.commit(m.publish_meeting(leader2, "second", rng2))
    assert err.value.reason == Reason.DUPLICATE_MEETING


def test_unregistered_publisher_rejected():
    world = World()
    ghost = world.actor("ghost", register=False)
    with pytest.raises(InvalidTransaction) as err:
        world.commit(m.publish_meeting(ghost, "m", world.rng))
    assert err.value.reason == Reason.UNKNOWN_IDENTITY


def test_meeting_body_text_is_capped():
    """Names hold at most 64 utf-8 bytes and meeting info 1,024, as on the
    identity ledger; a longer field is a malformed body and lands nothing."""
    world = World()
    leader = world.actor("alice")
    world.commit(m.publish_meeting(leader, "i" * 1024, world.rng))
    before = dump_hex_lines(world.meeting_ledger)
    pair = leader.keypair
    epk = crypto.ephemeral_keygen(world.rng).epk
    oversized = {
        TxTag.MEETING_REQUEST:
            leader.meeting_id + lp(b"u" * 65) + lp(b"dev") + pair.ivk + epk,
        TxTag.MEETING_PUBLISH:
            bytes(16) + lp(b"i" * 1025) + pair.ivk + epk,
    }
    for tag, body in oversized.items():
        draft = Transaction(tag, body, bytes(crypto.SIG_LEN))
        tx = Transaction(tag, body, crypto.sign(pair, draft.signing_bytes))
        assert world.verdict(tx) == Reason.MALFORMED_BODY
        with pytest.raises(InvalidTransaction) as err:
            world.commit(tx)
        assert err.value.reason == Reason.MALFORMED_BODY
        assert dump_hex_lines(world.meeting_ledger) == before
    assert m.build_view(world.meeting_ledger, leader.meeting_id).requests == []
    # the longest name the identity ledger registers still joins
    longest = world.actor("u" * 64)
    world.commit(m.make_request(longest, world.meeting_ledger, leader.meeting_id, world.rng))
    outcomes = m.review_requests(leader, world.meeting_ledger)
    assert [(o.user, o.granted) for o in outcomes] == [("u" * 64, True)]


def test_request_for_missing_or_dismissed_meeting():
    world = World()
    bob = world.actor("bob")

    def crafted(meeting_id):
        """bob's request to join, signed by hand past make_request's checks."""
        request = m.MeetingRequest(
            meeting_id, "bob", "dev", bob.keypair.ivk, crypto.ephemeral_keygen(world.rng).epk
        )
        return m.signed_tx(request, bob.keypair)

    def request(meeting_id):
        return lambda: m.make_request(bob, world.meeting_ledger, meeting_id, world.rng)

    missing = bytes(16)
    reason = assert_refused_like(world, crafted(missing), request(missing))
    assert reason == Reason.MEETING_NOT_FOUND
    leader = world.actor("alice")
    world.commit(m.publish_meeting(leader, "m", world.rng))
    world.commit(m.dismiss_meeting(leader, world.meeting_ledger))
    dismissed = leader.meeting_id
    reason = assert_refused_like(world, crafted(dismissed), request(dismissed))
    assert reason == Reason.MEETING_DISMISSED


def test_replayed_and_duplicate_requests_rejected():
    world = World()
    leader = world.actor("alice")
    world.commit(m.publish_meeting(leader, "m", world.rng))
    bob = world.actor("bob")
    request_tx = m.make_request(
        bob, world.meeting_ledger,
        leader.meeting_id, world.rng,
    )
    world.commit(request_tx)
    assert world.verdict(request_tx) == Reason.REPLAYED_REQUEST
    fresh = m.make_request(
        m.ParticipantState(user="bob", device="dev", keypair=bob.keypair),
        world.meeting_ledger, leader.meeting_id, world.rng,
    )
    assert world.verdict(fresh) == Reason.DUPLICATE_REQUEST


def test_a_present_leader_cannot_request_to_join_its_own_meeting():
    """A leader is in the meeting already, and so is one handed over from
    until it leaves; a request would swap its session for a requester's."""
    world, alice, bob, _ = handover_world(m.ReassignRule.DESIGNATION)

    def own_request():
        again = m.ParticipantState(user="alice", device="dev", keypair=alice.keypair)
        return m.make_request(again, world.meeting_ledger, alice.meeting_id, world.rng)

    assert world.verdict(own_request()) == Reason.DUPLICATE_REQUEST
    view = m.build_view(world.meeting_ledger, alice.meeting_id)
    world.commit(m.build_reassign(view, alice.keypair, bob.keypair, world.rng)[0])
    assert view.leader_ivk == bob.keypair.ivk
    assert world.verdict(own_request()) == Reason.DUPLICATE_REQUEST
    world.commit(m.make_leave(alice))
    assert world.verdict(own_request()) is None


def test_forged_request_cannot_squat_the_victims_binding():
    """A self-signed request under someone else's name must not block
    the real person from joining, leaving, or being rekeyed out."""
    world = World()
    leader = world.actor("alice")
    world.commit(m.publish_meeting(leader, "m", world.rng))
    victim = world.actor("victim")
    mallory = world.actor("mallory")
    forged = m.signed_tx(
        m.MeetingRequest(
            leader.meeting_id, "victim", "dev", mallory.keypair.ivk,
            crypto.ephemeral_keygen(world.rng).epk,
        ),
        mallory.keypair,
    )
    world.commit(forged)  # admission cannot resolve identities; this lands
    genuine = m.make_request(
        victim, world.meeting_ledger,
        leader.meeting_id, world.rng,
    )
    assert world.verdict(genuine) is None
    world.commit(genuine)
    outcomes = m.review_requests(leader, world.meeting_ledger)
    assert [(o.user, o.granted) for o in outcomes] == [
        ("victim", False), ("victim", True)
    ]
    view = m.build_view(world.meeting_ledger, leader.meeting_id)
    assert [r.request.ivk for r in view.members()] == [victim.keypair.ivk]
    dist = m.KeyDistribution.parse(world.distribute(leader).body)
    assert dist.entry_for(victim.keypair.ivk) is not None
    assert dist.entry_for(mallory.keypair.ivk) is None
    # the real member can still leave while the forged record lingers
    leave = m.make_leave(victim)
    assert world.verdict(leave) is None
    world.commit(leave)
    # and the departure drops the victim from the leader's recipients, with
    # no review and despite the squatter, and lets the leader rekey
    assert view.members() == []
    assert view.membership_changed


def test_a_leave_admitted_after_the_review_drops_its_member_from_the_key():
    """The leader keys the members the chain shows: a member whose leave
    lands between the review and the distribution gets no entry, even
    though it kept its session's secrets."""
    world = World()
    leader, (bob, carol), _ = standard_meeting(world)
    dave = world.actor("dave")
    since = len(m.build_view(world.meeting_ledger, leader.meeting_id).requests)
    world.commit(m.make_request(dave, world.meeting_ledger, leader.meeting_id, world.rng))
    outcomes = m.review_requests(leader, world.meeting_ledger, since=since)
    assert [o.granted for o in outcomes] == [True]
    world.commit(m.make_leave(bob))
    dist = m.KeyDistribution.parse(world.distribute(leader).body)
    assert dist.epoch == 1
    assert [e.recipient_ivk for e in dist.entries] == [carol.keypair.ivk, dave.keypair.ivk]
    assert dist.entry_for(bob.keypair.ivk) is None
    with pytest.raises(NoEntryForMe):
        m.accept_key(bob, dist)
    assert m.accept_key(dave, dist) == leader.known_mk


def test_a_newcomer_no_review_has_reported_is_keyed_at_the_next_distribution():
    """The recipients are read from the chain when the distribution is
    built, so a request the leader has not reviewed yet is keyed too."""
    world = World()
    leader, (bob, carol), _ = standard_meeting(world)
    world.commit(m.make_leave(bob))
    dave = world.actor("dave")
    world.commit(m.make_request(dave, world.meeting_ledger, leader.meeting_id, world.rng))
    dist = m.KeyDistribution.parse(world.distribute(leader).body)
    assert dist.epoch == 1
    assert dist.entry_for(dave.keypair.ivk) is not None
    assert m.accept_key(dave, dist) == leader.known_mk


def test_a_distribution_built_before_a_leave_landed_is_refused():
    """The chain keys only members present when a distribution lands: one
    built before bob's leave was admitted would hand bob the next key."""
    world = World()
    leader, (bob, carol), _ = standard_meeting(world)
    dave = world.actor("dave")
    world.commit(m.make_request(dave, world.meeting_ledger, leader.meeting_id, world.rng))
    stale, _ = m.distribute_key(leader, world.meeting_ledger, world.rng)
    world.commit(m.make_leave(bob))
    with pytest.raises(InvalidTransaction) as err:
        world.commit(stale)
    assert (err.value.reason, err.value.at) == (Reason.NOT_A_MEMBER, (7, 0))
    # built again from the chain as it stands, it keys carol and dave
    dist = m.KeyDistribution.parse(world.distribute(leader).body)
    assert [e.recipient_ivk for e in dist.entries] == [carol.keypair.ivk, dave.keypair.ivk]


def test_a_distribution_may_key_a_present_leader_but_no_one_gone():
    """An entry names a present requester or a present leader, such as one
    that handed over and stayed; not an outsider, nor a leader that left."""
    world, alice, bob, ephemeral = handed_over_to_bob()
    bob.ephemeral = ephemeral
    box = crypto.AeadBox(bytes(12), bytes(32), bytes(16))
    zed = world.actor("zed")

    def rekey(*recipients):
        entries = tuple(m.KeyEntry(r.keypair.ivk, box) for r in recipients)
        payload = m.KeyDistribution(bob.meeting_id, 1, ephemeral.epk, entries)
        return world.verdict(m.signed_tx(payload, bob.keypair))

    assert rekey(alice) is None
    assert rekey(zed) == Reason.NOT_A_MEMBER
    world.commit(m.make_leave(alice))
    assert rekey(alice) == Reason.NOT_A_MEMBER


def with_small_order_epk(request, keypair):
    """The request tx with its epk, the body's last 32 bytes, spliced to the
    all-zero key and signed again: no epk field encodes a key of small
    order, so only a body made by hand carries one."""
    body = request.body[: -crypto.KEY_LEN] + bytes(crypto.KEY_LEN)
    return Transaction(request.tag, body, crypto.sign(keypair, bytes([request.tag]) + body))


def test_a_request_with_a_low_order_epk_gets_no_entry_and_stops_no_rekey():
    """X25519 with an epk of small order gives the all-zero secret, which is
    refused (RFC 7748 section 6.1). The chain refuses such a request as a
    malformed body, so no review reports it and the next rekey keys the
    members the chain shows."""
    world = World()
    leader, (bob, carol), _ = standard_meeting(world)
    eve = world.actor("eve")
    request = with_small_order_epk(
        m.make_request(eve, world.meeting_ledger, leader.meeting_id, world.rng), eve.keypair
    )
    with pytest.raises(InvalidTransaction) as err:
        world.commit(request)
    assert err.value.reason == Reason.MALFORMED_BODY
    assert m.review_requests(leader, world.meeting_ledger, since=2) == []
    world.commit(m.make_leave(carol))
    dist = m.KeyDistribution.parse(world.distribute(leader).body)
    assert dist.epoch == 1
    assert [e.recipient_ivk for e in dist.entries] == [bob.keypair.ivk]
    assert m.accept_key(bob, dist) == leader.known_mk


def test_rejoin_after_leave_is_allowed():
    world = World()
    leader, (bob, _), _ = standard_meeting(world)
    world.commit(m.make_leave(bob))
    rejoin = m.make_request(
        m.ParticipantState(user="bob", device="dev", keypair=bob.keypair),
        world.meeting_ledger, leader.meeting_id, world.rng,
    )
    assert world.verdict(rejoin) is None
    world.commit(rejoin)


def test_leave_by_outsider_rejected():
    world = World()
    leader = world.actor("alice")
    world.commit(m.publish_meeting(leader, "m", world.rng))
    zed = world.actor("zed")
    crafted = m.signed_tx(
        m.MeetingLeave(leader.meeting_id, "zed", "dev", zed.keypair.ivk),
        zed.keypair,
    )
    assert world.verdict(crafted) == Reason.NOT_A_MEMBER
    assert_refused_like(world, crafted, lambda: m.make_leave(zed))


def test_key_distribution_admission():
    world = World()
    leader, (bob, _), _ = standard_meeting(world)
    # non-leader distribution attempt
    fake = m.KeyDistribution(leader.meeting_id, 1, bob.ephemeral.epk, ())
    tx = m.signed_tx(fake, bob.keypair)
    assert world.verdict(tx) == Reason.NOT_CURRENT_LEADER
    # leader-signed but epoch out of sequence
    skipped = m.signed_tx(
        m.KeyDistribution(leader.meeting_id, 5, leader.ephemeral.epk, ()),
        leader.keypair,
    )
    assert world.verdict(skipped) == Reason.BAD_EPOCH


def test_rekey_requires_membership_change():
    world = World()
    leader, _, dist = standard_meeting(world)
    # the same entries again as epoch 1, signed by the leader
    twin = m.signed_tx(replace(dist, epoch=1), leader.keypair)
    reason = assert_refused_like(
        world, twin, lambda: m.distribute_key(leader, world.meeting_ledger, world.rng)
    )
    assert reason == Reason.RULE_VIOLATION


def test_epoch_sequence_gap_free():
    world = World()
    leader, (bob, carol), _ = standard_meeting(world)
    world.commit(m.make_leave(bob))
    m.review_requests(leader, world.meeting_ledger)
    world.distribute(leader)
    world.commit(m.make_leave(carol))
    m.review_requests(leader, world.meeting_ledger)
    world.distribute(leader)
    epochs = [
        m.parse_meeting_tx(tx).epoch
        for _, _, tx in world.meeting_ledger.iter_txs()
        if tx.tag == m.KeyDistribution.TAG
    ]
    assert epochs == [0, 1, 2]
    assert m.build_view(world.meeting_ledger, leader.meeting_id).next_epoch == 3


def test_lost_epoch_zero_distribution_does_not_wedge_its_leader():
    world = World()
    leader = world.actor("alice")
    world.commit(m.publish_meeting(leader, "sync", world.rng))
    bob, carol = world.actor("bob"), world.actor("carol")
    world.commit(m.make_request(bob, world.meeting_ledger, leader.meeting_id, world.rng))
    m.review_requests(leader, world.meeting_ledger)
    lost, _ = m.distribute_key(leader, world.meeting_ledger, world.rng)
    assert m.KeyDistribution.parse(lost.body).epoch == 0
    # never appended: the leader holds no key, and the chain still expects epoch 0
    assert leader.known_mk is None
    world.commit(m.make_request(carol, world.meeting_ledger, leader.meeting_id, world.rng))
    m.review_requests(leader, world.meeting_ledger)
    dist = m.KeyDistribution.parse(world.distribute(leader).body)
    assert dist.epoch == 0 and len(dist.entries) == 2
    for member in (bob, carol):
        assert m.accept_key(member, dist) == leader.known_mk
    packet = m.encrypt_media(leader, 1, b"after the loss")
    assert m.decrypt_media(carol, packet) == b"after the loss"


def test_lost_later_distribution_does_not_wedge_its_leader():
    world = World()
    leader, (bob, carol), _ = standard_meeting(world)
    held = leader.known_mk
    world.commit(m.make_leave(bob))
    m.review_requests(leader, world.meeting_ledger)
    lost, _ = m.distribute_key(leader, world.meeting_ledger, world.rng)
    assert m.KeyDistribution.parse(lost.body).epoch == 1
    # never appended: the leader keeps the key its members share, and the
    # chain still owes a rekey
    assert leader.known_mk is held
    assert m.build_view(world.meeting_ledger, leader.meeting_id).membership_changed
    dist = m.KeyDistribution.parse(world.distribute(leader).body)
    assert dist.epoch == 1
    assert m.build_view(world.meeting_ledger, leader.meeting_id).next_epoch == 2
    assert m.accept_key(carol, dist) == leader.known_mk != held
    packet = m.encrypt_media(leader, 1, b"after the loss")
    assert m.decrypt_media(carol, packet) == b"after the loss"


def test_lost_publish_or_request_does_not_wedge_its_session():
    world = World()
    leader, bob = world.actor("alice"), world.actor("bob")
    m.publish_meeting(leader, "lost", world.rng)  # never appended
    publish = m.publish_meeting(leader, "sync", world.rng)
    assert world.verdict(publish) is None
    world.commit(publish)
    m.make_request(bob, world.meeting_ledger, leader.meeting_id, world.rng)  # never appended
    request = m.make_request(bob, world.meeting_ledger, leader.meeting_id, world.rng)
    assert world.verdict(request) is None
    world.commit(request)
    m.review_requests(leader, world.meeting_ledger)
    dist = m.KeyDistribution.parse(world.distribute(leader).body)
    assert m.accept_key(bob, dist) == leader.known_mk


def records_read_per_step(monkeypatch, cycles):
    """How many request records each admission, review and key distribution
    reads, as members of a meeting leave and rejoin `cycles` times."""
    read = object.__getattribute__
    touched = set()

    def counted(record, name):
        touched.add(id(record))
        return read(record, name)

    world = World()
    leader, members, _ = standard_meeting(world, ("bob", "carol", "dave"))
    view = m.build_view(world.meeting_ledger, leader.meeting_id)
    reviewed = len(view.requests)  # each review starts where the last one stopped
    monkeypatch.setattr(m.RequestRecord, "__getattribute__", counted)
    steps = {"admit": set(), "review": set(), "distribute": set()}

    def step(kind, action):
        touched.clear()
        action()
        steps[kind].add(len(touched))

    def review_and_rekey():
        nonlocal reviewed
        step("review", lambda: m.review_requests(leader, world.meeting_ledger, since=reviewed))
        reviewed = len(view.requests)
        step("distribute", lambda: world.distribute(leader))

    for cycle in range(cycles):
        member = members[cycle % len(members)]
        step("admit", lambda: world.commit(m.make_leave(member)))
        m.purge_keys(member)
        review_and_rekey()
        step("admit", lambda: world.commit(
            m.make_request(member, world.meeting_ledger, leader.meeting_id, world.rng)
        ))
        review_and_rekey()
    monkeypatch.undo()
    return steps


def test_records_read_per_step_do_not_grow_with_history(monkeypatch):
    short = records_read_per_step(monkeypatch, 20)
    long = records_read_per_step(monkeypatch, 200)
    assert long == short
    # admission reads no record, a review only the one rejoined request it
    # grants, and a distribution the members present: two, or three
    assert short == {"admit": {0}, "review": {0, 1}, "distribute": {2, 3}}


def work_per_step(monkeypatch, registered):
    """The signature checks, body decodes, `Reader.take` calls and identity
    lookups of the block that registers `registered` identities, and of each
    step of one meeting among four of them."""
    rng = DeterministicRng(4242)
    pairs = [crypto.identity_keygen(rng) for _ in range(registered)]
    block = [ident.register_identity(f"user{i}", "dev", pair) for i, pair in enumerate(pairs)]
    identity_ledger = ident.new_identity_ledger()
    meeting_ledger = m.new_meeting_ledger(identity_ledger)
    alice, bob, carol, dave = (
        m.ParticipantState(user=f"user{i}", device="dev", keypair=pairs[i])
        for i in (0, registered // 3, 2 * registered // 3, registered - 1)
    )
    counts = Counter()
    bodies = set(typing.get_args(m.MeetingTx))
    read = Wire.read.__func__

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    def counted_read(cls, reader):
        counts["meeting_decode"] += cls in bodies
        counts["record_decode"] += cls is ident.IdentityRecord
        return read(cls, reader)

    monkeypatch.setattr(crypto, "verify", counted("verify", crypto.verify))
    monkeypatch.setattr(Reader, "take", counted("take", Reader.take))
    monkeypatch.setattr(ident, "find_identity", counted("find", ident.find_identity))
    monkeypatch.setattr(Wire, "read", classmethod(counted_read))
    identity_ledger.append_block(block, timestamp=0)
    steps = [("register", dict(counts))]

    def step(name, action):
        counts.clear()
        action()
        steps.append((name, dict(counts)))

    def commit(tx):
        meeting_ledger.append_block([tx], timestamp=len(meeting_ledger.blocks))

    def distribute():
        tx, key = m.distribute_key(alice, meeting_ledger, rng)
        commit(tx)
        alice.known_mk = key

    step("publish", lambda: commit(m.publish_meeting(alice, "sync", rng)))
    for member in (bob, carol, dave):
        step("request", lambda: commit(
            m.make_request(member, meeting_ledger, alice.meeting_id, rng)
        ))
    step("review", lambda: m.review_requests(alice, meeting_ledger))
    step("distribute", distribute)
    step("leave", lambda: commit(m.make_leave(carol)))
    step("rekey", distribute)
    monkeypatch.undo()
    return steps


def test_meeting_steps_cost_the_same_however_many_identities_are_registered(monkeypatch):
    runs = {n: work_per_step(monkeypatch, n) for n in (100, 1000, 4000)}
    for n, ((_, register), *meeting) in runs.items():
        assert register["verify"] == register["record_decode"] == n
        # each admitted meeting transaction is checked and decoded once
        admitted = [counts for name, counts in meeting if name != "review"]
        assert all(c["verify"] == c["meeting_decode"] == 1 for c in admitted)
    assert runs[100][1:] == runs[1000][1:] == runs[4000][1:]


def test_epoch_space_cap(monkeypatch):
    monkeypatch.setattr(m, "MAX_EPOCH", 1)
    world = World()
    leader, (bob, carol), _ = standard_meeting(world)
    world.commit(m.make_leave(bob))
    m.review_requests(leader, world.meeting_ledger)
    world.distribute(leader)  # epoch 1, the last there is
    world.commit(m.make_leave(carol))
    m.review_requests(leader, world.meeting_ledger)
    assert m.build_view(world.meeting_ledger, leader.meeting_id).next_epoch == 2
    with pytest.raises(InvalidTransaction) as err:
        m.distribute_key(leader, world.meeting_ledger, world.rng)
    assert err.value.reason == Reason.BAD_EPOCH


# ---------------------------------------------------------------------------
# leadership handover


def handover_world(rule):
    world = World()
    leader, (bob, carol), _ = standard_meeting(world, rule=rule)
    return world, leader, bob, carol


def forged_reassign(world, leader, prev_keypair, new_keypair, cosign=True):
    """A handover from prev to new, built past build_reassign's checks and,
    unless cosign is false, co-signed by prev."""
    payload = m.LeaderReassign(
        meeting_id=leader.meeting_id,
        prev_leader_ivk=prev_keypair.ivk,
        new_leader_ivk=new_keypair.ivk,
        new_leader_epk=crypto.ephemeral_keygen(world.rng).epk,
        prev_leader_sig=None,
    )
    if cosign:
        payload = replace(
            payload, prev_leader_sig=crypto.sign(prev_keypair, payload.handover_bytes())
        )
    return m.signed_tx(payload, new_keypair)


def request_for_an_unpublished_meeting(world, alice, bob, carol):
    request = m.MeetingRequest(bytes(16), "bob", "dev", bob.keypair.ivk, bob.ephemeral.epk)
    return world.verdict(m.signed_tx(request, bob.keypair))


def leave_signed_by_another_key(world, alice, bob, carol):
    leave = m.MeetingLeave(alice.meeting_id, "bob", "dev", bob.keypair.ivk)
    return world.verdict(m.signed_tx(leave, carol.keypair))


def handover_to_an_unregistered_successor(world, alice, bob, carol):
    stranger = world.actor("zed", register=False)
    return world.verdict(forged_reassign(world, alice, alice.keypair, stranger.keypair))


def handover_with_a_bad_successor_signature(world, alice, bob, carol):
    tx = forged_reassign(world, alice, alice.keypair, bob.keypair)
    flipped = bytes([tx.signature[0] ^ 1]) + tx.signature[1:]
    return world.verdict(Transaction(tx.tag, tx.body, flipped))


def request_check_of_a_non_request_body(world, alice, bob, carol):
    return m.verify_request_tx(m.make_leave(bob), world.identity_ledger)


@pytest.mark.parametrize(
    "refused, reason",
    [
        (request_for_an_unpublished_meeting, Reason.MEETING_NOT_FOUND),
        (leave_signed_by_another_key, Reason.BAD_SIGNATURE),
        (handover_to_an_unregistered_successor, Reason.UNKNOWN_IDENTITY),
        (handover_with_a_bad_successor_signature, Reason.BAD_SIGNATURE),
        (request_check_of_a_non_request_body, Reason.MALFORMED_BODY),
    ],
    ids=lambda case: getattr(case, "__name__", None),
)
def test_each_refusal_names_its_reason(refused, reason):
    assert refused(*handover_world(m.ReassignRule.DESIGNATION)) == reason


def test_designation_handover_accepted_and_rekeyed():
    world, alice, bob, carol = handover_world(m.ReassignRule.DESIGNATION)
    view = m.build_view(world.meeting_ledger, alice.meeting_id)
    tx, ephemeral = m.build_reassign(
        view, alice.keypair, bob.keypair, world.rng
    )
    assert world.verdict(tx) is None
    world.commit(tx)
    bob.ephemeral = ephemeral
    dist = m.KeyDistribution.parse(world.distribute(bob).body)
    assert dist.epoch == 1
    # the rekey mints its own ephemeral; the handover one is superseded
    assert dist.leader_epk != ephemeral.epk
    assert {e.recipient_ivk for e in dist.entries} == {carol.keypair.ivk}
    m.accept_key(carol, dist)
    packet = m.encrypt_media(bob, 1, b"new regime")
    assert m.decrypt_media(carol, packet) == b"new regime"


def test_a_member_the_policy_denies_stays_unkeyed_after_a_handover():
    """The successor inherits nothing from its predecessor's reviews:
    distributing under the same policy, it keys nobody that policy denies."""
    world = World()
    alice = world.actor("alice")
    world.commit(m.publish_meeting(alice, "m", world.rng))
    bob, carol, dave = (world.actor(name) for name in ("bob", "carol", "dave"))
    for member in (bob, carol, dave):
        world.commit(
            m.make_request(member, world.meeting_ledger, alice.meeting_id, world.rng)
        )

    def not_dave(user, device, info):
        return user != "dave"

    dist = m.KeyDistribution.parse(world.distribute(alice, not_dave).body)
    assert [e.recipient_ivk for e in dist.entries] == [bob.keypair.ivk, carol.keypair.ivk]
    view = m.build_view(world.meeting_ledger, alice.meeting_id)
    tx, ephemeral = m.build_reassign(view, alice.keypair, bob.keypair, world.rng)
    world.commit(tx)
    bob.ephemeral = ephemeral
    dist = m.KeyDistribution.parse(world.distribute(bob, not_dave).body)
    assert dist.epoch == 1
    assert [e.recipient_ivk for e in dist.entries] == [carol.keypair.ivk]
    # dave is a verified member all the same: only the policy keeps dave out
    assert [r.request.ivk for r in view.members()] == [carol.keypair.ivk, dave.keypair.ivk]


def test_time_order_hands_over_to_the_earliest_requester_but_the_leader():
    """bob, who joined by request, leads after alice. His successor is
    carol, the earliest verified requester after him; alice, who published,
    handed over and stayed, is no candidate."""
    world, alice, bob, carol = handover_world(m.ReassignRule.TIME_ORDER)
    view = m.build_view(world.meeting_ledger, alice.meeting_id)
    world.commit(m.build_reassign(view, alice.keypair, bob.keypair, world.rng)[0])
    assert [r.request.ivk for r in view.members()] == [carol.keypair.ivk]
    to_alice = forged_reassign(world, alice, bob.keypair, alice.keypair, cosign=False)
    assert world.verdict(to_alice) == Reason.RULE_VIOLATION
    assert_refused_like(
        world, to_alice, lambda: m.build_reassign(view, bob.keypair, alice.keypair, world.rng)
    )
    to_carol, _ = m.build_reassign(view, bob.keypair, carol.keypair, world.rng)
    assert world.verdict(to_carol) is None


def assert_not_leading(world, session):
    """Each step only the meeting's leader may take is refused, for the
    reason the chain gives a distribution or dismissal it did not sign."""
    for operation in (
        lambda: m.review_requests(session, world.meeting_ledger),
        lambda: m.distribute_key(session, world.meeting_ledger, world.rng),
        lambda: m.dismiss_meeting(session, world.meeting_ledger),
    ):
        with pytest.raises(InvalidTransaction) as err:
            operation()
        assert (err.value.reason, err.value.at) == (Reason.NOT_CURRENT_LEADER, None)


def handed_over_to_bob():
    """A meeting alice has handed over to bob on the chain; bob has not yet
    adopted the handover's ephemeral, which is returned alongside."""
    world, alice, bob, carol = handover_world(m.ReassignRule.DESIGNATION)
    view = m.build_view(world.meeting_ledger, alice.meeting_id)
    tx, ephemeral = m.build_reassign(view, alice.keypair, bob.keypair, world.rng)
    world.commit(tx)
    return world, alice, bob, ephemeral


def test_the_chain_demotes_the_leader_that_handed_over():
    world, alice, _, _ = handed_over_to_bob()
    assert_not_leading(world, alice)


def test_a_successor_leads_only_once_it_adopts_the_handover():
    world, _, bob, ephemeral = handed_over_to_bob()
    # the chain names bob's ivk, but bob still holds his member ephemeral
    assert_not_leading(world, bob)
    bob.ephemeral = ephemeral
    since = len(m.build_view(world.meeting_ledger, bob.meeting_id).requests)
    assert m.review_requests(bob, world.meeting_ledger, since=since) == []
    assert world.verdict(m.dismiss_meeting(bob, world.meeting_ledger)) is None
    assert m.KeyDistribution.parse(world.distribute(bob).body).epoch == 1


def test_a_session_whose_publish_was_never_appended_cannot_lead():
    world = World()
    alice = world.actor("alice")
    m.publish_meeting(alice, "lost", world.rng)
    assert_not_leading(world, alice)


def test_a_leader_that_left_leads_no_more():
    """A leader's admitted leave ends its leading: the library refuses it
    first, and the chain refuses a distribution or dismissal it signs anyway.
    Under either rule it can still sign the handover that gives the meeting
    a leader again."""
    for rule in m.ReassignRule:
        world = World()
        alice, (bob, carol), _ = standard_meeting(world, rule=rule)
        world.commit(m.make_leave(alice))
        world.commit(m.make_leave(bob))
        assert_not_leading(world, alice)
        rekey = m.KeyDistribution(alice.meeting_id, 1, alice.ephemeral.epk, ())
        for payload in (rekey, m.MeetingDismiss(alice.meeting_id)):
            tx = m.signed_tx(payload, alice.keypair)
            assert world.verdict(tx) == Reason.NOT_CURRENT_LEADER
        view = m.build_view(world.meeting_ledger, alice.meeting_id)
        handover, carol.ephemeral = m.build_reassign(
            view, alice.keypair, carol.keypair, world.rng
        )
        world.commit(handover)
        assert view.leaders == {carol.keypair.ivk: carol.ephemeral.epk}
        assert m.KeyDistribution.parse(world.distribute(carol).body).epoch == 1


def test_designation_without_prev_signature_rejected():
    world, alice, bob, _ = handover_world(m.ReassignRule.DESIGNATION)
    tx = forged_reassign(world, alice, alice.keypair, bob.keypair, cosign=False)
    assert world.verdict(tx) == Reason.RULE_VIOLATION


def test_designation_with_forged_prev_signature_rejected():
    world, alice, bob, carol = handover_world(m.ReassignRule.DESIGNATION)
    view = m.build_view(world.meeting_ledger, alice.meeting_id)
    payload = m.LeaderReassign(
        meeting_id=alice.meeting_id,
        prev_leader_ivk=alice.keypair.ivk,
        new_leader_ivk=bob.keypair.ivk,
        new_leader_epk=crypto.ephemeral_keygen(world.rng).epk,
        prev_leader_sig=crypto.sign(carol.keypair, b"not the handover"),
    )
    tx = m.signed_tx(payload, bob.keypair)
    assert world.verdict(tx) == Reason.BAD_SIGNATURE


def test_time_order_picks_earliest_remaining_member():
    world, alice, bob, carol = handover_world(m.ReassignRule.TIME_ORDER)
    view = m.build_view(world.meeting_ledger, alice.meeting_id)
    good, _ = m.build_reassign(
        view, alice.keypair, bob.keypair, world.rng
    )
    assert world.verdict(good) is None
    grab, _ = m.build_reassign(
        view, alice.keypair, carol.keypair, world.rng
    )
    assert world.verdict(grab) == Reason.RULE_VIOLATION


def test_time_order_succession_after_first_leaves():
    world, alice, bob, carol = handover_world(m.ReassignRule.TIME_ORDER)
    world.commit(m.make_leave(bob))
    view = m.build_view(world.meeting_ledger, alice.meeting_id)
    succession, _ = m.build_reassign(
        view, alice.keypair, carol.keypair, world.rng
    )
    assert world.verdict(succession) is None


def test_time_order_rejects_gratuitous_cosignature():
    world, alice, bob, _ = handover_world(m.ReassignRule.TIME_ORDER)
    # bob is the earliest member, but the co-signature is not wanted
    tx = forged_reassign(world, alice, alice.keypair, bob.keypair)
    assert world.verdict(tx) == Reason.RULE_VIOLATION


def test_each_meeting_is_handed_over_under_the_rule_its_publish_signed():
    world = World()
    alice, bob, carol = (world.actor(name) for name in ("alice", "bob", "carol"))
    leaders = {}
    for rule in m.ReassignRule:  # alice leads one meeting under each rule
        leader = m.ParticipantState("alice", "dev", alice.keypair)
        world.commit(m.publish_meeting(leader, rule.name, world.rng, rule))
        for member in (bob, carol):
            session = m.ParticipantState(member.user, member.device, member.keypair)
            world.commit(
                m.make_request(session, world.meeting_ledger, leader.meeting_id, world.rng)
            )
        leaders[rule] = leader
    # (co-signed, bare) handovers to bob, the earliest member
    expected = {
        m.ReassignRule.DESIGNATION: (None, Reason.RULE_VIOLATION),
        m.ReassignRule.TIME_ORDER: (Reason.RULE_VIOLATION, None),
    }
    for rule, leader in leaders.items():
        assert m.build_view(world.meeting_ledger, leader.meeting_id).rule is rule
        handovers = [
            forged_reassign(world, leader, alice.keypair, bob.keypair, cosign)
            for cosign in (True, False)
        ]
        verdicts = tuple(world.verdict(tx) for tx in handovers)
        assert verdicts == expected[rule]
        world.commit(handovers[verdicts.index(None)])
    # re-admitted, each handover is judged under its own meeting's rule again
    ledgers = (world.identity_ledger, world.meeting_ledger)
    _, meeting_ledger = load_both(*(dump_hex_lines(ledger) for ledger in ledgers))
    for rule, leader in leaders.items():
        view = m.build_view(meeting_ledger, leader.meeting_id)
        assert (view.rule, view.leader_ivk) == (rule, bob.keypair.ivk)


def test_publish_with_a_rule_byte_outside_the_enum_is_malformed():
    world = World()
    alice = world.actor("alice")
    body = bytearray(m.publish_meeting(alice, "sync", world.rng).body)
    at = 16 + 4 + len(b"sync")  # after the meeting id and the info
    assert body[at] == m.ReassignRule.DESIGNATION
    for code in (2, 255):
        body[at] = code
        with pytest.raises(EncodingError):
            m.PublishMeeting.parse(bytes(body))
        signing_bytes = bytes([TxTag.MEETING_PUBLISH]) + body
        tx = Transaction(
            TxTag.MEETING_PUBLISH, bytes(body), crypto.sign(alice.keypair, signing_bytes)
        )
        assert world.verdict(tx) == Reason.MALFORMED_BODY


def test_reassign_to_non_member_refused():
    world, alice, _, _ = handover_world(m.ReassignRule.DESIGNATION)
    outsider = world.actor("zed")
    view = m.build_view(world.meeting_ledger, alice.meeting_id)
    forced = forged_reassign(world, alice, alice.keypair, outsider.keypair)
    assert world.verdict(forced) == Reason.RULE_VIOLATION
    assert_refused_like(
        world, forced,
        lambda: m.build_reassign(view, alice.keypair, outsider.keypair, world.rng),
    )


def test_reassign_from_non_leader_refused():
    world, alice, bob, carol = handover_world(m.ReassignRule.DESIGNATION)
    view = m.build_view(world.meeting_ledger, alice.meeting_id)
    forced = forged_reassign(world, alice, carol.keypair, bob.keypair)
    assert world.verdict(forced) == Reason.RULE_VIOLATION
    assert_refused_like(
        world, forced, lambda: m.build_reassign(view, carol.keypair, bob.keypair, world.rng)
    )


def test_dismiss_only_by_leader_then_everything_stops():
    world = World()
    leader, (bob, _), _ = standard_meeting(world)
    crafted = m.signed_tx(m.MeetingDismiss(leader.meeting_id), bob.keypair)
    assert world.verdict(crafted) == Reason.NOT_CURRENT_LEADER
    assert_refused_like(world, crafted, lambda: m.dismiss_meeting(bob, world.meeting_ledger))
    world.commit(m.dismiss_meeting(leader, world.meeting_ledger))
    late_leave = m.signed_tx(
        m.MeetingLeave(leader.meeting_id, "bob", "dev", bob.keypair.ivk),
        bob.keypair,
    )
    assert world.verdict(late_leave) == Reason.MEETING_DISMISSED


def test_purge_is_idempotent_and_total():
    world = World()
    _, (bob, _), _ = standard_meeting(world)
    m.encrypt_media(bob, 1, b"before purge")
    for _ in range(2):
        m.purge_keys(bob)
        assert bob.known_mk is None and bob.ephemeral is None
        assert bob.stream_counters == {}
    with pytest.raises(NoMeetingKey):
        m.encrypt_media(bob, 1, b"after purge")
    with pytest.raises(InvalidTransaction) as err:
        m.make_leave(bob)
    assert (err.value.reason, err.value.at) == (Reason.NOT_A_MEMBER, None)


def test_a_purged_session_opens_no_entry():
    """A session with no ephemeral can unwrap nothing, even an entry the
    leader wrapped to its key."""
    world = World()
    leader, (bob, _), dist = standard_meeting(world)
    assert dist.entry_for(bob.keypair.ivk) is not None
    m.purge_keys(bob)
    with pytest.raises(NoEntryForMe):
        m.accept_key(bob, dist)
    assert bob.known_mk is None


def test_stream_contexts_are_derived_once_per_held_key(monkeypatch):
    derived = []
    derive = m.derive_stream_key

    def counting(meeting_key, stream_id):
        derived.append((meeting_key, stream_id))
        return derive(meeting_key, stream_id)

    monkeypatch.setattr(m, "derive_stream_key", counting)
    world = World()
    leader, (bob, carol), _ = standard_meeting(world)
    for i in range(40):
        packet = m.encrypt_media(bob, 7, b"frame %d" % i)
        assert m.decrypt_media(leader, packet) == m.decrypt_media(carol, packet)
    # bob, the leader and carol each hold their own copy of the epoch-0 key
    assert derived == [(bob.known_mk.key, 7)] * 3
    old_key = carol.known_mk
    old_stream_key, _ = old_key.stream(7)
    assert old_stream_key == derive(old_key.key, 7)
    assert len(derived) == 3  # served from the cache

    # the cache is no part of the key's identity
    fresh = m.MeetingKey(old_key.key, old_key.epoch)
    assert fresh == old_key and hash(fresh) == hash(old_key)
    assert repr(fresh) == repr(old_key)

    # carol leaves with her key; the rekey derives afresh under the new key
    world.commit(m.make_leave(carol))
    m.purge_keys(carol)
    m.review_requests(leader, world.meeting_ledger)
    dist_tx = world.distribute(leader)
    m.accept_key(bob, m.KeyDistribution.parse(dist_tx.body))
    del derived[:]
    later = m.encrypt_media(bob, 7, b"after the rekey")
    assert m.decrypt_media(leader, later) == b"after the rekey"
    assert derived == [(bob.known_mk.key, 7)] * 2
    assert bob.known_mk.stream(7)[0] != old_stream_key

    # a ghost holding the old key, with its stream context filled, reads nothing new
    ghost = m.ParticipantState(
        user="carol", device="dev", keypair=carol.keypair,
        meeting_id=leader.meeting_id, known_mk=old_key,
    )
    with pytest.raises(AuthenticationFailure):
        m.decrypt_media(ghost, later)
    assert len(derived) == 2


def test_reprs_hold_no_secrets():
    world = World()
    leader, (bob, _), _ = standard_meeting(world)
    m.encrypt_media(bob, 1, b"fill the stream cache")
    secrets = (bob.keypair.isk, bob.ephemeral.esk, bob.known_mk.key)
    actor = sim.Actor(
        user="bob", device="dev", adversary=False, keypair=bob.keypair, rank=1,
    )
    run = sim.MeetingRun(leader.meeting_id, 0, sessions={actor: bob})
    shown = [
        repr(bob.keypair),
        repr(bob.ephemeral),
        repr(bob.known_mk),
        repr(bob),
        repr(run),
    ]
    for text in shown:
        for secret in secrets:
            assert repr(secret) not in text
            assert secret.hex() not in text
    # the public halves are still there to read
    assert repr(bob.keypair.ivk) in shown[0] and repr(bob.ephemeral.epk) in shown[1]
    assert "epoch=0" in shown[2]


class _CountingConstructor:
    """Stands in for a private-key class, counting `from_private_bytes`."""

    def __init__(self, cls):
        self.cls = cls
        self.calls = 0

    def from_private_bytes(self, data):
        self.calls += 1
        return self.cls.from_private_bytes(data)


def test_private_keys_are_built_once_per_keygen(monkeypatch):
    ed25519 = _CountingConstructor(crypto.Ed25519PrivateKey)
    x25519 = _CountingConstructor(crypto.X25519PrivateKey)
    monkeypatch.setattr(crypto, "Ed25519PrivateKey", ed25519)
    monkeypatch.setattr(crypto, "X25519PrivateKey", x25519)
    calls = {"identity_keygen": 0, "ephemeral_keygen": 0, "sign": 0, "dh": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(crypto, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(crypto, name, counting)

    world = World()
    leader, members, _ = standard_meeting(world, ("bob", "carol", "dave"))
    world.commit(m.make_leave(members[-1]))
    m.review_requests(leader, world.meeting_ledger)
    dist_tx = world.distribute(leader)
    for member in members[:-1]:
        m.accept_key(member, m.KeyDistribution.parse(dist_tx.body))

    # four identities; a publish, three requests and a rekey each mint an ephemeral
    assert calls["identity_keygen"] == 4 and calls["ephemeral_keygen"] == 5
    # four registrations, a publish, three requests, two distributions, a leave
    assert calls["sign"] == 11
    # each distribution wraps to every member, and every member unwraps
    assert calls["dh"] == 3 + 3 + 2 + 2
    assert ed25519.calls == calls["identity_keygen"]
    assert x25519.calls == calls["ephemeral_keygen"]


# ---------------------------------------------------------------------------
# random schedules at library level

USERS = ("alice", "bob", "carol", "dave")
MEETINGS = st.sampled_from((0, 1))
PEOPLE = st.sampled_from(USERS)
KINDS = ("request", "leave", "distribute", "handover", "dismiss")
# a dismissal ends its meeting, so none comes before the chain has grown this far
DISMISS_AFTER = 14


def signers(ledger):
    return [tx.signer for _, _, tx in ledger.iter_txs()]


class Schedules(RuleBasedStateMachine):
    """Random schedules of meeting transactions on one chain, offered one
    block at a time: alice's meeting under designation and bob's under time
    order, with alice, bob, carol and dave registered at tick 0 and two of
    them requesting to join each meeting. No identity registers later: a
    reload judges a meeting block against the bindings registered after it
    too (ROADMAP item 5's Defect B), so a late registration would fail the
    reload check until that is mended.

    Each step builds its transactions with the library, or forges them, and
    takes up what it changed only once the chain has admitted its block."""

    def __init__(self):
        super().__init__()
        self.world = World(seed=29)
        self.ledger = self.world.meeting_ledger
        self.keys = {user: self.world.actor(user).keypair for user in USERS}
        # the session of each (user, meeting) that joined and has not left
        self.sessions = {}
        self.meeting_ids = []
        for user, rule in zip(USERS, m.ReassignRule):
            session = self.new_session(user)
            self.world.commit(m.publish_meeting(session, "sync", self.world.rng, rule))
            self.sessions[user, len(self.meeting_ids)] = session
            self.meeting_ids.append(session.meeting_id)
        # each meeting starts with two requesters, so a handover can land at once
        for meeting, users in enumerate((("bob", "carol"), ("carol", "dave"))):
            for user in users:
                self.offer([self.build_request(meeting, user, False)])

    def new_session(self, user):
        return m.ParticipantState(user=user, device="dev", keypair=self.keys[user])

    def view(self, meeting):
        return m.build_view(self.ledger, self.meeting_ids[meeting])

    def leader(self, meeting):
        """The user the chain names as the meeting's leader, left or not."""
        ivk = self.view(meeting).leader_ivk
        return next(user for user in USERS if self.keys[user].ivk == ivk)

    def offer(self, steps):
        """Append the built transactions as one block. A refused block must
        name its reason and place and leave every view as it was; once a
        block lands, each step takes up its own transaction in block order.
        Returns the reason a block was refused, else None."""
        steps = [step for step in steps if step is not None]
        if not steps:
            return None
        before = [view_facts(self.view(meeting)) for meeting in (0, 1)]
        index = len(self.ledger.blocks)
        self.world.tick += 1
        try:
            self.ledger.append_block([tx for tx, _, _ in steps], timestamp=self.world.tick)
        except InvalidTransaction as err:
            assert isinstance(err.reason, Reason)
            assert err.at[0] == index and 0 <= err.at[1] < len(steps)
            assert len(self.ledger.blocks) == index
            assert [view_facts(self.view(meeting)) for meeting in (0, 1)] == before
            if err.at[1] > 0:
                self.assert_reloads()  # the earlier transactions were folded, then undone
            return err.reason
        for _, _, admitted in steps:
            admitted()
        return None

    def build(self, kind, meeting, user, forged):
        if kind == "dismiss" and len(self.ledger.blocks) < DISMISS_AFTER:
            return None
        return getattr(self, "build_" + kind)(meeting, user, forged)

    def build_request(self, meeting, user, forged):
        session = self.new_session(user)
        try:
            tx = m.make_request(session, self.ledger, self.meeting_ids[meeting], self.world.rng)
        except InvalidTransaction:
            return None

        def joined():
            self.sessions[user, meeting] = session

        return tx, meeting, joined

    def build_leave(self, meeting, user, forged):
        # signed by hand, so that a user not in the meeting can post one too
        leave = m.MeetingLeave(self.meeting_ids[meeting], user, "dev", self.keys[user].ivk)

        def left():
            del self.sessions[user, meeting]

        return m.signed_tx(leave, self.keys[user]), meeting, left

    def build_distribute(self, meeting, user, forged):
        session = self.sessions.get((self.leader(meeting), meeting))
        if session is None:
            return None
        recipients = [record.request for record in self.view(meeting).members()]
        try:
            tx, key = m.distribute_key(session, self.ledger, self.world.rng)
        except InvalidTransaction:
            return None

        def keyed():
            session.known_mk = key
            dist = tx.payload
            assert [e.recipient_ivk for e in dist.entries] == [r.ivk for r in recipients]
            # the chain refuses a distribution once one it keys has left, even
            # earlier in the same block, so each still holds its session here
            holders = {self.keys[user].ivk for user, at in self.sessions if at == meeting}
            assert {e.recipient_ivk for e in dist.entries} <= holders
            for request in recipients:
                assert m.accept_key(self.sessions[request.user, meeting], dist) == key

        return tx, meeting, keyed

    def build_handover(self, meeting, successor, forged):
        view = self.view(meeting)
        prev, new = self.keys[self.leader(meeting)], self.keys[successor]
        if forged:
            # a co-signature where the rule wants none, or none where it wants one
            ephemeral = crypto.ephemeral_keygen(self.world.rng)
            handover = m.LeaderReassign(
                view.meeting_id, prev.ivk, new.ivk, ephemeral.epk, None
            )
            if view.rule is m.ReassignRule.TIME_ORDER:
                handover = replace(
                    handover, prev_leader_sig=crypto.sign(prev, handover.handover_bytes())
                )
            tx = m.signed_tx(handover, new)
        else:
            try:
                tx, ephemeral = m.build_reassign(view, prev, new, self.world.rng)
            except InvalidTransaction:
                return None

        def took_over():
            self.sessions[successor, meeting].ephemeral = ephemeral

        return tx, meeting, took_over

    def build_dismiss(self, meeting, user, forged):
        session = self.sessions.get((self.leader(meeting), meeting))
        if session is None:
            return None
        try:
            tx = m.dismiss_meeting(session, self.ledger)
        except InvalidTransaction:
            return None
        return tx, meeting, lambda: None

    @rule(meeting=MEETINGS, user=PEOPLE)
    def request(self, meeting, user):
        self.offer([self.build_request(meeting, user, False)])

    @rule(meeting=MEETINGS, user=PEOPLE)
    def leave(self, meeting, user):
        self.offer([self.build_leave(meeting, user, False)])

    @rule(meeting=MEETINGS, since=st.integers(0, 3))
    def review(self, meeting, since):
        session = self.sessions.get((self.leader(meeting), meeting))
        if session is None:
            return
        try:
            outcomes = m.review_requests(session, self.ledger, since=since)
        except InvalidTransaction:
            return
        view = self.view(meeting)
        members = {(r.request.user, r.request.device) for r in view.members()}
        # every user is registered under its own key, so every request verifies
        assert all(o.verdict is None and o.granted for o in outcomes)
        assert {(o.user, o.device) for o in outcomes} <= members

    @rule(meeting=MEETINGS)
    def distribute(self, meeting):
        self.offer([self.build_distribute(meeting, None, False)])

    @rule(meeting=MEETINGS, user=PEOPLE)
    def small_order_request(self, meeting, user):
        step = self.build_request(meeting, user, False)
        if step is not None:
            weak = with_small_order_epk(step[0], self.keys[user])
            assert self.offer([(weak, meeting, step[2])]) == Reason.MALFORMED_BODY

    @rule(meeting=MEETINGS)
    def rekey_with_no_change(self, meeting):
        """The last distribution's entries again, as the next epoch, signed
        by the leader while no member has come or gone: the leader is still
        present, and so is every entry's recipient."""
        view = self.view(meeting)
        if view.last_distribution is None or view.membership_changed or view.dismissed:
            return
        rekey = replace(view.last_distribution, epoch=view.next_epoch)
        twin = m.signed_tx(rekey, self.keys[self.leader(meeting)])
        assert self.offer([(twin, meeting, lambda: None)]) == Reason.RULE_VIOLATION

    @rule(meeting=MEETINGS, pick=st.integers(0, 3), forged=st.booleans(), rekey=st.booleans())
    def handover(self, meeting, pick, forged, rekey):
        # mostly to a member, so that handovers land and chain up
        members = [record.request.user for record in self.view(meeting).members()]
        successor = members[pick % len(members)] if members else USERS[pick]
        self.offer([self.build_handover(meeting, successor, forged)])
        if rekey:  # as an honest successor does at once
            self.distribute(meeting)

    @precondition(lambda self: len(self.ledger.blocks) >= DISMISS_AFTER)
    @rule(meeting=MEETINGS)
    def dismiss(self, meeting):
        self.offer([self.build_dismiss(meeting, None, False)])

    @rule(steps=st.lists(
        st.tuples(st.sampled_from(KINDS), MEETINGS, PEOPLE, st.booleans()),
        min_size=2, max_size=3,
    ))
    def block(self, steps):
        self.offer([self.build(*step) for step in steps])

    def teardown(self):
        self.assert_reloads()

    def assert_reloads(self):
        """Dumping both ledgers and reloading them gives the live views and
        signers. Checked at the end of a schedule and after a refused block
        that folded something, since a reload re-verifies every signature."""
        _, meeting = load_both(
            dump_hex_lines(self.world.identity_ledger), dump_hex_lines(self.ledger)
        )
        for meeting_id in self.meeting_ids:
            loaded = m.build_view(meeting, meeting_id)
            assert view_facts(loaded) == view_facts(m.build_view(self.ledger, meeting_id))
        assert signers(meeting) == signers(self.ledger)


Schedules.TestCase.settings = settings(max_examples=50, stateful_step_count=25, deadline=None)
test_random_schedules_keep_the_chain_consistent = Schedules.TestCase
