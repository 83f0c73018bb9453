"""The field-table codec: every wire struct round-trips and parses strictly."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from chainmeet import crypto, meeting as m
from chainmeet.encoding import U32_MAX, Reader, lp, utf8
from chainmeet.errors import EncodingError, Reason
from chainmeet.identity import CommittedInfo, IdentityRecord, PlainInfo, parse_identity_body
from chainmeet.ledger import Block, Transaction, TxTag
from chainmeet.rng import DeterministicRng
from test_crypto import SMALL_ORDER_KEYS


def exact(n):
    return st.binary(min_size=n, max_size=n)


def tuples(strategy):
    return st.lists(strategy, max_size=3).map(tuple)


# hypothesis shrinks exact(32) to the all-zero key, which no epk field takes
EPKS = exact(32).filter(lambda key: key not in SMALL_ORDER_KEYS)

U32S = st.integers(min_value=0, max_value=2**32 - 1)
U64S = st.integers(min_value=0, max_value=2**64 - 1)
TEXT = st.text(max_size=8)
NAMES = st.text(min_size=1, max_size=8)  # at most 32 utf-8 bytes
BOXES = st.builds(crypto.AeadBox, exact(12), st.binary(max_size=40), exact(16))
TXS = st.builds(
    Transaction, st.integers(min_value=0, max_value=255), st.binary(max_size=40), exact(64)
)

STRUCTS = {
    crypto.AeadBox: BOXES,
    Transaction: TXS,
    Block: st.builds(Block, U64S, exact(32), U64S, tuples(TXS)),
    IdentityRecord: st.builds(
        IdentityRecord, NAMES, NAMES, exact(32),
        st.builds(PlainInfo, st.binary(max_size=40)) | st.builds(CommittedInfo, exact(32)),
    ),
    m.PublishMeeting: st.builds(
        m.PublishMeeting, exact(16), TEXT, st.sampled_from(m.ReassignRule), exact(32), EPKS
    ),
    m.MeetingRequest: st.builds(
        m.MeetingRequest, exact(16), TEXT, TEXT, exact(32), EPKS
    ),
    m.KeyEntry: st.builds(m.KeyEntry, exact(32), BOXES),
    m.KeyDistribution: st.builds(
        m.KeyDistribution, exact(16), U32S, EPKS,
        tuples(st.builds(m.KeyEntry, exact(32), BOXES)),
    ),
    m.MeetingLeave: st.builds(m.MeetingLeave, exact(16), TEXT, TEXT, exact(32)),
    m.LeaderReassign: st.builds(
        m.LeaderReassign, exact(16), exact(32), exact(32), EPKS, st.none() | exact(64),
    ),
    m.MeetingDismiss: st.builds(m.MeetingDismiss, exact(16)),
    m.MediaPacket: st.builds(m.MediaPacket, U32S, U32S, U64S, BOXES),
}


@pytest.mark.parametrize("struct", list(STRUCTS), ids=lambda struct: struct.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_table_round_trips_and_parses_strictly(struct, data):
    value = data.draw(STRUCTS[struct])
    raw = value.encode()
    assert struct.parse(raw) == value
    for cut in range(len(raw)):
        with pytest.raises(EncodingError):
            struct.parse(raw[:cut])
    for extra in range(256):
        with pytest.raises(EncodingError):
            struct.parse(raw + bytes([extra]))


@settings(max_examples=30, deadline=None)
@given(STRUCTS[m.LeaderReassign])
def test_optional_flag_other_than_zero_or_one_is_refused(reassign):
    raw = bytearray(reassign.encode())
    at = 16 + 3 * 32
    assert raw[at] == (reassign.prev_leader_sig is not None)
    for flag in range(2, 256):
        raw[at] = flag
        with pytest.raises(EncodingError):
            m.LeaderReassign.parse(bytes(raw))


INVALID_UTF8 = (b"\xff", b"\xc3\x28", b"a\x80", b"\xed\xa0\x80", b"\xf0\x9f\x98")


@pytest.mark.parametrize("raw", INVALID_UTF8)
def test_invalid_utf8_is_an_encoding_error_in_every_text_field(raw):
    with pytest.raises(EncodingError):
        utf8(0, U32_MAX).read(Reader(lp(raw)))
    mid, key, bad, ok = bytes(16), bytes(32), lp(raw), lp(b"ok")
    # a valid epk and rule byte, so that each body fails on its text alone
    epk = crypto.ephemeral_keygen(DeterministicRng(3)).epk
    bodies = {
        m.PublishMeeting: [mid + bad + b"\x00" + key + epk],
        m.MeetingRequest: [mid + bad + ok + key + epk, mid + ok + bad + key + epk],
        m.MeetingLeave: [mid + bad + ok + key, mid + ok + bad + key],
        IdentityRecord: [bad + ok + key + b"\x00" + lp(b""),
                         ok + bad + key + b"\x00" + lp(b"")],
    }
    for struct, cases in bodies.items():
        for body in cases:
            with pytest.raises(EncodingError):
                struct.parse(body)
    # and where a body meets the ledger or a leader, it is malformed
    request = Transaction(TxTag.MEETING_REQUEST, bodies[m.MeetingRequest][0], bytes(64))
    assert m.verify_request_tx(request, None) == Reason.MALFORMED_BODY
    with pytest.raises(EncodingError):
        m.parse_meeting_tx(request)
    with pytest.raises(EncodingError):
        parse_identity_body(bodies[IdentityRecord][0])


def test_handover_bytes_are_the_reassign_fields_before_the_signature():
    reassign = m.LeaderReassign(
        bytes(range(16)), bytes([1]) * 32, bytes([2]) * 32, bytes([3]) * 32, bytes(64)
    )
    assert reassign.handover_bytes() == reassign.encode()[: 16 + 3 * 32]


GOOD_EPK = crypto.ephemeral_keygen(DeterministicRng(4)).epk
# one struct per epk field, with the field holding GOOD_EPK and no other
# field holding those bytes
EPK_FIELDS = [
    (m.PublishMeeting(bytes(16), "", m.ReassignRule.DESIGNATION, bytes(32), GOOD_EPK),
     "leader_epk"),
    (m.MeetingRequest(bytes(16), "bob", "dev", bytes(32), GOOD_EPK), "epk"),
    (m.KeyDistribution(bytes(16), 1, GOOD_EPK, ()), "leader_epk"),
    (m.LeaderReassign(bytes(16), bytes(32), bytes(32), GOOD_EPK, None), "new_leader_epk"),
]


@pytest.mark.parametrize("key", SMALL_ORDER_KEYS, ids=lambda key: key.hex()[:4] + key.hex()[-2:])
def test_a_small_order_epk_is_refused_on_parse_and_encode_in_every_epk_field(key):
    for value, name in EPK_FIELDS:
        raw = value.encode()
        assert type(value).parse(raw) == value and raw.count(GOOD_EPK) == 1
        with pytest.raises(EncodingError, match="small order"):
            type(value).parse(raw.replace(GOOD_EPK, key))
        with pytest.raises(EncodingError, match="small order"):
            replace(value, **{name: key}).encode()


def test_ephemeral_keys_from_keygen_pass_as_epks():
    rng = DeterministicRng(6)
    for _ in range(2000):
        epk = crypto.ephemeral_keygen(rng).epk
        assert crypto.EPK.write(epk) == epk
        assert crypto.EPK.read(Reader(epk)) == epk
