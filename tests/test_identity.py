"""Identity registry: bindings, signatures, commitments."""

import hashlib
import hmac as stdlib_hmac

import pytest

from chainmeet import crypto
from chainmeet.encoding import lp
from chainmeet.errors import EncodingError, InvalidTransaction, Reason
from chainmeet.identity import (
    CommittedInfo,
    PlainInfo,
    commit_userinfo,
    encode_identity_body,
    find_identity,
    ivk_registered,
    new_identity_ledger,
    parse_identity_body,
    register_identity,
    validate_identity_tx,
    verify_userinfo,
)
from chainmeet.ledger import Transaction, TxTag
from chainmeet.rng import DeterministicRng


@pytest.fixture
def rng():
    return DeterministicRng(2025)


def registered(rng, ledger, user, device, info=None):
    pair = crypto.identity_keygen(rng)
    tx = register_identity(user, device, pair, info)
    ledger.append_block([tx], timestamp=len(ledger.blocks))
    return pair


def test_body_layout_matches_manual_assembly(rng):
    pair = crypto.identity_keygen(rng)
    info = PlainInfo(b"cardiology")
    body = encode_identity_body("ada", "laptop", pair.ivk, info)
    manual = (
        len(b"ada").to_bytes(4, "big") + b"ada"
        + len(b"laptop").to_bytes(4, "big") + b"laptop"
        + pair.ivk
        + b"\x00"
        + len(b"cardiology").to_bytes(4, "big") + b"cardiology"
    )
    assert body == manual
    parsed = parse_identity_body(body)
    assert (parsed.user, parsed.device, parsed.ivk, parsed.info) == (
        "ada", "laptop", pair.ivk, info,
    )


def test_registration_signature_covers_tag_and_body(rng):
    pair = crypto.identity_keygen(rng)
    tx = register_identity("ada", "laptop", pair)
    assert tx.tag == TxTag.IDENTITY
    assert crypto.verify(pair.ivk, bytes([tx.tag]) + tx.body, tx.signature)


def test_register_and_resolve(rng):
    ledger = new_identity_ledger()
    pair = registered(rng, ledger, "ada", "laptop")
    assert find_identity(ledger, "ada", "laptop").ivk == pair.ivk
    assert ivk_registered(ledger, pair.ivk)
    assert not ivk_registered(ledger, bytes(32))
    assert find_identity(ledger, "ada", "phone") is None
    assert find_identity(ledger, "bob", "laptop") is None


def test_duplicate_binding_rejected_same_and_different_key(rng):
    ledger = new_identity_ledger()
    pair = registered(rng, ledger, "ada", "laptop")
    for dup_pair in (pair, crypto.identity_keygen(rng)):
        with pytest.raises(InvalidTransaction) as err:
            ledger.append_block(
                [register_identity("ada", "laptop", dup_pair)], timestamp=10
            )
        assert err.value.reason == Reason.DUPLICATE_BINDING
    # the original binding is untouched
    assert find_identity(ledger, "ada", "laptop").ivk == pair.ivk


def test_one_user_many_devices_and_shared_device_names(rng):
    ledger = new_identity_ledger()
    laptop = registered(rng, ledger, "ada", "laptop")
    phone = registered(rng, ledger, "ada", "phone")
    bobs = registered(rng, ledger, "bob", "laptop")
    assert find_identity(ledger, "ada", "laptop").ivk == laptop.ivk
    assert find_identity(ledger, "ada", "phone").ivk == phone.ivk
    assert find_identity(ledger, "bob", "laptop").ivk == bobs.ivk


def test_bad_signature_rejected(rng):
    ledger = new_identity_ledger()
    pair = crypto.identity_keygen(rng)
    tx = register_identity("ada", "laptop", pair)
    flipped = bytes([tx.signature[0] ^ 1]) + tx.signature[1:]
    with pytest.raises(InvalidTransaction) as err:
        ledger.append_block([Transaction(tx.tag, tx.body, flipped)], timestamp=1)
    assert err.value.reason == Reason.BAD_SIGNATURE


def test_signature_by_someone_else_rejected(rng):
    ledger = new_identity_ledger()
    victim = crypto.identity_keygen(rng)
    attacker = crypto.identity_keygen(rng)
    body = encode_identity_body("ada", "laptop", victim.ivk, PlainInfo(b""))
    draft = Transaction(TxTag.IDENTITY, body, bytes(64))
    forged = Transaction(
        TxTag.IDENTITY, body, crypto.sign(attacker.isk, draft.signing_bytes)
    )
    with pytest.raises(InvalidTransaction) as err:
        validate_identity_tx(forged, ledger)
    assert err.value.reason == Reason.BAD_SIGNATURE


def test_malformed_body_rejected(rng):
    ledger = new_identity_ledger()
    names = lp(b"ada") + lp(b"laptop") + bytes(32)
    info_out_of_its_kind = (
        names + b"\x02" + lp(b""),  # no such kind
        names + b"\x01" + lp(bytes(31)),  # a commitment short of 32 bytes
        names + b"\x00" + lp(bytes(1025)),  # plain info over its cap
    )
    for body in (b"", b"\x00\x00\x00\x01a", bytes(100), *info_out_of_its_kind):
        with pytest.raises(InvalidTransaction) as err:
            validate_identity_tx(
                Transaction(TxTag.IDENTITY, body, bytes(64)), ledger
            )
        assert err.value.reason == Reason.MALFORMED_BODY


def test_name_length_limits(rng):
    pair = crypto.identity_keygen(rng)
    encode_identity_body("x" * 64, "d", pair.ivk, PlainInfo(b""))
    for user, device in (("", "d"), ("x" * 65, "d"), ("u", ""), ("u", "y" * 65)):
        with pytest.raises(EncodingError):
            encode_identity_body(user, device, pair.ivk, PlainInfo(b""))
    # multi-byte characters count in bytes, not characters
    with pytest.raises(EncodingError):
        encode_identity_body("é" * 33, "d", pair.ivk, PlainInfo(b""))


def test_userinfo_size_cap(rng):
    pair = crypto.identity_keygen(rng)
    encode_identity_body("u", "d", pair.ivk, PlainInfo(b"a" * 1024))
    with pytest.raises(EncodingError):
        encode_identity_body("u", "d", pair.ivk, PlainInfo(b"a" * 1025))
    with pytest.raises(EncodingError):
        commit_userinfo(b"a" * 1025, bytes(32))
    with pytest.raises(EncodingError):  # only a UserInfo encodes as one
        encode_identity_body("u", "d", pair.ivk, b"a")


def test_commitment_matches_hmac_oracle_and_verifies(rng):
    plaintext, blinding = b"paediatrics", rng.take(32)
    committed = commit_userinfo(plaintext, blinding)
    assert committed.mac == stdlib_hmac.new(blinding, plaintext, hashlib.sha256).digest()
    assert verify_userinfo(committed, plaintext, blinding)
    assert not verify_userinfo(committed, plaintext + b"?", blinding)
    assert not verify_userinfo(committed, plaintext, bytes(32))
    assert not verify_userinfo(CommittedInfo(bytes(32)), plaintext, blinding)


def test_commitment_registration_roundtrip(rng):
    ledger = new_identity_ledger()
    blinding = rng.take(32)
    info = commit_userinfo(b"oncology", blinding)
    registered(rng, ledger, "ada", "laptop", info)
    record = find_identity(ledger, "ada", "laptop")
    assert isinstance(record.info, CommittedInfo)
    assert verify_userinfo(record.info, b"oncology", blinding)


def test_parse_is_strict(rng):
    pair = crypto.identity_keygen(rng)
    body = encode_identity_body("u", "d", pair.ivk, PlainInfo(b"x"))
    with pytest.raises(EncodingError):
        parse_identity_body(body + b"\x00")
    with pytest.raises(EncodingError):
        parse_identity_body(body[:-1])


def test_many_bindings_resolve_independently():
    rng = DeterministicRng(77)
    ledger = new_identity_ledger()
    pairs = {}
    for i in range(12):
        user, device = f"user{i % 4}", f"device{i}"
        pairs[(user, device)] = registered(rng, ledger, user, device)
    assert ledger.verify_chain()
    for (user, device), pair in pairs.items():
        assert find_identity(ledger, user, device).ivk == pair.ivk
