"""Hash chain behavior: layout, linking, tamper detection, persistence."""

import hashlib
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from chainmeet.encoding import Reader
from chainmeet.errors import (
    EncodingError,
    InvalidTransaction,
    NonMonotonicTimestamp,
    Reason,
)
from chainmeet.identity import new_identity_ledger
from chainmeet.ledger import (
    Block,
    Transaction,
    TxTag,
    dump_hex_lines,
    load_hex_lines,
    new_ledger,
    parse_block,
)
from chainmeet.meeting import new_meeting_ledger
from chainmeet.rng import DeterministicRng


class AdmitAll:
    """A chain state that takes every tag and admits every transaction, for
    tests of the hash chain alone."""

    KIND = "test"
    TAGS = frozenset(TxTag)

    def admit(self, txs, ledger, block_index):
        pass


def manual_block_bytes(index, prev_hash, timestamp, txs):
    """The documented layout, assembled by hand as the independent route."""
    out = index.to_bytes(8, "big") + prev_hash + timestamp.to_bytes(8, "big")
    out += len(txs).to_bytes(4, "big")
    for tag, body, sig in txs:
        out += bytes([tag]) + len(body).to_bytes(4, "big") + body + sig
    return out


def some_tx(rng, tag=TxTag.IDENTITY, size=20):
    return Transaction(tag=tag, body=rng.take(size), signature=rng.take(64))


def small_chain(n_blocks=3):
    rng = DeterministicRng(1234)
    ledger = new_ledger(AdmitAll())
    for i in range(n_blocks):
        ledger.append_block([some_tx(rng), some_tx(rng)], timestamp=i + 1)
    return ledger


def test_genesis_layout_and_hash():
    ledger = new_ledger(AdmitAll())
    genesis = ledger.blocks[0]
    assert genesis.index == 0
    assert genesis.prev_hash == bytes(32)
    assert genesis.timestamp == 0
    assert genesis.txs == ()
    expected_bytes = manual_block_bytes(0, bytes(32), 0, [])
    assert genesis.canonical_bytes() == expected_bytes
    assert genesis.block_hash == hashlib.sha256(expected_bytes).digest()
    assert ledger.verify_chain()


def test_block_bytes_and_hash_match_manual_assembly():
    rng = DeterministicRng(7)
    ledger = new_ledger(AdmitAll())
    tx1, tx2 = some_tx(rng, size=33), some_tx(rng, size=0)
    block = ledger.append_block([tx1, tx2], timestamp=9)
    expected = manual_block_bytes(
        1,
        ledger.blocks[0].block_hash,
        9,
        [(tx1.tag, tx1.body, tx1.signature), (tx2.tag, tx2.body, tx2.signature)],
    )
    assert block.canonical_bytes() == expected
    assert block.block_hash == hashlib.sha256(expected).digest()
    assert block.prev_hash == ledger.blocks[0].block_hash
    assert ledger.verify_chain()


def test_block_serialisation_is_linear_in_its_transactions():
    """A big block serialises in one join: the bytes follow the documented
    layout, and 8N transactions cost well under the quadratic 64x of N."""
    rng = DeterministicRng(11)
    txs = tuple(some_tx(rng, size=40) for _ in range(8000))
    block = Block(1, bytes(32), 5, txs, b"")
    header = [(1).to_bytes(8, "big"), bytes(32), (5).to_bytes(8, "big")]
    expected = b"".join(
        header
        + [len(txs).to_bytes(4, "big")]
        + [
            bytes([tx.tag]) + len(tx.body).to_bytes(4, "big") + tx.body + tx.signature
            for tx in txs
        ]
    )
    assert block.canonical_bytes() == expected

    def fastest(n):
        sized = Block(1, bytes(32), 5, txs[:n], b"")
        best = float("inf")
        for _ in range(5):
            began = perf_counter()
            sized.canonical_bytes()
            best = min(best, perf_counter() - began)
        return best

    assert fastest(8000) < 24 * fastest(1000)


def test_signing_bytes_is_tag_then_body():
    tx = Transaction(tag=3, body=b"abc", signature=bytes(64))
    assert tx.signing_bytes == b"\x03abc"


def test_append_links_and_preserves_order():
    ledger = small_chain(4)
    assert [b.index for b in ledger.blocks] == [0, 1, 2, 3, 4]
    for prev, cur in zip(ledger.blocks, ledger.blocks[1:]):
        assert cur.prev_hash == prev.block_hash
    seen = [tx for block in ledger.blocks for tx in block.txs]
    replay = [tx for _, _, tx in ledger.iter_txs()]
    assert seen == replay and len(seen) == 8


def test_timestamps_must_not_decrease():
    ledger = small_chain(2)
    rng = DeterministicRng(5)
    with pytest.raises(NonMonotonicTimestamp):
        ledger.append_block([some_tx(rng)], timestamp=1)
    # equal timestamps are allowed: several events in the same tick
    ledger.append_block([some_tx(rng)], timestamp=2)
    assert ledger.verify_chain()


# the tags each ledger takes, written out here as the independent route
LEDGER_TAGS = {
    "identity": {TxTag.IDENTITY},
    "meeting": set(TxTag) - {TxTag.IDENTITY},
}


@pytest.mark.parametrize("tag", list(TxTag), ids=lambda tag: tag.name)
@pytest.mark.parametrize("kind", sorted(LEDGER_TAGS))
def test_wrong_kind_tag_is_refused(kind, tag):
    identity = new_identity_ledger()
    ledger = identity if kind == "identity" else new_meeting_ledger(identity)
    assert ledger.state.KIND == kind
    with pytest.raises(InvalidTransaction) as err:
        ledger.append_block([some_tx(DeterministicRng(6), tag=tag)], timestamp=1)
    if tag in LEDGER_TAGS[kind]:
        # past the kind check, the state refuses the random body itself
        assert err.value.reason != Reason.WRONG_LEDGER_KIND
    else:
        assert err.value.reason == Reason.WRONG_LEDGER_KIND
        assert err.value.at == (1, 0)
        assert err.value.detail == f"tag {int(tag)} not allowed on {kind} ledger"
    assert len(ledger.blocks) == 1


def test_validator_hook_blocks_append():
    class Refuse(AdmitAll):
        def admit(self, txs, ledger, block_index):
            raise InvalidTransaction(Reason.BAD_SIGNATURE, "refused by test")

    ledger = new_ledger(Refuse())
    with pytest.raises(InvalidTransaction) as err:
        ledger.append_block([some_tx(DeterministicRng(8))], timestamp=1)
    assert err.value.reason == Reason.BAD_SIGNATURE
    assert len(ledger.blocks) == 1 and ledger.verify_chain()


def test_single_byte_tampering_detected_sampled():
    ledger = small_chain(3)
    for pos, block in enumerate(ledger.blocks):
        raw = block.canonical_bytes()
        for offset in range(0, len(raw), 7):  # sampled; exhaustive run is elsewhere
            mutated = raw[:offset] + bytes([raw[offset] ^ 0xFF]) + raw[offset + 1 :]
            try:
                forged = parse_block(mutated, stored_hash=block.block_hash)
            except EncodingError:
                continue  # unparseable forgery never reaches the chain
            original = ledger.blocks[pos]
            ledger.blocks[pos] = forged
            assert not ledger.verify_chain(), f"block {pos} offset {offset}"
            ledger.blocks[pos] = original
    assert ledger.verify_chain()


def test_stored_hash_tampering_detected():
    ledger = small_chain(2)
    block = ledger.blocks[1]
    bad_hash = bytes([block.block_hash[0] ^ 1]) + block.block_hash[1:]
    ledger.blocks[1] = Block(
        block.index, block.prev_hash, block.timestamp, block.txs, bad_hash
    )
    assert not ledger.verify_chain()


def test_persistence_roundtrip():
    ledger = small_chain(3)
    lines = dump_hex_lines(ledger)
    assert len(lines) == 4 and all(bytes.fromhex(line) for line in lines)
    loaded = load_hex_lines(lines, AdmitAll())
    assert loaded.verify_chain()
    assert loaded.blocks == ledger.blocks


def test_loading_replays_from_genesis_and_refuses_a_broken_link():
    lines = dump_hex_lines(small_chain(3))
    for broken in (lines[2:], lines[:2] + lines[3:]):  # no genesis; a gap
        with pytest.raises(EncodingError):
            load_hex_lines(broken, AdmitAll())


def test_parse_block_is_strict():
    block = small_chain(1).blocks[1]
    raw = block.canonical_bytes()
    assert parse_block(raw) == block
    with pytest.raises(EncodingError):
        parse_block(raw + b"\x00")
    with pytest.raises(EncodingError):
        parse_block(raw[:-1])
    with pytest.raises(EncodingError):
        parse_block(b"")


def test_reader_rejects_overrun():
    reader = Reader(b"\x00\x00\x00\x05ab")
    with pytest.raises(EncodingError):
        reader.lp()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.binary(max_size=40), min_size=0, max_size=4),
)
def test_roundtrip_property(seed, bodies):
    rng = DeterministicRng(seed)
    ledger = new_ledger(AdmitAll())
    for i, body in enumerate(bodies):
        tx = Transaction(TxTag.MEETING_REQUEST, body, rng.take(64))
        ledger.append_block([tx], timestamp=i)
    loaded = load_hex_lines(dump_hex_lines(ledger), AdmitAll())
    assert loaded.blocks == ledger.blocks and loaded.verify_chain()
