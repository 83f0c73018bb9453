"""Append-only hash-chained ledgers.

Two instances of the same machinery: the identity ledger (one transaction
kind) and the meeting ledger (control traffic). Both keep their whole
history. Blocks bind to their predecessor by hash; any byte of history that
changes breaks verification. Each ledger keeps a state (ChainState) that
names the ledger and the transaction tags it takes, and that only admission
writes: append_block has it admit each block whole, so nothing has to fold
the chain from genesis to answer a question, and a reloaded ledger decides
what a live one would.

The field tables of `Block` and `Transaction` below are their canonical
bytes (see encoding). A signature is always taken over kind_tag || body.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Optional, Protocol

from . import crypto
from .encoding import LP, U8, U64, Wire, fixed, u8, vector, wire
from .errors import (
    EncodingError,
    InvalidTransaction,
    NonMonotonicTimestamp,
    Reason,
)

GENESIS_PREV_HASH = bytes(32)


class TxTag(enum.IntEnum):
    IDENTITY = 1
    MEETING_PUBLISH = 2
    MEETING_REQUEST = 3
    KEY_DISTRIBUTION = 4
    MEETING_LEAVE = 5
    LEADER_REASSIGN = 6
    MEETING_DISMISS = 7


@dataclass(frozen=True)
class Transaction(Wire):
    tag: int = wire(U8)
    body: bytes = wire(LP)
    signature: bytes = wire(fixed(crypto.SIG_LEN))
    # the payload admission decoded from body (an identity record or a
    # meeting payload), kept for every later reader, and the key admission
    # checked the signature under; only admission sets them, never whoever
    # built the tx
    payload: Any = field(default=None, init=False, compare=False, repr=False)
    signer: bytes = field(default=b"", init=False, compare=False, repr=False)

    @property
    def signing_bytes(self) -> bytes:
        return u8(self.tag) + self.body


def signed_tx(payload: Wire, signer: crypto.IdentityKeyPair) -> Transaction:
    """Wrap a payload as a transaction of its class's TAG, signed by
    `signer`'s key pair; both ledgers sign this way."""
    body = payload.encode()
    signature = crypto.sign(signer, u8(payload.TAG) + body)
    return Transaction(tag=payload.TAG, body=body, signature=signature)


@dataclass(frozen=True)
class Block(Wire):
    index: int = wire(U64)
    prev_hash: bytes = wire(fixed(32))
    timestamp: int = wire(U64)
    txs: tuple[Transaction, ...] = wire(vector(Transaction))
    block_hash: bytes = b""  # SHA-256 of the fields above; not on the wire

    canonical_bytes = Wire.encode  # its name in the tests and perfbench


def make_block(
    index: int, prev_hash: bytes, timestamp: int, txs: tuple[Transaction, ...]
) -> Block:
    draft = Block(index, prev_hash, timestamp, txs)
    return replace(draft, block_hash=crypto.sha256(draft.encode()))


def parse_block(data: bytes, stored_hash: Optional[bytes] = None) -> Block:
    """Strict parse of canonical block bytes.

    stored_hash, when given, is kept as the block's hash instead of the one
    recomputed from data -- that is how tamper checks model an attacker who
    edits content but cannot touch the hashes the rest of the chain pinned.
    """
    block_hash = stored_hash if stored_hash is not None else crypto.sha256(data)
    return replace(Block.parse(data), block_hash=block_hash)


class ChainState(Protocol):
    """What a ledger's admitted transactions add up to; `admit` is its only
    writer. `KIND` names the ledger and `TAGS` are the transaction tags it
    takes.

    `admit` judges each transaction of a block against the state, with the
    earlier ones of the block already folded in, and folds it in, recording
    its signer on it. When one is refused it puts back, in place, what the
    earlier ones folded, and raises InvalidTransaction with `at` set: a block
    lands whole or not at all.
    """

    KIND: str
    TAGS: frozenset[int]

    def admit(self, txs: list[Transaction], ledger: "Ledger", block_index: int) -> None: ...


@dataclass
class Ledger:
    # written only by its own admit, which append_block calls
    state: ChainState
    blocks: list[Block]

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    def append_block(self, txs: list[Transaction], timestamp: int) -> Block:
        if timestamp < self.head.timestamp:
            raise NonMonotonicTimestamp(
                f"{timestamp} < head timestamp {self.head.timestamp}"
            )
        allowed = self.state.TAGS
        index = self.head.index + 1
        for pos, tx in enumerate(txs):
            if tx.tag not in allowed:
                raise InvalidTransaction(
                    Reason.WRONG_LEDGER_KIND,
                    f"tag {tx.tag} not allowed on {self.state.KIND} ledger",
                    at=(index, pos),
                )
        self.state.admit(txs, self, index)
        block = make_block(
            index=index,
            prev_hash=self.head.block_hash,
            timestamp=timestamp,
            txs=tuple(txs),
        )
        self.blocks.append(block)
        return block

    def verify_chain(self) -> bool:
        if not self.blocks:
            return False
        allowed = self.state.TAGS
        for pos, block in enumerate(self.blocks):
            try:
                recomputed = crypto.sha256(block.encode())
            except EncodingError:
                return False
            if recomputed != block.block_hash:
                return False
            if any(tx.tag not in allowed for tx in block.txs):
                return False
            if pos == 0:
                if block.index != 0 or block.prev_hash != GENESIS_PREV_HASH:
                    return False
            else:
                prev = self.blocks[pos - 1]
                if block.index != prev.index + 1:
                    return False
                if block.prev_hash != prev.block_hash:
                    return False
                if block.timestamp < prev.timestamp:
                    return False
        return True

    def iter_txs(self) -> Iterator[tuple[int, int, Transaction]]:
        """Yields (block index, position within block, tx) in chain order."""
        for block in self.blocks:
            for pos, tx in enumerate(block.txs):
                yield block.index, pos, tx


def new_ledger(state: ChainState) -> Ledger:
    genesis = make_block(0, GENESIS_PREV_HASH, 0, ())
    return Ledger(state, [genesis])


def dump_hex_lines(ledger: Ledger) -> list[str]:
    """Canonical block bytes, hex, one block per line; the persistence format."""
    return [block.encode().hex() for block in ledger.blocks]


def load_hex_lines(lines: list[str], state: ChainState) -> Ledger:
    """Re-admit persisted blocks into a new ledger that keeps `state`.

    The blocks replay from the genesis block through append_block, and each
    replayed block must equal the loaded one, so a loaded ledger is judged as
    the live one was. Each block is hashed once, by its replay; the replay's
    bytes are compared with the stored line's.

    A meeting ledger is judged against its state's identity ledger as fully
    loaded. The two chains do not record how they interleave, so a
    time-order reassignment made before a late registration could be judged
    differently than it was live; every bundled scenario registers at tick 0.
    """
    blocks = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            data = bytes.fromhex(line)
            blocks.append((data, Block.parse(data)))
        except ValueError as exc:
            raise EncodingError(f"{state.KIND} ledger: bad hex block line: {exc}") from None
    if not blocks:
        raise EncodingError(f"{state.KIND} ledger: no blocks in ledger file")
    ledger = new_ledger(state)
    if blocks[0][0] != ledger.head.encode():
        raise EncodingError(f"{state.KIND} ledger: the first block is not the genesis block")
    for data, block in blocks[1:]:
        if ledger.append_block(list(block.txs), block.timestamp).encode() != data:
            raise EncodingError(
                f"{state.KIND} ledger: block {block.index} does not replay to its stored bytes"
            )
    return ledger
