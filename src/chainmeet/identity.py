"""Identity registry on the identity ledger.

A registration binds (user, device) to an identity verification key, exactly
once, forever. The optional user info rides along either in the clear or as
an HMAC commitment whose opening can be shown off-ledger to whoever needs it.

The ledger keeps its bindings indexed (IdentityState), so a lookup costs
the same however many identities are registered.

A registration body is the field table of `IdentityRecord` (see encoding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import crypto
from .encoding import Kind, Reader, Wire, fixed, lp, utf8, wire
from .errors import EncodingError, InvalidTransaction, Reason
from .ledger import Ledger, LedgerKind, Transaction, TxTag, new_ledger, signed_tx

MAX_NAME_BYTES = 64
MAX_INFO_BYTES = 1024
NAME = utf8(1, MAX_NAME_BYTES)


@dataclass(frozen=True)
class PlainInfo:
    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) > MAX_INFO_BYTES:
            raise EncodingError(f"user info larger than {MAX_INFO_BYTES} bytes")


@dataclass(frozen=True)
class CommittedInfo:
    """HMAC-SHA256(r, plaintext); opening (plaintext, r) travels off-ledger."""

    mac: bytes

    def __post_init__(self) -> None:
        if len(self.mac) != crypto.KEY_LEN:
            raise EncodingError("commitment must be 32 bytes")


UserInfo = Union[PlainInfo, CommittedInfo]


def _read_info(reader: Reader) -> UserInfo:
    kind = reader.u8()
    if kind == 0:
        return PlainInfo(reader.lp())
    if kind == 1:
        return CommittedInfo(reader.lp())
    raise EncodingError(f"unknown info kind {kind}")


def _write_info(info: UserInfo) -> bytes:
    if isinstance(info, PlainInfo):
        return b"\x00" + lp(info.data)
    if isinstance(info, CommittedInfo):
        return b"\x01" + lp(info.mac)
    raise EncodingError(f"unknown user info {info!r}")


# u8 kind (0 plain, 1 commitment) || LP data
USER_INFO = Kind(_read_info, _write_info)


@dataclass(frozen=True)
class IdentityRecord(Wire):
    """A registration body; both directions check its limits."""

    TAG = TxTag.IDENTITY

    user: str = wire(NAME)
    device: str = wire(NAME)
    ivk: bytes = wire(fixed(crypto.KEY_LEN))
    info: UserInfo = wire(USER_INFO)


def encode_identity_body(user: str, device: str, ivk: bytes, info: UserInfo) -> bytes:
    return IdentityRecord(user, device, ivk, info).encode()


def parse_identity_body(body: bytes) -> IdentityRecord:
    return IdentityRecord.parse(body)


def register_identity(
    user: str,
    device: str,
    keypair: crypto.IdentityKeyPair,
    info: Optional[UserInfo] = None,
) -> Transaction:
    """Build the signed registration transaction for this device."""
    record = IdentityRecord(user, device, keypair.ivk, info or PlainInfo(b""))
    return signed_tx(record, keypair)


def commit_userinfo(plaintext: bytes, blinding: bytes) -> CommittedInfo:
    if len(plaintext) > MAX_INFO_BYTES:
        raise EncodingError(f"user info larger than {MAX_INFO_BYTES} bytes")
    if len(blinding) != crypto.KEY_LEN:
        raise EncodingError("blinding value must be 32 bytes")
    return CommittedInfo(crypto.hmac_sha256(blinding, plaintext))


def verify_userinfo(commitment: CommittedInfo, plaintext: bytes, blinding: bytes) -> bool:
    """Constant-time check of a commitment opening."""
    if len(plaintext) > MAX_INFO_BYTES or len(blinding) != crypto.KEY_LEN:
        return False
    expected = crypto.hmac_sha256(blinding, plaintext)
    return crypto.constant_time_equal(expected, commitment.mac)


class IdentityState:
    """The identity ledger's bindings: (user, device) -> record, and each
    registered ivk -> the binding that registered it first."""

    def __init__(self) -> None:
        self.records: dict[tuple[str, str], IdentityRecord] = {}
        self.ivks: dict[bytes, tuple[str, str]] = {}

    def admit(self, txs: list[Transaction], ledger: Ledger, block_index: int) -> None:
        before = len(self.records), len(self.ivks)
        for pos, tx in enumerate(txs):
            try:
                record = validate_identity_tx(tx, ledger)
            except InvalidTransaction as exc:
                # both maps only gain keys, in insertion order, so trimming
                # them back to their lengths before the block undoes it
                for mapping, length in zip((self.records, self.ivks), before):
                    while len(mapping) > length:
                        mapping.popitem()
                exc.at = (block_index, pos)
                raise
            object.__setattr__(tx, "signer", record.ivk)
            binding = (record.user, record.device)
            self.records[binding] = record
            self.ivks.setdefault(record.ivk, binding)


def find_identity(ledger: Ledger, user: str, device: str) -> Optional[IdentityRecord]:
    return ledger.state.records.get((user, device))


def ivk_registered(ledger: Ledger, ivk: bytes) -> bool:
    return ivk in ledger.state.ivks


def validate_identity_tx(tx: Transaction, ledger: Ledger) -> IdentityRecord:
    """Admission rule for the identity ledger; raises InvalidTransaction.

    The decoded record is kept on tx for every later reader.
    """
    try:
        record = parse_identity_body(tx.body)
    except EncodingError as exc:
        raise InvalidTransaction(Reason.MALFORMED_BODY, str(exc)) from None
    object.__setattr__(tx, "payload", record)
    if not crypto.verify(record.ivk, tx.signing_bytes, tx.signature):
        raise InvalidTransaction(
            Reason.BAD_SIGNATURE, f"({record.user}, {record.device})"
        )
    if find_identity(ledger, record.user, record.device) is not None:
        raise InvalidTransaction(
            Reason.DUPLICATE_BINDING, f"({record.user}, {record.device})"
        )
    return record


def new_identity_ledger() -> Ledger:
    return new_ledger(LedgerKind.IDENTITY, state=IdentityState())
