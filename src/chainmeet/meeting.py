"""Meeting lifecycle: publish, join, key distribution, media, departure.

The leader mints a fresh 32-byte meeting key per epoch and wraps it to each
verified member under an ephemeral Diffie-Hellman agreement; the wrap's
derivation context and associated data both pin (meeting, epoch, recipient),
so a distribution spliced between meetings can only fail authentication,
never hand over the wrong key silently. Media is AES-256-GCM per stream with
the stream key derived from the epoch's meeting key by HMAC.

Each meeting-ledger transaction body, and a media packet, is the field table
of its class below (see encoding); TAG names the transaction kind. A body is
decoded once, when the ledger judges it, and the payload is kept on the
transaction for every later reader (`parse_meeting_tx`).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union, get_args

from . import crypto, identity as identity_mod
from .encoding import (
    U32, U64, U64_MAX, Kind, Reader, Wire, encode_fields, fixed, nested, optional,
    table, u32, u8, utf8, vector, wire,
)
from .errors import (
    AuthenticationFailure,
    CounterExhausted,
    EncodingError,
    InvalidTransaction,
    NoEntryForMe,
    NoMeetingKey,
    Reason,
)
from .ledger import Ledger, LedgerKind, Transaction, TxTag, new_ledger, signed_tx
from .rng import Rng

MEETING_ID_LEN = 16
MAX_EPOCH = 2**32 - 1


class ReassignRule(enum.IntEnum):
    """How leadership passes on; each meeting's publish signs in its own."""

    DESIGNATION = 0
    TIME_ORDER = 1


# ---------------------------------------------------------------------------
# transaction shapes


MEETING_ID = fixed(MEETING_ID_LEN)
KEY = fixed(crypto.KEY_LEN)
# the leader matches a request's names against the identity ledger; a
# body only has to keep them within the identity ledger's size
NAME = utf8(0, identity_mod.MAX_NAME_BYTES)
INFO = utf8(0, identity_mod.MAX_INFO_BYTES)


def _read_rule(reader: Reader) -> ReassignRule:
    code = reader.u8()
    try:
        return ReassignRule(code)
    except ValueError:
        raise EncodingError(f"unknown reassignment rule {code}") from None


RULE = Kind(_read_rule, u8)


@dataclass(frozen=True)
class PublishMeeting(Wire):
    TAG = TxTag.MEETING_PUBLISH

    meeting_id: bytes = wire(MEETING_ID)
    info: str = wire(INFO)
    rule: ReassignRule = wire(RULE)
    leader_ivk: bytes = wire(KEY)
    leader_epk: bytes = wire(crypto.EPK)


@dataclass(frozen=True)
class MeetingRequest(Wire):
    TAG = TxTag.MEETING_REQUEST

    meeting_id: bytes = wire(MEETING_ID)
    user: str = wire(NAME)
    device: str = wire(NAME)
    ivk: bytes = wire(KEY)
    epk: bytes = wire(crypto.EPK)


@dataclass(frozen=True)
class KeyEntry(Wire):
    recipient_ivk: bytes = wire(KEY)
    box: crypto.AeadBox = wire(nested(crypto.AeadBox))


@dataclass(frozen=True)
class KeyDistribution(Wire):
    """One epoch's key, wrapped to each member."""

    TAG = TxTag.KEY_DISTRIBUTION

    meeting_id: bytes = wire(MEETING_ID)
    epoch: int = wire(U32)
    leader_epk: bytes = wire(crypto.EPK)
    entries: tuple[KeyEntry, ...] = wire(vector(KeyEntry))

    def entry_for(self, ivk: bytes) -> Optional[KeyEntry]:
        """The first entry wrapped to `ivk`, or None."""
        return next((e for e in self.entries if e.recipient_ivk == ivk), None)


@dataclass(frozen=True)
class MeetingLeave(Wire):
    TAG = TxTag.MEETING_LEAVE

    meeting_id: bytes = wire(MEETING_ID)
    user: str = wire(NAME)
    device: str = wire(NAME)
    ivk: bytes = wire(KEY)


@dataclass(frozen=True)
class LeaderReassign(Wire):
    TAG = TxTag.LEADER_REASSIGN

    meeting_id: bytes = wire(MEETING_ID)
    prev_leader_ivk: bytes = wire(KEY)
    new_leader_ivk: bytes = wire(KEY)
    new_leader_epk: bytes = wire(crypto.EPK)
    # present under the designation rule
    prev_leader_sig: Optional[bytes] = wire(optional(fixed(crypto.SIG_LEN)))

    def handover_bytes(self) -> bytes:
        """What the outgoing leader endorses under the designation rule:
        every field before the signature."""
        return encode_fields(self, table(LeaderReassign)[:-1])


@dataclass(frozen=True)
class MeetingDismiss(Wire):
    TAG = TxTag.MEETING_DISMISS

    meeting_id: bytes = wire(MEETING_ID)


MeetingTx = Union[
    PublishMeeting, MeetingRequest, KeyDistribution, MeetingLeave,
    LeaderReassign, MeetingDismiss,
]

_PAYLOADS = {payload.TAG: payload for payload in get_args(MeetingTx)}


def parse_meeting_tx(tx: Transaction) -> MeetingTx:
    """The payload admission decoded from tx, else a decode of its body."""
    if tx.payload is not None:
        return tx.payload
    return _decode(tx)


def _decode(tx: Transaction) -> MeetingTx:
    payload = _PAYLOADS.get(tx.tag)
    if payload is None:
        raise EncodingError(f"unknown meeting tag {tx.tag}")
    return payload.parse(tx.body)


# ---------------------------------------------------------------------------
# derivations


def kdf_context(meeting_id: bytes, epoch: int, leader_epk: bytes, member_epk: bytes) -> bytes:
    return meeting_id + u32(epoch) + leader_epk + member_epk


def wrap_aad(meeting_id: bytes, epoch: int, recipient_ivk: bytes) -> bytes:
    return meeting_id + u32(epoch) + recipient_ivk


def derive_stream_key(meeting_key: bytes, stream_id: int) -> bytes:
    return crypto.hmac_sha256(meeting_key, u32(stream_id))


_NONCE = struct.Struct(">IQ")  # u32(epoch) || u64(counter)
_STREAM_ID = struct.Struct(">I")


def media_nonce(epoch: int, counter: int) -> bytes:
    try:
        return _NONCE.pack(epoch, counter)
    except struct.error:
        raise EncodingError(f"nonce fields out of range: {epoch}, {counter}") from None


def media_aad(meeting_id: bytes, stream_id: int) -> bytes:
    try:
        return meeting_id + _STREAM_ID.pack(stream_id)
    except struct.error:
        raise EncodingError(f"u32 out of range: {stream_id}") from None


@dataclass(frozen=True)
class MeetingKey:
    """One epoch's meeting key, with the stream contexts derived from it.

    A stream context is (stream key, prepared AEAD key), derived the first
    time the stream is sealed or opened under this key. It lives only on this
    object, so whatever drops the key drops its stream keys with it; it takes
    no part in equality, hashing or repr, and the key itself stays out of
    repr. The simulator shares one `MeetingKey` among the parties that
    unwrapped the same epoch key; its contexts go when the last party holding
    it forgets it.
    """

    key: bytes = field(repr=False)
    epoch: int
    _streams: dict[int, tuple[bytes, crypto.AeadKey]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def stream(self, stream_id: int) -> tuple[bytes, crypto.AeadKey]:
        context = self._streams.get(stream_id)
        if context is None:
            stream_key = derive_stream_key(self.key, stream_id)
            context = (stream_key, crypto.AeadKey(stream_key))
            self._streams[stream_id] = context
        return context


@dataclass(frozen=True)
class MediaPacket(Wire):
    stream_id: int = wire(U32)
    epoch: int = wire(U32)
    counter: int = wire(U64)
    box: crypto.AeadBox = wire(nested(crypto.AeadBox))


class Delivery:
    """A packet received in one meeting: its header check, AAD and
    ciphertext || tag are built once, so each `open` is one stream-context
    lookup (a dict get once the stream is warm) and one call of the stream's
    `crypto.AeadKey.open`, the package's one AES-GCM decrypt. An open's answer
    depends only on the key and the bytes, so readers that hold one key
    object can share it, as the simulator's do. A packet whose nonce is not
    its header's opens under no key."""

    __slots__ = ("packet", "header_ok", "aad", "sealed")

    def __init__(self, meeting_id: bytes, packet: MediaPacket):
        box = packet.box
        self.packet = packet
        self.header_ok = box.nonce == media_nonce(packet.epoch, packet.counter)
        self.aad = media_aad(meeting_id, packet.stream_id)
        self.sealed = box.ciphertext + box.tag

    def open(self, key: MeetingKey, sealed: Optional[bytes] = None) -> Optional[bytes]:
        """The payload, or None unless the packet opens under this key.

        `sealed` stands in for the packet's ciphertext || tag under the same
        header and AAD, as a tamper probe's altered copy does."""
        if not self.header_ok:
            return None
        packet = self.packet
        context = key._streams.get(packet.stream_id) or key.stream(packet.stream_id)
        return context[1].open(
            packet.box.nonce, self.sealed if sealed is None else sealed, self.aad
        )


# ---------------------------------------------------------------------------
# ledger-derived meeting state


# a leader's admission policy: (user, device, the identity's user info) -> keep?
Policy = Callable[[str, str, Optional[identity_mod.UserInfo]], bool]


def allow_all(user: str, device: str, info: Optional[identity_mod.UserInfo]) -> bool:
    return True


@dataclass(frozen=True)
class RequestRecord:
    request: MeetingRequest
    tx: Transaction


@dataclass
class MeetingView:
    """Everything a validator can derive about one meeting from the chain.

    `requests` keeps every request in arrival order, and `present` indexes
    those not yet left by (user, device, ivk), so a lookup or a leave costs
    the same however long the meeting has run. `leaders` maps each leader
    that has not left (the publisher, or one reassigned in) to the epk
    announced with it, at publish or at its latest handover. A record keeps
    only what cannot change, so `mark` needs no copy of a record: a member
    that took over keeps its request record, and its epk is the one in
    `leaders`. Whether the requester's identity matches is resolved against
    the identity ledger at each read, so a binding registered after the
    request counts from then on.
    """

    meeting_id: bytes
    identity_ledger: Ledger = field(repr=False, compare=False)
    exists: bool = False
    rule: ReassignRule = ReassignRule.DESIGNATION
    # the current leader, kept after its leave so its distributions stay refused
    leader_ivk: bytes = b""
    dismissed: bool = False
    last_distribution: Optional[KeyDistribution] = None
    # a request, leave or handover since the last distribution: a rekey is due
    membership_changed: bool = False
    requests: list[RequestRecord] = field(default_factory=list)
    present: dict[tuple[str, str, bytes], RequestRecord] = field(default_factory=dict)
    leaders: dict[bytes, bytes] = field(default_factory=dict)
    # the request transactions on the chain, so replays stand out
    request_txs: set[Transaction] = field(default_factory=set)

    @property
    def next_epoch(self) -> int:
        """The epoch the meeting's next key distribution must carry."""
        dist = self.last_distribution
        return 0 if dist is None else dist.epoch + 1

    def members(self, policy: Policy = allow_all) -> list[RequestRecord]:
        """The present requesters other than the current leader whose
        identity matches and that pass `policy`, in arrival order: a
        distribution under `policy` has an entry for each, as admission
        refused every epk of small order, and a handover goes to one of them.
        A publisher that handed over and stayed has no request record, so it
        is none of them. One identity lookup per record serves both the key
        check and the policy's user info."""
        return [
            r for r in self.present.values()
            if r.request.ivk != self.leader_ivk
            and _request_verdict(r.request, self.identity_ledger, policy)[1]
        ]

    def mark(self) -> tuple:
        """What `undo` needs to put this view back as it stands: `requests`
        only grows, so its length stands for it and for `request_txs`."""
        return (
            self.exists, self.rule, self.leader_ivk, self.dismissed,
            self.last_distribution, self.membership_changed, len(self.requests),
            dict(self.present), dict(self.leaders),
        )

    def undo(self, mark: tuple) -> None:
        (
            self.exists, self.rule, self.leader_ivk, self.dismissed,
            self.last_distribution, self.membership_changed, kept, self.present,
            self.leaders,
        ) = mark
        self.request_txs.difference_update([r.tx for r in self.requests[kept:]])
        del self.requests[kept:]

    def apply(self, tx: Transaction) -> None:
        """Fold in one admitted transaction of this meeting."""
        payload = tx.payload  # kept there by the verdict's decode
        if isinstance(payload, PublishMeeting):
            self.exists = True
            self.rule = payload.rule
            self.leader_ivk = payload.leader_ivk
            self.leaders[payload.leader_ivk] = payload.leader_epk
        elif isinstance(payload, MeetingRequest):
            record = RequestRecord(payload, tx)
            self.requests.append(record)
            self.present[payload.user, payload.device, payload.ivk] = record
            self.request_txs.add(tx)
            self.membership_changed = True
        elif isinstance(payload, KeyDistribution):
            self.last_distribution = payload
            self.membership_changed = False
        elif isinstance(payload, MeetingLeave):
            self.present.pop((payload.user, payload.device, payload.ivk), None)
            self.leaders.pop(payload.ivk, None)
            self.membership_changed = True
        elif isinstance(payload, LeaderReassign):
            self.leader_ivk = payload.new_leader_ivk
            self.leaders[payload.new_leader_ivk] = payload.new_leader_epk
            self.membership_changed = True
        elif isinstance(payload, MeetingDismiss):
            self.dismissed = True


class MeetingState:
    """The meeting ledger's state: one view per meeting id, each advanced by
    every transaction of that meeting as it is admitted."""

    def __init__(self, identity_ledger: Ledger) -> None:
        self.identity_ledger = identity_ledger
        self.views: dict[bytes, MeetingView] = {}

    def view(self, meeting_id: bytes) -> MeetingView:
        """The meeting's live view; an empty one for a meeting never published."""
        view = self.views.get(meeting_id)
        if view is None:
            return MeetingView(meeting_id, self.identity_ledger)
        return view

    def admit(self, txs: list[Transaction], ledger: Ledger, block_index: int) -> None:
        # the mark of each view the block touched before its last transaction
        # (whose refusal comes before its fold); None if the block made it
        before: dict[bytes, Optional[tuple]] = {}
        for pos, tx in enumerate(txs):
            reason = meeting_tx_verdict(tx, ledger)
            if reason is not None:
                for meeting_id, mark in before.items():
                    if mark is None:
                        del self.views[meeting_id]
                    else:
                        self.views[meeting_id].undo(mark)
                raise InvalidTransaction(reason, at=(block_index, pos))
            meeting_id = tx.payload.meeting_id
            view = self.views.get(meeting_id)
            if pos < len(txs) - 1 and meeting_id not in before:
                before[meeting_id] = None if view is None else view.mark()
            if view is None:
                view = self.views[meeting_id] = MeetingView(meeting_id, self.identity_ledger)
            view.apply(tx)
            # the key the verdict checked: the author's own for a request or a
            # leave, else the leader as this transaction leaves the meeting
            mine = isinstance(tx.payload, (MeetingRequest, MeetingLeave))
            object.__setattr__(tx, "signer", tx.payload.ivk if mine else view.leader_ivk)


def _request_verdict(
    request: MeetingRequest, identity_ledger: Ledger, policy: Policy
) -> tuple[Optional[Reason], bool]:
    """A request's identity verdict, and whether it is kept: verified and
    passing `policy`, which gets the user info of the same lookup."""
    found = identity_mod.find_identity(identity_ledger, request.user, request.device)
    if found is None:
        return Reason.UNKNOWN_IDENTITY, False
    if found.ivk != request.ivk:
        return Reason.KEY_MISMATCH, False
    return None, policy(request.user, request.device, found.info)


def verify_request_tx(tx: Transaction, identity_ledger: Ledger) -> Optional[Reason]:
    try:
        request = parse_meeting_tx(tx)
    except EncodingError:
        return Reason.MALFORMED_BODY
    if not isinstance(request, MeetingRequest):
        return Reason.MALFORMED_BODY
    if not crypto.verify(request.ivk, tx.signing_bytes, tx.signature):
        return Reason.BAD_SIGNATURE
    return _request_verdict(request, identity_ledger, allow_all)[0]


def build_view(meeting_ledger: Ledger, meeting_id: bytes) -> MeetingView:
    """The meeting as the chain has it, looked up in the ledger's state.

    The view is live: it advances as the ledger admits transactions, and it
    resolves identities against the meeting ledger's identity ledger.
    """
    return meeting_ledger.state.view(meeting_id)


# ---------------------------------------------------------------------------
# validation (used at ledger admission and by every honest observer)


def reassign_verdict(
    payload: LeaderReassign, tx: Transaction, view: MeetingView
) -> Optional[Reason]:
    """The verdict on a reassignment of a published, undismissed meeting,
    under the rule its publish signed in.

    The successor must be one of `view.members()`: a verified present
    requester other than the current leader. Under time order it must be
    the earliest of them, so a leader that joined by request can hand over,
    and an outgoing publisher that stayed is no candidate."""
    if payload.prev_leader_ivk != view.leader_ivk:
        return Reason.RULE_VIOLATION
    if not identity_mod.ivk_registered(view.identity_ledger, payload.new_leader_ivk):
        return Reason.UNKNOWN_IDENTITY
    member_ivks = [record.request.ivk for record in view.members()]
    if payload.new_leader_ivk not in member_ivks:
        return Reason.RULE_VIOLATION
    if not crypto.verify(payload.new_leader_ivk, tx.signing_bytes, tx.signature):
        return Reason.BAD_SIGNATURE
    if view.rule is ReassignRule.DESIGNATION:
        if payload.prev_leader_sig is None:
            return Reason.RULE_VIOLATION
        if not crypto.verify(
            payload.prev_leader_ivk, payload.handover_bytes(), payload.prev_leader_sig
        ):
            return Reason.BAD_SIGNATURE
    elif payload.prev_leader_sig is not None or member_ivks[0] != payload.new_leader_ivk:
        # time order: no co-signature, and the chain's earliest member succeeds
        return Reason.RULE_VIOLATION
    return None


def meeting_tx_verdict(tx: Transaction, meeting_ledger: Ledger) -> Optional[Reason]:
    """Validation verdict for one meeting-ledger transaction; None accepts.

    Judged against the meeting ledger's state, which holds its identity
    ledger and each meeting's view, so it costs the same at any chain length.
    The body is decoded here, always from its bytes, and the payload is kept
    on tx for the fold and every later reader.
    """
    try:
        payload = _decode(tx)
    except EncodingError:
        return Reason.MALFORMED_BODY
    object.__setattr__(tx, "payload", payload)
    state = meeting_ledger.state
    view = state.view(payload.meeting_id)

    if isinstance(payload, PublishMeeting):
        if view.exists:
            return Reason.DUPLICATE_MEETING
        if not identity_mod.ivk_registered(state.identity_ledger, payload.leader_ivk):
            return Reason.UNKNOWN_IDENTITY
        if not crypto.verify(payload.leader_ivk, tx.signing_bytes, tx.signature):
            return Reason.BAD_SIGNATURE
        return None

    if not view.exists:
        return Reason.MEETING_NOT_FOUND
    if view.dismissed:
        return Reason.MEETING_DISMISSED

    if isinstance(payload, MeetingRequest):
        # only self-consistency here; matching the identity ledger is the
        # leader's call, so impersonation is caught there with a precise reason
        if not crypto.verify(payload.ivk, tx.signing_bytes, tx.signature):
            return Reason.BAD_SIGNATURE
        if tx in view.request_txs:
            return Reason.REPLAYED_REQUEST
        # a present leader is in the meeting too, demoted or not
        principal = (payload.user, payload.device, payload.ivk)
        if principal in view.present or payload.ivk in view.leaders:
            return Reason.DUPLICATE_REQUEST
        return None

    if isinstance(payload, KeyDistribution):
        if not _leader_signed(view, tx):
            return Reason.NOT_CURRENT_LEADER
        if payload.epoch != view.next_epoch:
            return Reason.BAD_EPOCH
        if payload.epoch > 0 and not view.membership_changed:
            return Reason.RULE_VIOLATION  # a rekey answers a change of members
        # only the members present now: not one whose leave landed after the
        # distribution was built, nor a leader that left
        present = {ivk for _, _, ivk in view.present}.union(view.leaders)
        if any(e.recipient_ivk not in present for e in payload.entries):
            return Reason.NOT_A_MEMBER
        return None

    if isinstance(payload, MeetingLeave):
        if not crypto.verify(payload.ivk, tx.signing_bytes, tx.signature):
            return Reason.BAD_SIGNATURE
        principal = (payload.user, payload.device, payload.ivk)
        if principal not in view.present and payload.ivk not in view.leaders:
            return Reason.NOT_A_MEMBER
        return None

    if isinstance(payload, LeaderReassign):
        return reassign_verdict(payload, tx, view)

    assert isinstance(payload, MeetingDismiss)
    if not _leader_signed(view, tx):
        return Reason.NOT_CURRENT_LEADER
    return None


def _leader_signed(view: MeetingView, tx: Transaction) -> bool:
    """Whether the meeting's leader, still present, signed tx: a leader's
    leave takes its leading with it, until a handover names another."""
    return view.leader_ivk in view.leaders and crypto.verify(
        view.leader_ivk, tx.signing_bytes, tx.signature
    )


def new_meeting_ledger(identity_ledger: Ledger) -> Ledger:
    return new_ledger(LedgerKind.MEETING, state=MeetingState(identity_ledger))


# ---------------------------------------------------------------------------
# participant state and operations


@dataclass
class ParticipantState:
    """One actor's session in one meeting: its secrets and its media
    counters. Who leads, who is present and who is keyed is the chain's to
    say."""

    user: str
    device: str
    keypair: crypto.IdentityKeyPair
    meeting_id: Optional[bytes] = None
    ephemeral: Optional[crypto.EphemeralKeyPair] = None
    known_mk: Optional[MeetingKey] = None
    # sender side: next counter per (stream, epoch)
    stream_counters: dict[tuple[int, int], int] = field(default_factory=dict)


def publish_meeting(
    state: ParticipantState, info: str, rng: Rng,
    rule: ReassignRule = ReassignRule.DESIGNATION,
) -> Transaction:
    """Create a meeting whose leadership passes on under `rule`; the caller
    leads it once the chain admits the publish."""
    meeting_id = rng.take(MEETING_ID_LEN)
    ephemeral = crypto.ephemeral_keygen(rng)
    state.meeting_id = meeting_id
    state.ephemeral = ephemeral
    state.known_mk = None
    payload = PublishMeeting(
        meeting_id=meeting_id,
        info=info,
        rule=rule,
        leader_ivk=state.keypair.ivk,
        leader_epk=ephemeral.epk,
    )
    return signed_tx(payload, state.keypair)


def make_request(
    state: ParticipantState, meeting_ledger: Ledger, meeting_id: bytes, rng: Rng
) -> Transaction:
    view = build_view(meeting_ledger, meeting_id)
    if not view.exists:
        raise InvalidTransaction(Reason.MEETING_NOT_FOUND, meeting_id.hex())
    if view.dismissed:
        raise InvalidTransaction(Reason.MEETING_DISMISSED, meeting_id.hex())
    ephemeral = crypto.ephemeral_keygen(rng)
    state.meeting_id = meeting_id
    state.ephemeral = ephemeral
    payload = MeetingRequest(
        meeting_id=meeting_id,
        user=state.user,
        device=state.device,
        ivk=state.keypair.ivk,
        epk=ephemeral.epk,
    )
    return signed_tx(payload, state.keypair)


def _led_view(state: ParticipantState, meeting_ledger: Ledger) -> MeetingView:
    """The meeting's view, if the chain names this session its leader, still
    present: its ivk, and the ephemeral it announced at publish or adopted at
    handover."""
    view = build_view(meeting_ledger, state.meeting_id)
    ephemeral = state.ephemeral
    if (
        ephemeral is None
        or view.leader_ivk != state.keypair.ivk
        or view.leaders.get(view.leader_ivk) != ephemeral.epk
    ):
        raise InvalidTransaction(Reason.NOT_CURRENT_LEADER, f"{state.user} is not leading")
    return view


@dataclass(frozen=True)
class ReviewOutcome:
    user: str
    device: str
    verdict: Optional[Reason]  # None = verified
    granted: bool


def review_requests(
    state: ParticipantState, meeting_ledger: Ledger, policy: Policy = allow_all,
    since: int = 0,
) -> list[ReviewOutcome]:
    """The leader's report on the meeting's requests from `since` on (an
    index into `view.requests`), one outcome per request still present: its
    identity verdict, and whether it is granted: one of `view.members(policy)`,
    which a distribution built now keys. The report changes nothing."""
    view = _led_view(state, meeting_ledger)
    outcomes = []
    for record in view.requests[since:]:
        request = record.request
        present = view.present.get((request.user, request.device, request.ivk)) is record
        if not present or request.ivk in view.leaders:
            continue  # already left, or took over since
        reason, granted = _request_verdict(request, view.identity_ledger, policy)
        outcomes.append(ReviewOutcome(request.user, request.device, reason, granted))
    return outcomes


def distribute_key(
    state: ParticipantState, meeting_ledger: Ledger, rng: Rng, policy: Policy = allow_all
) -> tuple[Transaction, MeetingKey]:
    """Mint the key of the epoch the chain expects next, wrapped to each of
    `view.members(policy)`; the leader takes it up once the chain admits it.

    Epoch 0 rides on the ephemeral announced at publish (or handover); every
    later epoch gets a fresh ephemeral and, as the chain requires, a request
    (kept or not), leave or handover admitted since the last distribution.
    A recipient that took over holds the handover's ephemeral, so it is
    wrapped to under its epk in `view.leaders`, else under its request's.
    """
    view = _led_view(state, meeting_ledger)
    epoch = view.next_epoch
    ephemeral = state.ephemeral
    if epoch > 0:
        if not view.membership_changed:
            raise InvalidTransaction(
                Reason.RULE_VIOLATION, "rekey without a membership change"
            )
        if epoch > MAX_EPOCH:
            raise InvalidTransaction(Reason.BAD_EPOCH, "epoch space exhausted")
        ephemeral = crypto.ephemeral_keygen(rng)
    meeting_key = rng.take(crypto.KEY_LEN)
    entries = []
    for record in view.members(policy):
        member_epk = view.leaders.get(record.request.ivk, record.request.epk)
        shared = crypto.dh(ephemeral, member_epk)
        enc_key = crypto.derive_enc_key(
            shared, kdf_context(state.meeting_id, epoch, ephemeral.epk, member_epk)
        )
        box = crypto.aead_encrypt(
            enc_key,
            rng.take(crypto.NONCE_LEN),
            meeting_key,
            wrap_aad(state.meeting_id, epoch, record.request.ivk),
        )
        entries.append(KeyEntry(record.request.ivk, box))
    payload = KeyDistribution(
        meeting_id=state.meeting_id,
        epoch=epoch,
        leader_epk=ephemeral.epk,
        entries=tuple(entries),
    )
    return signed_tx(payload, state.keypair), MeetingKey(meeting_key, epoch)


def accept_key(state: ParticipantState, dist: KeyDistribution) -> MeetingKey:
    """Member side of key distribution.

    The unwrap key is derived from our own ephemeral agreement with the
    leader epk named in the distribution, bound to (meeting, epoch, us); any
    cross-meeting or cross-epoch splice therefore fails the tag check rather
    than yielding some other meeting's key.
    """
    entry = dist.entry_for(state.keypair.ivk)
    if entry is None or state.ephemeral is None:
        raise NoEntryForMe(f"{state.user} opens no entry of epoch {dist.epoch}")
    shared = crypto.dh(state.ephemeral, dist.leader_epk)
    enc_key = crypto.derive_enc_key(
        shared,
        kdf_context(
            state.meeting_id, dist.epoch, dist.leader_epk, state.ephemeral.epk
        ),
    )
    meeting_key = crypto.aead_decrypt(
        enc_key, entry.box, wrap_aad(state.meeting_id, dist.epoch, state.keypair.ivk)
    )
    if len(meeting_key) != crypto.KEY_LEN:
        raise AuthenticationFailure("meeting key has the wrong size")
    state.known_mk = MeetingKey(meeting_key, dist.epoch)
    return state.known_mk


def encrypt_media(state: ParticipantState, stream_id: int, payload: bytes) -> MediaPacket:
    if state.known_mk is None:
        raise NoMeetingKey(f"{state.user} holds no meeting key")
    epoch = state.known_mk.epoch
    counter = state.stream_counters.get((stream_id, epoch), 0)
    if counter >= U64_MAX:
        raise CounterExhausted(f"stream {stream_id} epoch {epoch}")
    _, aead_key = state.known_mk.stream(stream_id)
    box = crypto.aead_encrypt(
        aead_key,
        media_nonce(epoch, counter),
        payload,
        media_aad(state.meeting_id, stream_id),
    )
    state.stream_counters[(stream_id, epoch)] = counter + 1
    return MediaPacket(stream_id=stream_id, epoch=epoch, counter=counter, box=box)


def decrypt_media(state: ParticipantState, packet: MediaPacket) -> bytes:
    if state.known_mk is None:
        raise NoMeetingKey(f"{state.user} holds no meeting key")
    delivery = Delivery(state.meeting_id, packet)
    if not delivery.header_ok:
        raise AuthenticationFailure("nonce does not match the packet header")
    payload = delivery.open(state.known_mk)
    if payload is None:
        raise AuthenticationFailure("AEAD tag check failed")
    return payload


def make_leave(state: ParticipantState) -> Transaction:
    if state.ephemeral is None:
        raise InvalidTransaction(Reason.NOT_A_MEMBER, f"{state.user} is not in a meeting")
    payload = MeetingLeave(
        meeting_id=state.meeting_id,
        user=state.user,
        device=state.device,
        ivk=state.keypair.ivk,
    )
    return signed_tx(payload, state.keypair)


def purge_keys(state: ParticipantState) -> None:
    """Forget all meeting secrets; safe to call any number of times."""
    state.known_mk = None
    state.ephemeral = None
    state.stream_counters = {}


def build_reassign(
    view: MeetingView,
    prev_keypair: crypto.IdentityKeyPair,
    new_keypair: crypto.IdentityKeyPair,
    rng: Rng,
) -> tuple[Transaction, crypto.EphemeralKeyPair]:
    """Construct the leadership handover transaction, under the meeting's rule.

    Under designation the outgoing leader co-signs; under time order the
    successor submits alone and the chain checks they are the earliest
    remaining member. Returns the new leader's fresh ephemeral alongside:
    the successor leads once the chain admits the handover and its session
    holds that ephemeral. An epoch-0 distribution rides on it, while any
    later rekey mints its own replacement.
    """
    # `reassign_verdict` refuses either as a rule violation
    if view.leader_ivk != prev_keypair.ivk:
        detail = "handover must name the current leader"
        raise InvalidTransaction(Reason.RULE_VIOLATION, detail)
    if all(r.request.ivk != new_keypair.ivk for r in view.members()):
        detail = "successor must be a verified member"
        raise InvalidTransaction(Reason.RULE_VIOLATION, detail)
    ephemeral = crypto.ephemeral_keygen(rng)
    payload = LeaderReassign(
        meeting_id=view.meeting_id,
        prev_leader_ivk=prev_keypair.ivk,
        new_leader_ivk=new_keypair.ivk,
        new_leader_epk=ephemeral.epk,
        prev_leader_sig=None,
    )
    if view.rule is ReassignRule.DESIGNATION:
        payload = replace(
            payload,
            prev_leader_sig=crypto.sign(prev_keypair, payload.handover_bytes()),
        )
    return signed_tx(payload, new_keypair), ephemeral


def dismiss_meeting(state: ParticipantState, meeting_ledger: Ledger) -> Transaction:
    _led_view(state, meeting_ledger)
    payload = MeetingDismiss(meeting_id=state.meeting_id)
    return signed_tx(payload, state.keypair)
