"""Exception types and rejection reason codes shared across the package."""

from __future__ import annotations

import enum
from typing import Optional


class ChainmeetError(Exception):
    """Base class for every error this package raises on purpose."""


class EncodingError(ChainmeetError):
    """Bytes do not parse as the canonical serialization they claim to be."""


class DegenerateSharedSecret(ChainmeetError):
    """X25519 produced the all-zero shared secret (low-order peer key)."""


class AuthenticationFailure(ChainmeetError):
    """AEAD tag check failed: wrong key, wrong associated data, or tampering."""


class InvalidTransaction(ChainmeetError):
    """A transaction is refused, with the chain's reason for it.

    Carries the machine-readable reason code so callers and transcripts can
    distinguish e.g. a bad signature from a duplicate binding. A ledger
    that refuses it on append sets `at`, the (block index, position in the
    block) of the refused transaction. A library step that will not build a
    transaction the chain would refuse raises it with the same reason and
    `at` left None.
    """

    def __init__(
        self, reason: "Reason", detail: str = "", at: Optional[tuple[int, int]] = None
    ):
        self.reason = reason
        self.detail = detail
        self.at = at
        super().__init__(f"{reason.value}" + (f": {detail}" if detail else ""))


class NonMonotonicTimestamp(ChainmeetError):
    """New block's timestamp is older than the chain head's."""


class NoEntryForMe(ChainmeetError):
    """A key distribution holds no entry for this participant's key, or the
    session holds no ephemeral to open one with."""


class NoMeetingKey(ChainmeetError):
    """Media operation attempted without a meeting key in hand."""


class CounterExhausted(ChainmeetError):
    """Per-stream packet counter ran out; the nonce space must never wrap."""


class MalformedScenario(ChainmeetError):
    """Scenario text failed to parse."""


class Reason(str, enum.Enum):
    """Machine-readable verdict codes used in rejections and transcripts."""

    BAD_SIGNATURE = "bad_signature"
    DUPLICATE_BINDING = "duplicate_binding"
    UNKNOWN_IDENTITY = "unknown_identity"
    KEY_MISMATCH = "key_mismatch"
    RULE_VIOLATION = "rule_violation"
    MEETING_NOT_FOUND = "meeting_not_found"
    MEETING_DISMISSED = "meeting_dismissed"
    DUPLICATE_MEETING = "duplicate_meeting"
    DUPLICATE_REQUEST = "duplicate_request"
    REPLAYED_REQUEST = "replayed_request"
    NOT_CURRENT_LEADER = "not_current_leader"
    NOT_A_MEMBER = "not_a_member"
    BAD_EPOCH = "bad_epoch"
    WRONG_LEDGER_KIND = "wrong_ledger_kind"
    MALFORMED_BODY = "malformed_body"

    def __str__(self) -> str:  # transcripts want the bare code
        return self.value
