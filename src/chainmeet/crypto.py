"""Primitive crypto operations used by the rest of the package.

Thin, opinionated wrappers over the `cryptography` package: Ed25519 for
identity signatures, X25519 for the ephemeral key agreement, HKDF-SHA256 to
turn a raw shared secret into an AEAD key, AES-256-GCM for everything
encrypted, HMAC-SHA256 for keyed derivation and commitments. Public keys
and derived secrets cross these functions as raw 32-byte strings. A key that
is used many times is prepared once and kept by its owner: `IdentityKeyPair`
and `EphemeralKeyPair` hold their Ed25519 and X25519 private-key objects, and
`AeadKey` holds an AES-GCM key for a caller that seals or opens many times
under it. `sign`, `dh` and the AEAD functions take either the prepared form
or raw bytes. No prepared key is kept anywhere but on its owner, so it goes
when the owner goes. `AeadKey.open` is the one AES-GCM open, None on a
failed tag: `aead_open` calls it for a raw-byte key, `aead_decrypt` raises on
that None, and a media delivery (`meeting.Delivery`) lays out ciphertext ||
tag once and opens it once per reader, straight through the stream's
`AeadKey`.
"""

from __future__ import annotations

import hmac as _stdlib_hmac
from dataclasses import dataclass, field
from typing import Optional, Union

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes, hmac as _hmac
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .encoding import LP, Kind, Wire, fixed, wire
from .errors import AuthenticationFailure, DegenerateSharedSecret, EncodingError
from .rng import Rng

KEY_LEN = 32
NONCE_LEN = 12
TAG_LEN = 16
SIG_LEN = 64


@dataclass(frozen=True)
class IdentityKeyPair:
    """Long-lived Ed25519 pair; ivk is public, isk stays on the device.

    The prepared private key is built once, at keygen or on first use, and
    takes no part in equality, hashing or repr; neither does isk's repr.
    """

    ivk: bytes
    isk: bytes = field(repr=False)
    _private: Optional[Ed25519PrivateKey] = field(
        default=None, init=False, compare=False, repr=False
    )


@dataclass(frozen=True)
class EphemeralKeyPair:
    """Per-meeting X25519 pair, discarded when the meeting ends.

    Like `IdentityKeyPair`, it keeps its prepared private key out of
    equality, hashing and repr, and esk out of repr.
    """

    epk: bytes
    esk: bytes = field(repr=False)
    _private: Optional[X25519PrivateKey] = field(
        default=None, init=False, compare=False, repr=False
    )


@dataclass(frozen=True)
class AeadBox(Wire):
    """One AES-256-GCM sealing: nonce, ciphertext, 16-byte tag."""

    nonce: bytes = wire(fixed(NONCE_LEN))
    ciphertext: bytes = wire(LP)
    tag: bytes = wire(fixed(TAG_LEN))


class AeadKey:
    """An AES-256-GCM key set up once, for many seals and opens under it.

    `aead_encrypt` and `aead_decrypt` take one wherever they take raw key
    bytes. It holds key material: keep it only as long as the raw key.
    """

    __slots__ = ("_cipher",)

    def __init__(self, key: bytes):
        self._cipher = AESGCM(key)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes) -> Optional[bytes]:
        """The plaintext of sealed (ciphertext || tag), or None on a failed tag."""
        try:
            return self._cipher.decrypt(nonce, sealed, aad)
        except InvalidTag:
            return None


def _aead_key(key: Union[bytes, AeadKey]) -> AeadKey:
    return key if isinstance(key, AeadKey) else AeadKey(key)


def _signing_key(isk: Union[bytes, IdentityKeyPair]) -> Ed25519PrivateKey:
    if not isinstance(isk, IdentityKeyPair):
        return Ed25519PrivateKey.from_private_bytes(isk)
    if isk._private is None:  # built from raw bytes: prepare on first use
        object.__setattr__(isk, "_private", Ed25519PrivateKey.from_private_bytes(isk.isk))
    return isk._private


def _exchange_key(esk: Union[bytes, EphemeralKeyPair]) -> X25519PrivateKey:
    if not isinstance(esk, EphemeralKeyPair):
        return X25519PrivateKey.from_private_bytes(esk)
    if esk._private is None:
        object.__setattr__(esk, "_private", X25519PrivateKey.from_private_bytes(esk.esk))
    return esk._private


def identity_keygen(rng: Rng) -> IdentityKeyPair:
    seed = rng.take(KEY_LEN)
    priv = Ed25519PrivateKey.from_private_bytes(seed)
    pair = IdentityKeyPair(ivk=priv.public_key().public_bytes_raw(), isk=seed)
    object.__setattr__(pair, "_private", priv)
    return pair


def ephemeral_keygen(rng: Rng) -> EphemeralKeyPair:
    seed = rng.take(KEY_LEN)
    priv = X25519PrivateKey.from_private_bytes(seed)
    pair = EphemeralKeyPair(epk=priv.public_key().public_bytes_raw(), esk=seed)
    object.__setattr__(pair, "_private", priv)
    return pair


def sign(isk: Union[bytes, IdentityKeyPair], message: bytes) -> bytes:
    return _signing_key(isk).sign(message)


def verify(ivk: bytes, message: bytes, signature: bytes) -> bool:
    """True only for a valid signature; malformed inputs are just False."""
    try:
        Ed25519PublicKey.from_public_bytes(ivk).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def dh(esk: Union[bytes, EphemeralKeyPair], epk: bytes) -> bytes:
    """X25519 shared secret.

    A low-order peer key drives the output to all zeros; that secret is
    worthless and unsafe to derive from, so it is refused outright.
    """
    try:
        shared = _exchange_key(esk).exchange(
            X25519PublicKey.from_public_bytes(epk)
        )
    except ValueError as exc:
        # the backend refuses the all-zero result itself
        raise DegenerateSharedSecret(str(exc)) from None
    if shared == bytes(KEY_LEN):
        raise DegenerateSharedSecret("all-zero shared secret")
    return shared


# X25519 reads a key as u mod p, with its top bit cleared. These are the u of
# its points of small order: 0, 1, p - 1 and the two of order 8, whose seven
# encodings libsodium's has_small_order lists. With any of them the shared
# secret is all zeros, which RFC 7748 section 6.1 says to refuse
P25519 = 2**255 - 19
SMALL_ORDER_U = frozenset((
    0, 1, P25519 - 1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
))


def _full_order(epk: bytes) -> bytes:
    if int.from_bytes(epk, "little") % 2**255 % P25519 in SMALL_ORDER_U:
        raise EncodingError("epk has small order")
    return epk


# an ephemeral public key on the wire: 32 bytes, never of small order
EPK = Kind(
    lambda reader: _full_order(reader.take(KEY_LEN)),
    lambda epk: _full_order(fixed(KEY_LEN).write(epk)),
)


def derive_enc_key(shared_secret: bytes, context: bytes) -> bytes:
    """HKDF-SHA256 with empty salt; context goes in as the info string."""
    return HKDF(
        algorithm=hashes.SHA256(), length=KEY_LEN, salt=None, info=context
    ).derive(shared_secret)


def aead_encrypt(
    key: Union[bytes, AeadKey], nonce: bytes, plaintext: bytes, aad: bytes
) -> AeadBox:
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    sealed = _aead_key(key)._cipher.encrypt(nonce, plaintext, aad)
    return AeadBox(nonce=nonce, ciphertext=sealed[:-TAG_LEN], tag=sealed[-TAG_LEN:])


def aead_open(
    key: Union[bytes, AeadKey], nonce: bytes, sealed: bytes, aad: bytes
) -> Optional[bytes]:
    """`AeadKey.open` under a key that may still be raw bytes."""
    return _aead_key(key).open(nonce, sealed, aad)


def aead_decrypt(key: Union[bytes, AeadKey], box: AeadBox, aad: bytes) -> bytes:
    plaintext = aead_open(key, box.nonce, box.ciphertext + box.tag, aad)
    if plaintext is None:
        raise AuthenticationFailure("AEAD tag check failed")
    return plaintext


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    mac = _hmac.HMAC(key, hashes.SHA256())
    mac.update(data)
    return mac.finalize()


def sha256(data: bytes) -> bytes:
    digest = hashes.Hash(hashes.SHA256())
    digest.update(data)
    return digest.finalize()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    return _stdlib_hmac.compare_digest(a, b)
