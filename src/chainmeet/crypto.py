"""Primitive crypto operations used by the rest of the package.

Thin, opinionated wrappers over the `cryptography` package: Ed25519 for
identity signatures, X25519 for the ephemeral key agreement, HKDF-SHA256 to
turn a raw shared secret into an AEAD key, AES-256-GCM for everything
encrypted, HMAC-SHA256 for keyed derivation and commitments. Public keys
and derived secrets cross these functions as raw 32-byte strings. Each
private key has one form: `IdentityKeyPair` and `EphemeralKeyPair` build
their Ed25519 and X25519 private-key objects once, from the raw secret,
and `AeadKey` holds an AES-GCM key. `sign` and `dh` take a pair, and the
AEAD functions take an `AeadKey`. No prepared key is kept anywhere but on
its owner, so it goes when the owner goes. `AeadKey.open` is the one
AES-GCM open, None on a failed tag: `aead_decrypt` raises on that None,
and a media delivery (`meeting.Delivery`) lays out ciphertext || tag once
and opens it once per reader, straight through the stream's `AeadKey`.
"""

from __future__ import annotations

import hashlib
import hmac as _stdlib_hmac
from dataclasses import dataclass, field
from typing import Optional

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
    """Long-lived Ed25519 pair made from its secret isk; ivk is public, isk
    stays on the device.

    The private-key object and ivk are built once, from isk; the object
    takes no part in equality, hashing or repr, and neither does isk's repr.
    """

    isk: bytes = field(repr=False)
    ivk: bytes = field(init=False)
    _private: Ed25519PrivateKey = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        private = Ed25519PrivateKey.from_private_bytes(self.isk)
        object.__setattr__(self, "_private", private)
        object.__setattr__(self, "ivk", private.public_key().public_bytes_raw())


@dataclass(frozen=True)
class EphemeralKeyPair:
    """Per-meeting X25519 pair made from its secret esk, discarded when the
    meeting ends; built once like `IdentityKeyPair`, with esk out of repr.
    """

    esk: bytes = field(repr=False)
    epk: bytes = field(init=False)
    _private: X25519PrivateKey = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        private = X25519PrivateKey.from_private_bytes(self.esk)
        object.__setattr__(self, "_private", private)
        object.__setattr__(self, "epk", private.public_key().public_bytes_raw())


@dataclass(frozen=True)
class AeadBox(Wire):
    """One AES-256-GCM sealing: nonce, ciphertext, 16-byte tag."""

    nonce: bytes = wire(fixed(NONCE_LEN))
    ciphertext: bytes = wire(LP)
    tag: bytes = wire(fixed(TAG_LEN))


class AeadKey:
    """An AES-256-GCM key set up once, for every seal and open under it.

    It holds key material: keep it only as long as the raw key.
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


def identity_keygen(rng: Rng) -> IdentityKeyPair:
    return IdentityKeyPair(rng.take(KEY_LEN))


def ephemeral_keygen(rng: Rng) -> EphemeralKeyPair:
    return EphemeralKeyPair(rng.take(KEY_LEN))


def sign(pair: IdentityKeyPair, message: bytes) -> bytes:
    return pair._private.sign(message)


def verify(ivk: bytes, message: bytes, signature: bytes) -> bool:
    """True only for a valid signature; malformed inputs are just False."""
    try:
        Ed25519PublicKey.from_public_bytes(ivk).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def dh(pair: EphemeralKeyPair, epk: bytes) -> bytes:
    """X25519 shared secret.

    A low-order peer key drives the output to all zeros; that secret is
    worthless and unsafe to derive from, so it is refused outright.
    """
    try:
        shared = pair._private.exchange(X25519PublicKey.from_public_bytes(epk))
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


def aead_encrypt(key: AeadKey, nonce: bytes, plaintext: bytes, aad: bytes) -> AeadBox:
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    sealed = key._cipher.encrypt(nonce, plaintext, aad)
    return AeadBox(nonce=nonce, ciphertext=sealed[:-TAG_LEN], tag=sealed[-TAG_LEN:])


def aead_decrypt(key: AeadKey, box: AeadBox, aad: bytes) -> bytes:
    plaintext = key.open(box.nonce, box.ciphertext + box.tag, aad)
    if plaintext is None:
        raise AuthenticationFailure("AEAD tag check failed")
    return plaintext


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    mac = _hmac.HMAC(key, hashes.SHA256())
    mac.update(data)
    return mac.finalize()


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    return _stdlib_hmac.compare_digest(a, b)
