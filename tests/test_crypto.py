"""Crypto layer: published test vectors, oracle agreement, failure behavior."""

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from chainmeet import crypto
from chainmeet.errors import AuthenticationFailure, DegenerateSharedSecret
from chainmeet.rng import DeterministicRng, FixedRng

# RFC 8032 section 7.1: (secret, public, message, signature)
ED25519_VECTORS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
        "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
]

# RFC 7748 section 5.2: (scalar, u-coordinate, output)
X25519_LADDER_VECTORS = [
    (
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
    ),
    (
        "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
        "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
    ),
]

# RFC 7748 section 6.1 Diffie-Hellman
X25519_ALICE_SK = "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
X25519_ALICE_PK = "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
X25519_BOB_SK = "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
X25519_BOB_PK = "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
X25519_SHARED = "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"

# NIST GCM reference cases for AES-256: (key, iv, plaintext, aad, ciphertext, tag)
AES256GCM_VECTORS = [
    (
        "00" * 32,
        "00" * 12,
        "",
        "",
        "",
        "530f8afbc74536b9a963b4f1c4cb738b",
    ),
    (
        "00" * 32,
        "00" * 12,
        "00" * 16,
        "",
        "cea7403d4d606b6e074ec5d3baf39d18",
        "d0d1c8a799996bf0265b98b5d48ab919",
    ),
    (
        "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        "",
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
        "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
        "b094dac5d93471bdec1a502270e3cc6c",
    ),
    (
        "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
        "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
        "76fc6ece0f4e1768cddf8853bb2d551b",
    ),
]

# RFC 5869: (ikm, salt, info, length, okm)
HKDF_VECTORS = [
    (
        "0b" * 22,
        "000102030405060708090a0b0c",
        "f0f1f2f3f4f5f6f7f8f9",
        42,
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865",
    ),
    (
        bytes(range(0x00, 0x50)).hex(),
        bytes(range(0x60, 0xB0)).hex(),
        bytes(range(0xB0, 0x100)).hex(),
        82,
        "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
        "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
        "cc30c58179ec3e87c14c01d5c1f3434f1d87",
    ),
    (
        "0b" * 22,
        "",
        "",
        42,
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
        "9d201395faa4b61a96c8",
    ),
]

# RFC 4231: (key, data, mac)
HMAC_VECTORS = [
    ("0b" * 20, b"Hi There".hex(),
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe".hex(), b"what do ya want for nothing?".hex(),
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    ("aa" * 20, "dd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(0x01, 0x1A)).hex(), "cd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
]

SHA256_VECTORS = [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("abc".encode().hex(),
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
]


@pytest.mark.parametrize("secret,public,message,signature", ED25519_VECTORS)
def test_ed25519_known_answers(secret, public, message, signature):
    secret, public = bytes.fromhex(secret), bytes.fromhex(public)
    message, signature = bytes.fromhex(message), bytes.fromhex(signature)
    pair = crypto.identity_keygen(FixedRng(secret))
    assert pair.ivk == public
    assert crypto.sign(secret, message) == signature
    # a pair prepared at keygen and one built from raw bytes sign the same
    assert crypto.sign(pair, message) == signature
    from_bytes = crypto.IdentityKeyPair(ivk=public, isk=secret)
    for _ in range(2):
        assert crypto.sign(from_bytes, message) == signature
    assert crypto.verify(public, message, signature)
    # and the reference implementation lands on the same bytes
    assert oracles.ed25519_public(secret) == public
    assert oracles.ed25519_sign(secret, message) == signature


@pytest.mark.parametrize("scalar,u_coord,expected", X25519_LADDER_VECTORS)
def test_x25519_ladder_known_answers(scalar, u_coord, expected):
    scalar, u_coord = bytes.fromhex(scalar), bytes.fromhex(u_coord)
    assert crypto.dh(scalar, u_coord) == bytes.fromhex(expected)
    assert oracles.x25519(scalar, u_coord) == bytes.fromhex(expected)


def test_x25519_dh_known_answers():
    alice = crypto.ephemeral_keygen(FixedRng(bytes.fromhex(X25519_ALICE_SK)))
    bob = crypto.ephemeral_keygen(FixedRng(bytes.fromhex(X25519_BOB_SK)))
    assert alice.epk == bytes.fromhex(X25519_ALICE_PK)
    assert bob.epk == bytes.fromhex(X25519_BOB_PK)
    shared = bytes.fromhex(X25519_SHARED)
    assert crypto.dh(alice.esk, bob.epk) == shared
    assert crypto.dh(bob.esk, alice.epk) == shared
    # prepared at keygen, or built from raw bytes: the same secret
    assert crypto.dh(alice, bob.epk) == shared
    assert crypto.dh(bob, alice.epk) == shared
    from_bytes = crypto.EphemeralKeyPair(epk=alice.epk, esk=alice.esk)
    for _ in range(2):
        assert crypto.dh(from_bytes, bob.epk) == shared


@pytest.mark.parametrize("key,iv,plaintext,aad,ciphertext,tag", AES256GCM_VECTORS)
def test_aes256gcm_known_answers(key, iv, plaintext, aad, ciphertext, tag):
    key, iv = bytes.fromhex(key), bytes.fromhex(iv)
    plaintext, aad = bytes.fromhex(plaintext), bytes.fromhex(aad)
    box = crypto.aead_encrypt(key, iv, plaintext, aad)
    assert box.ciphertext == bytes.fromhex(ciphertext)
    assert box.tag == bytes.fromhex(tag)
    assert crypto.aead_decrypt(key, box, aad) == plaintext
    prepared = crypto.AeadKey(key)
    assert crypto.aead_encrypt(prepared, iv, plaintext, aad) == box
    assert crypto.aead_decrypt(prepared, box, aad) == plaintext
    assert oracles.aes256gcm_encrypt(key, iv, plaintext, aad) == (
        bytes.fromhex(ciphertext),
        bytes.fromhex(tag),
    )


@pytest.mark.parametrize("ikm,salt,info,length,okm", HKDF_VECTORS)
def test_hkdf_known_answers(ikm, salt, info, length, okm):
    args = bytes.fromhex(ikm), bytes.fromhex(salt), bytes.fromhex(info), length
    assert oracles.hkdf_sha256(*args) == bytes.fromhex(okm)


def test_derive_enc_key_is_hkdf_empty_salt():
    rng = DeterministicRng(11)
    for size in (0, 1, 16, 100):
        ikm, context = rng.take(32), rng.take(size)
        assert crypto.derive_enc_key(ikm, context) == oracles.hkdf_sha256(
            ikm, b"", context, 32
        )


@pytest.mark.parametrize("key,data,mac", HMAC_VECTORS)
def test_hmac_known_answers(key, data, mac):
    key, data = bytes.fromhex(key), bytes.fromhex(data)
    assert crypto.hmac_sha256(key, data) == bytes.fromhex(mac)
    assert oracles.hmac_sha256(key, data) == bytes.fromhex(mac)


@pytest.mark.parametrize("data,digest", SHA256_VECTORS)
def test_sha256_known_answers(data, digest):
    assert crypto.sha256(bytes.fromhex(data)) == bytes.fromhex(digest)


def test_keygen_is_deterministic_from_rng():
    a = crypto.identity_keygen(DeterministicRng(99))
    b = crypto.identity_keygen(DeterministicRng(99))
    assert a == b
    c = crypto.identity_keygen(DeterministicRng(100))
    assert c.ivk != a.ivk


# the seven small-order X25519 encodings libsodium's has_small_order lists:
# 0, 1, the two points of order 8, and p - 1, p, p + 1 (p = 2**255 - 19)
SMALL_ORDER = [
    bytes(32),
    bytes([1]) + bytes(31),
    bytes.fromhex("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
    bytes.fromhex("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
    bytes([0xEC]) + b"\xff" * 30 + b"\x7f",
    bytes([0xED]) + b"\xff" * 30 + b"\x7f",
    bytes([0xEE]) + b"\xff" * 30 + b"\x7f",
]
# each also with the top bit set, which X25519 ignores
SMALL_ORDER_KEYS = SMALL_ORDER + [key[:31] + bytes([key[31] | 0x80]) for key in SMALL_ORDER]


def test_dh_rejects_low_order_peer_keys():
    """X25519 itself gives the all-zero secret for every key of the table
    that the wire kind `crypto.EPK` refuses."""
    pair = crypto.ephemeral_keygen(DeterministicRng(5))
    from_bytes = crypto.EphemeralKeyPair(epk=pair.epk, esk=pair.esk)
    for bad in SMALL_ORDER_KEYS:
        for secret in (pair.esk, pair, from_bytes):
            with pytest.raises(DegenerateSharedSecret):
                crypto.dh(secret, bad)


def test_verify_rejects_garbage_without_raising():
    pair = crypto.identity_keygen(DeterministicRng(6))
    sig = crypto.sign(pair.isk, b"msg")
    assert not crypto.verify(pair.ivk, b"msg", b"")
    assert not crypto.verify(pair.ivk, b"msg", bytes(64))
    assert not crypto.verify(bytes(31), b"msg", sig)
    assert not crypto.verify(bytes(32), b"msg", sig)


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=200), st.integers(min_value=0, max_value=2**64 - 1))
def test_sign_verify_roundtrip_and_tamper(message, seed):
    pair = crypto.identity_keygen(DeterministicRng(seed))
    sig = crypto.sign(pair.isk, message)
    assert crypto.verify(pair.ivk, message, sig)
    assert not crypto.verify(pair.ivk, message + b"x", sig)
    flipped = bytes([sig[0] ^ 1]) + sig[1:]
    assert not crypto.verify(pair.ivk, message, flipped)
    # oracle agreement on arbitrary messages, not just the RFC ones
    assert sig == oracles.ed25519_sign(pair.isk, message)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_dh_is_symmetric(seed):
    rng = DeterministicRng(seed)
    a, b = crypto.ephemeral_keygen(rng), crypto.ephemeral_keygen(rng)
    shared = crypto.dh(a.esk, b.epk)
    assert shared == crypto.dh(b.esk, a.epk)
    assert shared == oracles.x25519(a.esk, b.epk)


@settings(max_examples=40, deadline=None)
@given(
    st.binary(max_size=120),
    st.binary(max_size=40),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_aead_roundtrip_and_single_byte_tamper(plaintext, aad, seed):
    rng = DeterministicRng(seed)
    key, nonce = rng.take(32), rng.take(12)
    box = crypto.aead_encrypt(key, nonce, plaintext, aad)
    assert crypto.aead_decrypt(key, box, aad) == plaintext
    assert (box.ciphertext, box.tag) == oracles.aes256gcm_encrypt(
        key, nonce, plaintext, aad
    )
    if box.ciphertext:
        pos = seed % len(box.ciphertext)
        mangled = crypto.AeadBox(
            nonce=box.nonce,
            ciphertext=box.ciphertext[:pos]
            + bytes([box.ciphertext[pos] ^ 0xFF])
            + box.ciphertext[pos + 1 :],
            tag=box.tag,
        )
        with pytest.raises(AuthenticationFailure):
            crypto.aead_decrypt(key, mangled, aad)
    bad_tag = crypto.AeadBox(box.nonce, box.ciphertext, bytes(16))
    with pytest.raises(AuthenticationFailure):
        crypto.aead_decrypt(key, bad_tag, aad)
    with pytest.raises(AuthenticationFailure):
        crypto.aead_decrypt(key, box, aad + b"!")


def test_context_separation_in_key_derivation():
    shared = DeterministicRng(8).take(32)
    keys = {crypto.derive_enc_key(shared, bytes([i])) for i in range(32)}
    assert len(keys) == 32


def test_deterministic_rng_replays_and_diverges():
    assert DeterministicRng(42).take(64) == DeterministicRng(42).take(64)
    assert DeterministicRng(42).take(64) != DeterministicRng(43).take(64)
    rng = DeterministicRng(0)
    chunks = rng.take(5), rng.take(11), rng.take(48)
    assert b"".join(chunks) == DeterministicRng(0).take(64)


def sha256_counter_stream(seed, nbytes):
    """The first nbytes of SHA-256(u64(seed) || u64(counter)) for counter 0, 1, ..."""
    return b"".join(
        hashlib.sha256(seed.to_bytes(8, "big") + ctr.to_bytes(8, "big")).digest()
        for ctr in range(-(-nbytes // 32))
    )[:nbytes]


# the ends of the u64 range, and a seed whose bytes differ, so byte order shows
@pytest.mark.parametrize("seed", [0, 0x0123456789ABCDEF, 2**64 - 1])
def test_deterministic_rng_is_the_sha256_counter_stream(seed):
    sizes = (0, 1, 31, 32, 33, 1200, 0, 5, 27, 64, 1, 95, 1200, 32, 7)
    expected = sha256_counter_stream(seed, sum(sizes))
    rng, pos = DeterministicRng(seed), 0
    for size in sizes:
        assert rng.take(size) == expected[pos : pos + size]
        pos += size


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    offset=st.integers(min_value=0, max_value=100),
    n=st.integers(min_value=0, max_value=65536),
    m=st.integers(min_value=0, max_value=100),
)
# around a block edge, a typical packet and the 64 KiB cap, from inside a
# block (offset 7) and from a block boundary (offset 0 or 64)
@example(seed=0, offset=7, n=0, m=32)
@example(seed=1, offset=7, n=1, m=32)
@example(seed=2, offset=7, n=31, m=32)
@example(seed=3, offset=0, n=32, m=32)
@example(seed=4, offset=64, n=33, m=32)
@example(seed=5, offset=7, n=1200, m=32)
@example(seed=2**64 - 1, offset=0, n=65536, m=32)
def test_skip_leaves_the_stream_where_take_would(seed, offset, n, m):
    rng = DeterministicRng(seed)
    rng.take(offset)
    rng.skip(n)
    expected = sha256_counter_stream(seed, offset + n + m)
    assert rng.take(m) == expected[offset + n :]
