"""Randomness sources.

Everything that needs randomness -- key generation, meeting ids, nonces --
takes an explicit source so simulations replay byte-for-byte from a seed.
The deterministic source is a SHA-256 counter stream, which behaves the same
on every platform; it is for simulation only, not a place to mint real keys.
Its `skip(n)` steps over n bytes nobody reads, leaving the stream where
`take(n)` would, without hashing the blocks in between.
"""

from __future__ import annotations

import hashlib
import struct

BLOCK_LEN = 32  # one SHA-256 digest of keystream
_BLOCK_INPUT = struct.Struct(">QQ")  # u64(seed) || u64(block counter)


class Rng:
    """Interface: take(n) returns n fresh bytes."""

    def take(self, n: int) -> bytes:
        raise NotImplementedError


class DeterministicRng(Rng):
    """SHA-256(seed || block counter) keystream, replayable from a u64 seed."""

    def __init__(self, seed: int):
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in a u64")
        self.seed = seed
        self._counter = 0
        self._buf = b""

    def take(self, n: int) -> bytes:
        short = n - len(self._buf)
        if short > 0:
            first = self._counter
            self._counter += -(-short // BLOCK_LEN)
            seed, pack, sha256 = self.seed, _BLOCK_INPUT.pack, hashlib.sha256
            self._buf += b"".join([
                sha256(pack(seed, counter)).digest()
                for counter in range(first, self._counter)
            ])
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def skip(self, n: int) -> None:
        """Leave the stream exactly where take(n) would, hashing at most the
        last block it steps into, so a draw whose bytes go unread costs no
        keystream."""
        short = n - len(self._buf)
        if short <= 0:
            self._buf = self._buf[n:]
            return
        self._counter += -(-short // BLOCK_LEN)
        left = -short % BLOCK_LEN  # bytes of the last block that take(n) keeps
        self._buf = b""
        if left:
            last = _BLOCK_INPUT.pack(self.seed, self._counter - 1)
            self._buf = hashlib.sha256(last).digest()[-left:]


class FixedRng(Rng):
    """Plays back a scripted byte string; for tests that force collisions."""

    def __init__(self, script: bytes):
        self._script = script
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._script):
            raise ValueError("scripted randomness exhausted")
        out = self._script[self._pos : self._pos + n]
        self._pos += n
        return out
