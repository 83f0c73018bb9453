"""Canonical byte encoding.

Every structure that gets hashed or signed serializes the same way everywhere:
multi-byte integers are big-endian with a fixed width, variable-length fields
carry a 4-byte big-endian length prefix, and parsers are strict -- they consume
exactly the bytes the layout describes and reject anything left over, so a
byte string has at most one reading.

A wire struct is a dataclass derived from `Wire` whose on-wire fields are
declared with `wire(kind)`, in wire order. That field table is the layout,
in the manner of the TLS presentation language (RFC 8446 section 3); the
same table encodes and parses. The kinds:

    fixed(n)      exactly n bytes
    U8, U32, U64  unsigned big-endian integer of 1, 4 or 8 bytes
    LP            u32 length || bytes
    utf8(lo, hi)  LP holding lo..hi bytes of valid UTF-8, read as a str
    optional(k)   u8 flag (0: absent, None; 1: present) || k
    vector(S)     u32 count || that many S structs
    nested(S)     one S struct in place

Fields declared without `wire` (caches, a block's own hash) are not on the
wire.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, NamedTuple

from .errors import EncodingError

U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1


def u8(n: int) -> bytes:
    if not 0 <= n <= 0xFF:
        raise EncodingError(f"u8 out of range: {n}")
    return n.to_bytes(1, "big")


def u32(n: int) -> bytes:
    if not 0 <= n <= U32_MAX:
        raise EncodingError(f"u32 out of range: {n}")
    return n.to_bytes(4, "big")


def u64(n: int) -> bytes:
    if not 0 <= n <= U64_MAX:
        raise EncodingError(f"u64 out of range: {n}")
    return n.to_bytes(8, "big")


def lp(data: bytes) -> bytes:
    """Length-prefix a variable-size field."""
    if len(data) > U32_MAX:
        raise EncodingError("field too long")
    return u32(len(data)) + data


class Reader:
    """Strict cursor over a byte string.

    Raises EncodingError on any read past the end; finish() raises if bytes
    remain, which is what makes the encoding bijective.
    """

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise EncodingError("truncated input")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def lp(self) -> bytes:
        return self.take(self.u32())

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise EncodingError(f"{len(self._data) - self._pos} trailing bytes")


# ---------------------------------------------------------------------------
# field tables


class Kind(NamedTuple):
    """How one field reads from a Reader and writes to bytes."""

    read: Callable[[Reader], Any]
    write: Callable[[Any], bytes]


def fixed(n: int) -> Kind:
    def write(value: bytes) -> bytes:
        if len(value) != n:
            raise EncodingError(f"field must be {n} bytes, not {len(value)}")
        return value

    return Kind(lambda reader: reader.take(n), write)


def utf8(min_bytes: int, max_bytes: int) -> Kind:
    """Text whose UTF-8 encoding is min_bytes..max_bytes long; a length
    prefix out of bounds is refused before the text is read."""

    def check(n: int) -> int:
        if not min_bytes <= n <= max_bytes:
            raise EncodingError(
                f"text must be {min_bytes}..{max_bytes} utf-8 bytes, not {n}"
            )
        return n

    def read(reader: Reader) -> str:
        try:
            return reader.take(check(reader.u32())).decode("utf-8")
        except UnicodeDecodeError:
            raise EncodingError("text must be valid utf-8") from None

    def write(text: str) -> bytes:
        data = text.encode("utf-8")
        return u32(check(len(data))) + data

    return Kind(read, write)


U8 = Kind(Reader.u8, u8)
U32 = Kind(Reader.u32, u32)
U64 = Kind(Reader.u64, u64)
LP = Kind(Reader.lp, lp)


def optional(kind: Kind) -> Kind:
    def read(reader: Reader) -> Any:
        flag = reader.u8()
        if flag > 1:
            raise EncodingError(f"optional flag must be 0 or 1, not {flag}")
        return kind.read(reader) if flag else None

    def write(value: Any) -> bytes:
        return b"\x00" if value is None else b"\x01" + kind.write(value)

    return Kind(read, write)


def vector(struct: type[Wire]) -> Kind:
    def read(reader: Reader) -> tuple:
        return tuple(struct.read(reader) for _ in range(reader.u32()))

    def write(values: tuple) -> bytes:
        return u32(len(values)) + b"".join([value.encode() for value in values])

    return Kind(read, write)


def nested(struct: type[Wire]) -> Kind:
    return Kind(struct.read, struct.encode)


_KIND = "wire"


def wire(kind: Kind) -> Any:
    """Declare a dataclass field that is on the wire, as `kind`."""
    return dataclasses.field(metadata={_KIND: kind})


@functools.cache
def table(struct: type[Wire]) -> tuple[tuple[str, Kind], ...]:
    """(name, kind) of each wire field of `struct`, in wire order."""
    return tuple(
        (f.name, f.metadata[_KIND])
        for f in dataclasses.fields(struct)
        if _KIND in f.metadata
    )


def encode_fields(value: Wire, fields: tuple[tuple[str, Kind], ...]) -> bytes:
    return b"".join([write(getattr(value, name)) for name, (_, write) in fields])


class Wire:
    """Base of a wire struct: one encode and one strict parse, both read off
    the struct's field table."""

    __slots__ = ()

    @classmethod
    def read(cls, reader: Reader) -> Any:
        """One struct from the reader's position; the reader moves past it."""
        return cls(**{name: read(reader) for name, (read, _) in table(cls)})

    @classmethod
    def parse(cls, data: bytes) -> Any:
        """Exactly one struct: short or trailing bytes raise EncodingError."""
        reader = Reader(data)
        value = cls.read(reader)
        reader.finish()
        return value

    def encode(self) -> bytes:
        return encode_fields(self, table(type(self)))
