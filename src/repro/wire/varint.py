"""LEB128 varints and zigzag encoding, as used by Protocol Buffers.

Unsigned integers are encoded little-endian, 7 bits per byte, with the
high bit as a continuation flag.  Signed integers go through zigzag
mapping first so small negatives stay small on the wire.
"""

from __future__ import annotations

from repro.errors import WireDecodeError, WireEncodeError

__all__ = ["encode_varint", "decode_varint", "encode_zigzag", "decode_zigzag"]

#: Protobuf varints carry at most 64 significant bits -> 10 bytes.
_MAX_VARINT_BYTES = 10
_U64_MASK = (1 << 64) - 1


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer < 2**64 as a LEB128 varint."""
    if value < 0:
        raise WireEncodeError(f"varint cannot encode negative {value}")
    if value > _U64_MASK:
        raise WireEncodeError(f"varint overflow: {value} >= 2**64")
    out = bytearray()
    while True:
        bits = value & 0x7F
        value >>= 7
        if value:
            out.append(bits | 0x80)
        else:
            out.append(bits)
            return bytes(out)


def decode_varint(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``buf[offset:]``; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    pos = offset
    for _ in range(_MAX_VARINT_BYTES):
        if pos >= len(buf):
            raise WireDecodeError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if result > _U64_MASK:
                raise WireDecodeError("varint exceeds 64 bits")
            return result, pos
        shift += 7
    raise WireDecodeError("varint longer than 10 bytes")


def encode_zigzag(value: int) -> bytes:
    """Encode a signed integer via zigzag then varint."""
    if not -(1 << 63) <= value < (1 << 63):
        raise WireEncodeError(f"sint64 out of range: {value}")
    zz = (value << 1) ^ (value >> 63)
    return encode_varint(zz & _U64_MASK)


def decode_zigzag(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a zigzag varint; returns ``(signed_value, next_offset)``."""
    zz, pos = decode_varint(buf, offset)
    return (zz >> 1) ^ -(zz & 1), pos
