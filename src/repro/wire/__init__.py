"""From-scratch Protocol-Buffers-style serialization.

The real NORNS serializes API↔daemon messages with Google Protocol
Buffers over AF_UNIX sockets (Section IV-B).  We reimplement the wire
format's core — LEB128 varints, zigzag, tag/wire-type framing, and
length-delimited submessages — plus a declarative message layer.  The
simulated control path validates every message as a sender would, but
moves it in a lazy frame (:mod:`repro.wire.frames`) that carries the
object itself: no hop's timing depends on the payload bytes, so none
are built unless a caller asks for them.
"""

from repro.wire.varint import (
    decode_varint, encode_varint, decode_zigzag, encode_zigzag,
)
from repro.wire.encoding import (
    WIRETYPE_VARINT, WIRETYPE_FIXED64, WIRETYPE_LEN, WIRETYPE_FIXED32,
    decode_tag, encode_tag,
)
from repro.wire.messages import (
    Message, Field, uint64, sint64, double, string, bytes_, submessage,
    repeated, enum, bool_,
)
from repro.wire.registry import MessageRegistry, encode_frame, decode_frame
from repro.wire.frames import WireFrame, WirePayload, make_frame, open_frame

__all__ = [
    "encode_varint", "decode_varint", "encode_zigzag", "decode_zigzag",
    "encode_tag", "decode_tag",
    "WIRETYPE_VARINT", "WIRETYPE_FIXED64", "WIRETYPE_LEN", "WIRETYPE_FIXED32",
    "Message", "Field", "uint64", "sint64", "double", "string", "bytes_",
    "submessage", "repeated", "enum", "bool_",
    "MessageRegistry", "encode_frame", "decode_frame",
    "WireFrame", "WirePayload", "make_frame", "open_frame",
]
