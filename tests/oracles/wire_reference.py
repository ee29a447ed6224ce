"""The interpretive message codec and the bytes frame path, retired from
``repro.wire``.

Test fixture only (oracles live under ``tests/``).

* :func:`encode_oracle` / :func:`decode_oracle` — a message-level
  walk of its own over the per-field
  :class:`~repro.wire.messages.FieldType` methods (field by field:
  validate, then tag and payload).  Submessages recurse through the
  oracle too, so a message-walk bug in a submessage-only type is never
  compared against itself.  ``tests/test_wire_fuzz.py`` holds
  ``Message.encode``/``decode`` byte-identical to it, and to its
  errors.
* :func:`bytes_frames` — every hop moves real bytes: inside the block,
  ``make_frame`` is :func:`~repro.wire.registry.encode_frame` in each
  module that frames messages, where
  :func:`~repro.wire.frames.make_frame` hands over a lazy
  :class:`~repro.wire.frames.WireFrame`.  ``open_frame`` already
  decodes raw bytes.  ``tests/test_oracle_goldens.py``,
  ``tests/test_wire_fastpath.py``, ``benchmarks/test_rpc_throughput.py``
  and ``benchmarks/test_obs_overhead.py`` compare the two paths.
"""

from __future__ import annotations

import contextlib
import importlib
from typing import Any, Iterator

from repro.errors import WireDecodeError
from repro.norns import urd
from repro.wire import encoding as enc
from repro.wire import norns_proto as proto
from repro.wire.frames import open_frame
from repro.wire.messages import FieldType, Message, _Submessage
from repro.wire.registry import encode_frame

__all__ = ["encode_oracle", "decode_oracle", "bytes_frames",
           "FRAME_BUILDERS"]

#: The modules of ``repro`` that import ``make_frame`` by name: the
#: ones :func:`bytes_frames` patches.
FRAME_BUILDERS = (
    "repro.norns.urd",
    "repro.norns.api.common",
    "repro.norns.plugins.remote",
    "repro.experiments.fig5_remote_requests",
)


def _encode_value(ftype: FieldType, value: Any) -> bytes:
    if isinstance(ftype, _Submessage):
        return enc.encode_len_prefixed(encode_oracle(value))
    return ftype.encode(value)


def _decode_value(ftype: FieldType, buf: bytes,
                  pos: int) -> tuple[Any, int]:
    if isinstance(ftype, _Submessage):
        raw, pos = enc.decode_len_prefixed(buf, pos)
        return decode_oracle(ftype.msg_cls, raw), pos
    return ftype.decode(buf, pos)


def encode_oracle(msg: Message) -> bytes:
    """Original per-field virtual-dispatch encoder."""
    out = bytearray()
    for f in msg.fields:
        value = getattr(msg, f.name)
        if value is None:
            continue
        if f.ftype.repeated:
            f.ftype.validate(value)
            for item in value:
                out += enc.encode_tag(f.number, f.ftype.wire_type)
                out += _encode_value(f.ftype.inner, item)
        else:
            f.ftype.validate(value)
            out += enc.encode_tag(f.number, f.ftype.wire_type)
            out += _encode_value(f.ftype, value)
    return bytes(out)


def decode_oracle(cls: type, buf: bytes) -> Message:
    """Original interpretive decoder."""
    by_number = {f.number: f for f in cls.fields}
    msg = cls()
    pos = 0
    n = len(buf)
    while pos < n:
        number, wire_type, pos = enc.decode_tag(buf, pos)
        field = by_number.get(number)
        if field is None:
            pos = enc.skip_field(buf, pos, wire_type)
            continue
        if wire_type != field.ftype.wire_type:
            raise WireDecodeError(
                f"{cls.__name__}.{field.name}: wire type {wire_type} "
                f"!= declared {field.ftype.wire_type}")
        inner = field.ftype.inner if field.ftype.repeated else field.ftype
        value, pos = _decode_value(inner, buf, pos)
        if field.ftype.repeated:
            getattr(msg, field.name).append(value)
        else:
            setattr(msg, field.name, value)
    return msg


@contextlib.contextmanager
def bytes_frames() -> Iterator[None]:
    """Run the block with real frame bytes on every hop.

    Patches ``make_frame`` in :data:`FRAME_BUILDERS` and urd's shared
    pong frame; restores both on exit.  Blocks nest.  Code that imported
    ``make_frame`` itself keeps the lazy frames.
    """
    modules = [importlib.import_module(name) for name in FRAME_BUILDERS]
    saved = [(m, m.make_frame) for m in modules]
    saved_pong = urd._PONG
    try:
        for m in modules:
            m.make_frame = encode_frame
        urd._PONG = encode_frame(proto.NORNS_PROTOCOL, open_frame(
            proto.NORNS_PROTOCOL, saved_pong))
        yield
    finally:
        for m, fn in saved:
            m.make_frame = fn
        urd._PONG = saved_pong
