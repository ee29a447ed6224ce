"""Lazy zero-copy frame envelopes — the wire fast path.

Every simulated NORNS request used to round-trip real serialized bytes:
client ``encode_frame`` -> urd ``decode_frame`` -> urd ``encode_frame``
-> client ``decode_frame``.  None of the simulation's *timing* depends
on the payload bytes (IPC and RPC latencies are per-message constants),
so at replay scale the codec work is pure wall-clock overhead.

This module introduces :class:`WireFrame`: an envelope that carries the
message object itself plus enough registry metadata to know its exact
on-wire size, materializing real bytes only when a consumer touches the
raw payload.  Two modes are selectable (``REPRO_WIRE_MODE`` env var or
:func:`set_wire_mode`):

* ``fast`` (default) — :func:`make_frame` returns a :class:`WireFrame`;
  :func:`open_frame` on it hands back the carried message with zero
  codec work.  ``len(frame)``/``materialize()`` lazily produce the
  exact length / the identical bytes on demand, memoized.
* ``bytes`` — the full-fidelity mode: :func:`make_frame` is
  :func:`~repro.wire.registry.encode_frame` and every hop moves real
  bytes, exactly like the seed implementation.

Parity between the modes — byte-identical frames, identical sizes and a
byte-identical replay golden file — is enforced by
``tests/test_wire_fastpath.py`` and the wire fuzz suite.
"""

from __future__ import annotations

import os
from typing import Union

from repro.errors import UnknownMessageError, WireError
from repro.wire.messages import Message
from repro.wire.registry import MessageRegistry, decode_frame, encode_frame
from repro.wire.varint import varint_size

__all__ = ["WIRE_MODE_FAST", "WIRE_MODE_BYTES", "WIRE_MODE_ENV",
           "wire_mode", "set_wire_mode", "WireFrame", "WirePayload",
           "make_frame", "open_frame", "frame_bytes", "frame_size"]

WIRE_MODE_FAST = "fast"
WIRE_MODE_BYTES = "bytes"
WIRE_MODE_ENV = "REPRO_WIRE_MODE"
_VALID_MODES = (WIRE_MODE_FAST, WIRE_MODE_BYTES)


def _validated(mode: str) -> str:
    if mode not in _VALID_MODES:
        raise WireError(f"unknown wire mode {mode!r}; "
                        f"expected one of {_VALID_MODES}")
    return mode


_mode = _validated(os.environ.get(WIRE_MODE_ENV, WIRE_MODE_FAST))


def wire_mode() -> str:
    """The active frame mode: ``"fast"`` or ``"bytes"``."""
    return _mode


def set_wire_mode(mode: str) -> str:
    """Select the frame mode; returns the previous one (for restores)."""
    global _mode
    previous = _mode
    _mode = _validated(mode)
    return previous


class WireFrame:
    """A not-yet-serialized frame: message object + exact byte length.

    Channels and Mercury treat payloads as opaque, so a frame can cross
    the simulated transport as-is; consumers that genuinely need raw
    bytes call :meth:`materialize` (memoized).  Construction runs the
    message's generated ``validate()`` — a message ``encode_frame``
    would reject raises the identical error here — and ``len(frame)``
    computes the exact materialized length on demand from the compiled
    ``encoded_size`` plan, without building any bytes.

    Zero-copy contract: the sender must not mutate a message after
    framing it.  The frame validates at construction and memoizes its
    size and bytes on first use, and the receiver gets the very same
    object — mutation after send would be visible on the far side
    (bytes mode would have snapshotted) and could make ``len(frame)``
    disagree with a later ``materialize()``.
    """

    __slots__ = ("registry", "message", "message_id", "_size", "_bytes")

    def __init__(self, registry: MessageRegistry, message: Message) -> None:
        self.registry = registry
        self.message = message
        self.message_id = registry.id_of(type(message))
        # Eager validation: a message encode_frame would reject raises
        # the identical WireEncodeError here, so the two modes fail the
        # sender identically.  Sizes stay lazy — validation needs no
        # string encoding, which is what makes the fast path fast.
        message.validate()
        self._size = -1
        self._bytes: bytes | None = None

    @property
    def payload_size(self) -> int:
        """Exact encoded size of the message payload (memoized)."""
        if self._size < 0:
            self._size = self.message.encoded_size()
        return self._size

    @property
    def frame_size(self) -> int:
        """Exact length of the full frame (id + length prefix + payload)."""
        p = self.payload_size
        return varint_size(self.message_id) + varint_size(p) + p

    def __len__(self) -> int:
        return self.frame_size

    def materialize(self) -> bytes:
        """The identical bytes ``encode_frame`` would produce (memoized)."""
        if self._bytes is None:
            self._bytes = encode_frame(self.registry, self.message)
        return self._bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WireFrame(id={self.message_id}, "
                f"{type(self.message).__name__})")


#: Annotation alias for values that cross a channel/RPC hop: real frame
#: bytes in the ``bytes`` mode, a lazy envelope in ``fast`` mode.
WirePayload = Union[bytes, "WireFrame"]


def make_frame(registry: MessageRegistry, message: Message) -> WirePayload:
    """Mode-aware frame builder: bytes in fidelity mode, lazy otherwise.

    Both modes validate the message fields here (bytes mode by
    encoding, fast mode through the class's generated ``validate()``,
    which needs no sizes and no string encoding), so invalid messages
    fail identically at the sender.
    The message must not be mutated after this call — see
    :class:`WireFrame`.
    """
    if _mode == WIRE_MODE_BYTES:
        return encode_frame(registry, message)
    return WireFrame(registry, message)


def open_frame(registry: MessageRegistry, frame) -> Message:
    """Mode-agnostic frame reader: returns the message.

    Accepts either real frame bytes (decoded through the registry) or a
    :class:`WireFrame` (zero-copy: the carried message is returned
    directly).  Callers that need streaming offsets over concatenated
    byte frames keep using :func:`~repro.wire.registry.decode_frame`.
    """
    if type(frame) is WireFrame:
        if frame.registry is not registry:
            raise UnknownMessageError(
                "frame was built against a different message registry")
        return frame.message
    message, _ = decode_frame(registry, frame)
    return message


def frame_bytes(frame: Union[bytes, WireFrame]) -> bytes:
    """Real bytes of a frame in either mode."""
    if type(frame) is WireFrame:
        return frame.materialize()
    return frame


def frame_size(frame: Union[bytes, WireFrame]) -> int:
    """Exact on-wire length of a frame in either mode."""
    return len(frame)
