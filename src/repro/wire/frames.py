"""Lazy zero-copy frame envelopes — the wire path.

Every simulated NORNS request used to round-trip real serialized bytes:
client ``encode_frame`` -> urd ``decode_frame`` -> urd ``encode_frame``
-> client ``decode_frame``.  None of the simulation's *timing* depends
on the payload bytes (IPC and RPC latencies are per-message constants),
so at replay scale the codec work is pure wall-clock overhead.

:func:`make_frame` therefore returns a :class:`WireFrame`: an envelope
that validates the message and carries the object itself.
:func:`open_frame` on it hands back the carried message with zero codec
work; no simulated hop serializes anything.  ``materialize()`` and
``len(frame)`` build the identical bytes ``encode_frame`` would, on
demand, memoized.  :func:`open_frame` also decodes raw frame bytes, so
a hop may carry either.

This is the only frame path.  The full-bytes path it replaced — every
hop moving ``encode_frame`` output — is kept as a test oracle,
``bytes_frames()`` in ``tests/oracles/wire_reference.py``;
``tests/test_wire_fastpath.py`` and ``tests/test_oracle_goldens.py``
hold the two paths to byte-identical frames, identical sizes and
byte-identical golden replays.
"""

from __future__ import annotations

from typing import Union

from repro.errors import UnknownMessageError
from repro.wire.messages import Message
from repro.wire.registry import MessageRegistry, decode_frame, encode_frame

__all__ = ["WireFrame", "WirePayload", "make_frame", "open_frame"]


class WireFrame:
    """A not-yet-serialized frame: the message object and its type id.

    Channels and Mercury treat payloads as opaque, so a frame can cross
    the simulated transport as-is; consumers that genuinely need raw
    bytes call :meth:`materialize` (memoized).  Construction runs the
    message's generated ``validate()``, so a message ``encode_frame``
    would reject raises the identical error here.

    Zero-copy contract: the sender must not mutate a message after
    framing it.  The frame validates at construction and memoizes its
    bytes on first use, and the receiver gets the very same object —
    mutation after send would be visible on the far side (real bytes
    would have been a snapshot).
    """

    __slots__ = ("registry", "message", "message_id", "_bytes")

    def __init__(self, registry: MessageRegistry, message: Message) -> None:
        self.registry = registry
        self.message = message
        self.message_id = registry.id_of(type(message))
        # Eager validation: a message encode_frame would reject raises
        # the identical WireEncodeError here, at the sender.
        message.validate()
        self._bytes: bytes | None = None

    # The three size accessors have no product caller; they are kept for
    # tests/test_wire_fuzz.py and tests/test_wire_fastpath.py.
    @property
    def payload_size(self) -> int:
        """Exact encoded size of the message payload."""
        return self.message.encoded_size()

    @property
    def frame_size(self) -> int:
        """Exact length of the full frame (id + length prefix + payload)."""
        return len(self.materialize())

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


#: Annotation alias for values that cross a channel/RPC hop: a lazy
#: envelope, or real frame bytes (which :func:`open_frame` decodes).
WirePayload = Union[bytes, "WireFrame"]


def make_frame(registry: MessageRegistry, message: Message) -> WireFrame:
    """Frame ``message`` lazily (see :class:`WireFrame`).

    Validates the message fields here through the class's generated
    ``validate()``, which builds no bytes, so an invalid message fails
    at the sender exactly as ``encode_frame`` would fail it.  The
    message must not be mutated after this call.
    """
    return WireFrame(registry, message)


def open_frame(registry: MessageRegistry, frame) -> Message:
    """Frame reader: returns the message.

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
