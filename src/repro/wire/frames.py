"""Lazy zero-copy frame envelopes — the wire path.

Every simulated NORNS request used to round-trip real serialized bytes:
client ``encode_frame`` -> urd ``decode_frame`` -> urd ``encode_frame``
-> client ``decode_frame``.  None of the simulation's *timing* depends
on the payload bytes (IPC and RPC latencies are per-message constants),
so at replay scale the codec work is pure wall-clock overhead.

:func:`make_frame` therefore returns a :class:`WireFrame`: an envelope
that carries the message object itself plus enough registry metadata
to know its exact on-wire size, materializing real bytes only when a
consumer touches the raw payload.  :func:`open_frame` on it hands back
the carried message with zero codec work; ``len(frame)`` and
``materialize()`` lazily produce the exact length and the identical
bytes on demand, memoized.  :func:`open_frame` also decodes raw frame
bytes, so a hop may carry either.

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
from repro.wire.varint import varint_size

__all__ = ["WireFrame", "WirePayload", "make_frame", "open_frame"]


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
    (real bytes would have been a snapshot) and could make ``len(frame)``
    disagree with a later ``materialize()``.
    """

    __slots__ = ("registry", "message", "message_id", "_size", "_bytes")

    def __init__(self, registry: MessageRegistry, message: Message) -> None:
        self.registry = registry
        self.message = message
        self.message_id = registry.id_of(type(message))
        # Eager validation: a message encode_frame would reject raises
        # the identical WireEncodeError here.  Sizes stay lazy —
        # validation needs no string encoding, which is what keeps
        # framing cheap.
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


#: Annotation alias for values that cross a channel/RPC hop: a lazy
#: envelope, or real frame bytes (which :func:`open_frame` decodes).
WirePayload = Union[bytes, "WireFrame"]


def make_frame(registry: MessageRegistry, message: Message) -> WireFrame:
    """Frame ``message`` lazily (see :class:`WireFrame`).

    Validates the message fields here through the class's generated
    ``validate()``, which needs no sizes and no string encoding, so an
    invalid message fails at the sender exactly as ``encode_frame``
    would fail it.  The message must not be mutated after this call.
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
