"""Declarative message layer over the raw wire encoding.

A message class declares ordered fields with protobuf-like types::

    class SubmitRequest(Message):
        fields = (
            Field(1, "task_type", enum()),
            Field(2, "input", submessage(ResourceDesc)),
            Field(3, "output", submessage(ResourceDesc)),
            Field(4, "priority", sint64(), default=0),
        )

Instances carry plain attributes; ``encode()`` produces protobuf-
compatible bytes for the declared scalar types, and ``decode()`` round-
trips them, skipping unknown fields.

Each field type (:class:`FieldType`) encodes, decodes and validates one
value, and its ``validate`` is the one sender-side check: a value it
accepts encodes without error.  ``encode()`` and ``decode()`` walk the
declared fields through those methods.  Messages cross the simulated
transport as lazy frames (:mod:`repro.wire.frames`) that carry the
object itself, so the codec runs only where bytes are asked for.

What every request does run is ``__init__`` and ``validate()``.  Both
are generated per class as straight-line source over the declared
fields, with an inline exact-type test per scalar field that sends only
the values it cannot vouch for to the field type's ``validate``, and
message instances are ``__slots__``-only (no per-instance ``__dict__``).

``tests/oracles/wire_reference.py`` keeps an independent message-level
walk; ``tests/test_wire_fuzz.py`` holds this codec byte-identical to it
on arbitrary and malformed messages.
"""

from __future__ import annotations

import linecache
from typing import Any, Optional

from repro.errors import WireDecodeError, WireEncodeError
from repro.wire import encoding as enc
from repro.wire.varint import (
    decode_varint, decode_zigzag, encode_varint, encode_zigzag,
)

__all__ = [
    "Field", "Message",
    "uint64", "sint64", "bool_", "enum", "double", "string", "bytes_",
    "submessage", "repeated",
]

_U64_MASK = (1 << 64) - 1


class FieldType:
    """Encode/decode strategy for a single field value.

    ``validate`` raises exactly the error an encode of the value would,
    and ``encode`` takes only values it accepted.
    """

    wire_type: int = enc.WIRETYPE_VARINT
    repeated = False

    def encode(self, value: Any) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def decode(self, buf: bytes, offset: int) -> tuple[Any, int]:  # pragma: no cover
        raise NotImplementedError

    def validate(self, value: Any) -> None:
        pass

    def zero(self) -> Any:
        return None


class _Uint64(FieldType):
    wire_type = enc.WIRETYPE_VARINT

    def encode(self, value: Any) -> bytes:
        return encode_varint(int(value))

    def decode(self, buf: bytes, offset: int) -> tuple[int, int]:
        return decode_varint(buf, offset)

    def validate(self, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise WireEncodeError(f"uint64 field needs a non-negative int, got {value!r}")
        if value > _U64_MASK:
            raise WireEncodeError(f"varint overflow: {value} >= 2**64")

    def zero(self) -> int:
        return 0


class _Sint64(FieldType):
    wire_type = enc.WIRETYPE_VARINT

    def encode(self, value: Any) -> bytes:
        return encode_zigzag(int(value))

    def decode(self, buf: bytes, offset: int) -> tuple[int, int]:
        return decode_zigzag(buf, offset)

    def validate(self, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise WireEncodeError(f"sint64 field needs an int, got {value!r}")
        if not -(1 << 63) <= value < (1 << 63):
            raise WireEncodeError(f"sint64 out of range: {value}")

    def zero(self) -> int:
        return 0


class _Bool(FieldType):
    wire_type = enc.WIRETYPE_VARINT

    def encode(self, value: Any) -> bytes:
        return encode_varint(1 if value else 0)

    def decode(self, buf: bytes, offset: int) -> tuple[bool, int]:
        v, pos = decode_varint(buf, offset)
        return bool(v), pos

    def validate(self, value: Any) -> None:
        if not isinstance(value, bool):
            raise WireEncodeError(f"bool field needs a bool, got {value!r}")

    def zero(self) -> bool:
        return False


class _Enum(FieldType):
    """Varint-encoded enum; optionally restricted to known values."""

    wire_type = enc.WIRETYPE_VARINT

    def __init__(self, allowed: Optional[frozenset[int]] = None) -> None:
        self.allowed = allowed

    def encode(self, value: Any) -> bytes:
        return encode_varint(int(value))

    def decode(self, buf: bytes, offset: int) -> tuple[int, int]:
        v, pos = decode_varint(buf, offset)
        if self.allowed is not None and v not in self.allowed:
            raise WireDecodeError(f"enum value {v} not in {sorted(self.allowed)}")
        return v, pos

    def validate(self, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise WireEncodeError(f"enum field needs a non-negative int, got {value!r}")
        if self.allowed is not None and value not in self.allowed:
            raise WireEncodeError(f"enum value {value} not in {sorted(self.allowed)}")
        if value > _U64_MASK:
            raise WireEncodeError(f"varint overflow: {value} >= 2**64")

    def zero(self) -> Optional[int]:
        # A restricted enum has no valid zero value: unset means absent
        # (like proto3's requirement that 0 be a defined variant).
        return None if self.allowed is not None else 0


class _Double(FieldType):
    wire_type = enc.WIRETYPE_FIXED64

    def encode(self, value: Any) -> bytes:
        return enc.encode_double(float(value))

    def decode(self, buf: bytes, offset: int) -> tuple[float, int]:
        return enc.decode_double(buf, offset)

    def validate(self, value: Any) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise WireEncodeError(f"double field needs a number, got {value!r}")
        if not isinstance(value, float):
            try:    # an int can exceed the double range: fail typed, here
                float(value)
            except OverflowError:
                raise WireEncodeError(f"double field int too large for a float"
                                      f" ({value.bit_length()} bits)") from None

    def zero(self) -> float:
        return 0.0


class _String(FieldType):
    wire_type = enc.WIRETYPE_LEN

    def encode(self, value: Any) -> bytes:
        return enc.encode_len_prefixed(value.encode("utf-8"))

    def decode(self, buf: bytes, offset: int) -> tuple[str, int]:
        raw, pos = enc.decode_len_prefixed(buf, offset)
        try:
            return raw.decode("utf-8"), pos
        except UnicodeDecodeError as e:
            raise WireDecodeError(f"invalid UTF-8 in string field: {e}") from e

    def validate(self, value: Any) -> None:
        if not isinstance(value, str):
            raise WireEncodeError(f"string field needs str, got {value!r}")
        if not value.isascii():
            value.encode("utf-8")   # a lone surrogate raises, as encode would

    def zero(self) -> str:
        return ""


class _Bytes(FieldType):
    wire_type = enc.WIRETYPE_LEN

    def encode(self, value: Any) -> bytes:
        return enc.encode_len_prefixed(bytes(value))

    def decode(self, buf: bytes, offset: int) -> tuple[bytes, int]:
        return enc.decode_len_prefixed(buf, offset)

    def validate(self, value: Any) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise WireEncodeError(f"bytes field needs bytes, got {value!r}")

    def zero(self) -> bytes:
        return b""


class _Submessage(FieldType):
    wire_type = enc.WIRETYPE_LEN

    def __init__(self, msg_cls: type["Message"]) -> None:
        self.msg_cls = msg_cls

    def encode(self, value: Any) -> bytes:
        # validate() of the enclosing message has already checked value
        return enc.encode_len_prefixed(value._encode_fields())

    def decode(self, buf: bytes, offset: int) -> tuple["Message", int]:
        raw, pos = enc.decode_len_prefixed(buf, offset)
        return self.msg_cls.decode(raw), pos

    def validate(self, value: Any) -> None:
        if not isinstance(value, self.msg_cls):
            raise WireEncodeError(
                f"submessage field needs {self.msg_cls.__name__}, got {value!r}")
        value.validate()

    def zero(self) -> None:
        return None


class _Repeated(FieldType):
    """Unpacked repeated field: one tagged entry per element.

    ``encode`` and ``decode`` handle one element (the message writes the
    tags); ``validate`` takes the container and fails on its first bad
    element.
    """

    def __init__(self, inner: FieldType) -> None:
        self.inner = inner
        self.wire_type = inner.wire_type
        self.repeated = True

    def encode(self, value: Any) -> bytes:
        return self.inner.encode(value)

    def decode(self, buf: bytes, offset: int) -> tuple[Any, int]:
        return self.inner.decode(buf, offset)

    def validate(self, value: Any) -> None:
        if not isinstance(value, (list, tuple)):
            raise WireEncodeError(f"repeated field needs list/tuple, got {value!r}")
        for v in value:
            self.inner.validate(v)

    def zero(self) -> list:
        return []


# Factory helpers matching .proto type names.
def uint64() -> FieldType:
    return _Uint64()


def sint64() -> FieldType:
    return _Sint64()


def bool_() -> FieldType:
    return _Bool()


def enum(*allowed: int) -> FieldType:
    return _Enum(frozenset(allowed) if allowed else None)


def double() -> FieldType:
    return _Double()


def string() -> FieldType:
    return _String()


def bytes_() -> FieldType:
    return _Bytes()


def submessage(msg_cls: type["Message"]) -> FieldType:
    return _Submessage(msg_cls)


def repeated(inner: FieldType) -> FieldType:
    return _Repeated(inner)


class Field:
    """One declared field: ``(number, name, type, default)``."""

    __slots__ = ("number", "name", "ftype", "default")

    def __init__(self, number: int, name: str, ftype: FieldType,
                 default: Any = None) -> None:
        self.number = number
        self.name = name
        self.ftype = ftype
        self.default = default

    def initial(self) -> Any:
        if self.default is not None:
            return self.default
        return self.ftype.zero()


#: Per field type, an exact-type test on ``v`` that proves the field's
#: ``validate`` would accept it.  Whatever the test does not cover (a
#: subclass, a bool in an int field, a non-ASCII string, an int in a
#: double field) goes to that ``validate``, which raises or not exactly
#: as an encode would.
_ACCEPT_TESTS = {
    _Uint64: f"v.__class__ is int and 0 <= v <= {_U64_MASK}",
    _Sint64: f"v.__class__ is int and {-(1 << 63)} <= v <= {(1 << 63) - 1}",
    _Bool: "v is True or v is False",
    _Double: "v.__class__ is float",
    _String: "v.__class__ is str and v.isascii()",
}


def _generate_methods(cls: type) -> None:
    """Give ``cls`` its ``__init__(**field_values)`` and ``validate()``.

    Every request pays for both, so they are generated once per class
    as straight-line code over the declared fields (slot stores, inline
    exact-type tests) instead of walking a field table on every call.
    """
    ns: dict[str, Any] = {"WireEncodeError": WireEncodeError,
                          "__name__": cls.__module__}
    # (a bare "*" needs a keyword parameter after it)
    params, init, val = ["self", "*"] if cls.fields else ["self"], [], []
    for f in cls.fields:
        name, ftype = f.name, f.ftype
        ns[f"_default_{name}"] = f.initial()
        ns[f"_val_{name}"] = ftype.validate
        params.append(f"{name}=_default_{name}")
        # A repeated field's default list only marks "not passed":
        # each instance gets a list of its own.
        fresh = f.default is None and ftype.repeated
        init.append(f"    self.{name} = " + (
            f"[] if {name} is _default_{name} else {name}" if fresh else name))
        test = _ACCEPT_TESTS.get(
            _Uint64 if type(ftype) is _Enum and ftype.allowed is None
            else type(ftype))
        val += [f"    v = self.{name}",
                f"    if not ({test}) and v is not None:" if test
                else "    if v is not None:",
                f"        _val_{name}(v)"]
    source = "\n".join([
        f"def __init__({', '.join(params)}, **_unknown):",
        "    if _unknown:",
        "        raise WireEncodeError(f'{type(self).__name__} has no field '",
        "                              f'{next(iter(_unknown))!r}')",
        *init,
        "def validate(self):",
        '    """Raise exactly the error an encode would, without building',
        '    any bytes (recurses into submessages)."""',
        *val, ""])
    # A file name under this package keeps profilers and tracebacks
    # attributing the generated code to the wire layer.
    filename = f"{__file__}:<generated {cls.__qualname__}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), ns)
    cls.__init__, cls.validate = ns["__init__"], ns["validate"]


class MessageMeta(type):
    """Injects ``__slots__`` for the declared field names.

    Messages are the per-request allocation unit at replay scale; slots
    keep every instance ``__dict__``-free and attribute access flat.
    """

    def __new__(mcls, name, bases, ns, **kw):
        if "__slots__" not in ns:
            ns["__slots__"] = tuple(f.name for f in ns.get("fields", ()))
        return super().__new__(mcls, name, bases, ns, **kw)


class Message(metaclass=MessageMeta):
    """Base class: subclasses set ``fields = (Field(...), ...)``.

    ``__init__(**field_values)`` and ``validate()`` do not appear below:
    :func:`_generate_methods` writes them per class from ``fields``.
    """

    fields: tuple[Field, ...] = ()
    #: ``{number: Field}``, the decoder's lookup; set per class by
    #: ``__init_subclass__`` (which also generates ``__init__`` and
    #: ``validate``)
    _by_number: dict = {}

    def __init_subclass__(cls, **kw: Any) -> None:
        super().__init_subclass__(**kw)
        cls._by_number = {f.number: f for f in cls.fields}
        if len(cls._by_number) != len(cls.fields):
            raise WireEncodeError(f"{cls.__name__}: duplicate field numbers")
        _generate_methods(cls)

    # -- codec ------------------------------------------------------------
    def encode(self) -> bytes:
        self.validate()   # recurses into submessages: one check per value
        return self._encode_fields()

    def _encode_fields(self) -> bytes:
        out = bytearray()
        for f in self.fields:
            value = getattr(self, f.name)
            if value is None:
                continue
            ftype = f.ftype
            tag = enc.encode_tag(f.number, ftype.wire_type)
            for item in (value if ftype.repeated else (value,)):
                out += tag
                out += ftype.encode(item)
        return bytes(out)

    def encoded_size(self) -> int:
        # kept for tests/test_wire_fuzz.py and tests/test_wire_fastpath.py
        return len(self.encode())

    @classmethod
    def decode(cls, buf: bytes) -> "Message":
        msg = cls()
        by_number = cls._by_number
        pos = 0
        n = len(buf)
        while pos < n:
            number, wire_type, pos = enc.decode_tag(buf, pos)
            f = by_number.get(number)
            if f is None:
                pos = enc.skip_field(buf, pos, wire_type)
                continue
            ftype = f.ftype
            if wire_type != ftype.wire_type:
                raise WireDecodeError(
                    f"{cls.__name__}.{f.name}: wire type {wire_type} "
                    f"!= declared {ftype.wire_type}")
            value, pos = ftype.decode(buf, pos)
            if ftype.repeated:
                getattr(msg, f.name).append(value)
            else:
                setattr(msg, f.name, value)
        return msg

    # -- conveniences -----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in self.fields:
            v = getattr(self, f.name)
            if isinstance(v, Message):
                v = v.to_dict()
            elif isinstance(v, list):
                v = [x.to_dict() if isinstance(x, Message) else x for x in v]
            out[f.name] = v
        return out

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f.name) == getattr(other, f.name)
                   for f in self.fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self.fields)
        return f"{type(self).__name__}({inner})"


_generate_methods(Message)   # the fieldless base gets the same pair
