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

The codec is a **compiled plan** built once at class-definition time:
it flattens the ordered field list into per-field closures with
precomputed tag bytes, a shared ``struct.Struct`` for doubles and
direct varint appends into a single ``bytearray``.  ``encode()``,
``decode()`` and the exact ``encoded_size()`` run on it, and message
instances are ``__slots__``-only (no per-instance ``__dict__``).  The
two methods every request runs, ``__init__`` and ``validate()``, are
generated per class as straight-line source over the same closures.

This is the only codec.  The original interpretive one — per-field
:class:`FieldType` virtual dispatch — is kept as a test oracle in
``tests/oracles/wire_reference.py``; ``tests/test_wire_fuzz.py`` holds
the compiled plan byte-identical to it on arbitrary and malformed
messages.
"""

from __future__ import annotations

import linecache
import struct
from typing import Any, Callable, Optional

from repro.errors import WireDecodeError, WireEncodeError
from repro.wire import encoding as enc
from repro.wire.varint import (
    append_varint, decode_varint, decode_zigzag, encode_varint,
    encode_zigzag, varint_size,
)

__all__ = [
    "Field", "Message",
    "uint64", "sint64", "bool_", "enum", "double", "string", "bytes_",
    "submessage", "repeated",
]

_U64_MASK = (1 << 64) - 1
_VALID_WIRETYPES = enc._VALID_WIRETYPES
_PACK_D = struct.Struct("<d").pack


class FieldType:
    """Encode/decode strategy for a single field value."""

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
        return enc.encode_len_prefixed(value.encode())

    def decode(self, buf: bytes, offset: int) -> tuple["Message", int]:
        raw, pos = enc.decode_len_prefixed(buf, offset)
        return self.msg_cls.decode(raw), pos

    def validate(self, value: Any) -> None:
        if not isinstance(value, self.msg_cls):
            raise WireEncodeError(
                f"submessage field needs {self.msg_cls.__name__}, got {value!r}")

    def zero(self) -> None:
        return None


class _Repeated(FieldType):
    """Unpacked repeated field: one tagged entry per element."""

    def __init__(self, inner: FieldType) -> None:
        self.inner = inner
        self.wire_type = inner.wire_type
        self.repeated = True

    def encode(self, value: Any) -> bytes:  # handled specially in Message
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


# ---------------------------------------------------------------------------
# Compiled codec plans
# ---------------------------------------------------------------------------

def _decode_bool(buf: bytes, offset: int) -> tuple[bool, int]:
    v, pos = decode_varint(buf, offset)
    return bool(v), pos


def _compile_field(f: Field) -> tuple[Callable, Callable, Callable, Callable]:
    """Flatten one declared field into
    ``(encode_into, size_of, decode, validate)``.

    ``encode_into(out, value)`` validates and appends tag + payload to a
    shared ``bytearray``; ``size_of(value)`` returns the exact encoded
    byte count without materializing anything larger than a string's
    UTF-8 form; ``decode(buf, pos)`` is the tightest per-type reader;
    ``validate(value)`` raises exactly the errors an encode would,
    without computing sizes (no string encoding needed).  All four are
    byte/semantics-identical to the per-type :class:`FieldType` methods.
    """
    ft = f.ftype
    inner = ft.inner if isinstance(ft, _Repeated) else ft
    tag = enc.encode_tag(f.number, ft.wire_type)
    taglen = len(tag)
    check = inner.validate

    if isinstance(inner, (_Uint64, _Enum)):
        def enc_one(out, v, _tag=tag, _check=check):
            _check(v)
            if v > _U64_MASK:
                raise WireEncodeError(f"varint overflow: {v} >= 2**64")
            out += _tag
            append_varint(out, int(v))

        def size_one(v, _taglen=taglen, _check=check):
            _check(v)
            if v > _U64_MASK:
                raise WireEncodeError(f"varint overflow: {v} >= 2**64")
            return _taglen + varint_size(int(v))

        def val_one(v, _check=check):
            _check(v)
            if v > _U64_MASK:
                raise WireEncodeError(f"varint overflow: {v} >= 2**64")

        if isinstance(inner, _Enum) and inner.allowed is not None:
            dec_one = inner.decode       # enforces the allowed set
        else:
            dec_one = decode_varint
    elif isinstance(inner, _Sint64):
        def enc_one(out, v, _tag=tag, _check=check):
            _check(v)
            if not -(1 << 63) <= v < (1 << 63):
                raise WireEncodeError(f"sint64 out of range: {v}")
            out += _tag
            append_varint(out, ((v << 1) ^ (v >> 63)) & _U64_MASK)

        def size_one(v, _taglen=taglen, _check=check):
            _check(v)
            if not -(1 << 63) <= v < (1 << 63):
                raise WireEncodeError(f"sint64 out of range: {v}")
            return _taglen + varint_size(((v << 1) ^ (v >> 63)) & _U64_MASK)

        def val_one(v, _check=check):
            _check(v)
            if not -(1 << 63) <= v < (1 << 63):
                raise WireEncodeError(f"sint64 out of range: {v}")

        dec_one = decode_zigzag
    elif isinstance(inner, _Bool):
        def enc_one(out, v, _tag=tag, _check=check):
            _check(v)
            out += _tag
            out.append(1 if v else 0)

        def size_one(v, _taglen=taglen, _check=check):
            _check(v)
            return _taglen + 1

        val_one = check
        dec_one = _decode_bool
    elif isinstance(inner, _Double):
        def enc_one(out, v, _tag=tag, _check=check):
            _check(v)
            out += _tag
            out += _PACK_D(float(v))

        def size_one(v, _taglen=taglen, _check=check):
            _check(v)
            return _taglen + 8

        val_one = check
        dec_one = enc.decode_double
    elif isinstance(inner, _String):
        def enc_one(out, v, _tag=tag, _check=check):
            _check(v)
            b = v.encode("utf-8")
            out += _tag
            append_varint(out, len(b))
            out += b

        def size_one(v, _taglen=taglen, _check=check):
            _check(v)
            n = len(v) if v.isascii() else len(v.encode("utf-8"))
            return _taglen + varint_size(n) + n

        def val_one(v, _check=check):
            _check(v)
            # Parity for unencodable strings (lone surrogates):
            # encode_frame raises UnicodeEncodeError at the sender, so
            # validation must too.  ASCII (the hot path) skips the
            # encode attempt entirely.
            if not v.isascii():
                v.encode("utf-8")

        dec_one = inner.decode           # carries the UTF-8 error wrap
    elif isinstance(inner, _Bytes):
        def enc_one(out, v, _tag=tag, _check=check):
            _check(v)
            out += _tag
            append_varint(out, len(v))
            out += v

        def size_one(v, _taglen=taglen, _check=check):
            _check(v)
            n = len(v)
            return _taglen + varint_size(n) + n

        val_one = check
        dec_one = enc.decode_len_prefixed
    elif isinstance(inner, _Submessage):
        def enc_one(out, v, _tag=tag, _check=check):
            _check(v)
            payload = v.encode()
            out += _tag
            append_varint(out, len(payload))
            out += payload

        def size_one(v, _taglen=taglen, _check=check):
            _check(v)
            n = v.encoded_size()
            return _taglen + varint_size(n) + n

        def val_one(v, _check=check):
            _check(v)
            v.validate()

        dec_one = inner.decode
    else:  # custom FieldType subclass: fall back to its own codec
        def enc_one(out, v, _tag=tag, _ft=inner):
            _ft.validate(v)
            out += _tag
            out += _ft.encode(v)

        def size_one(v, _taglen=taglen, _ft=inner):
            _ft.validate(v)
            return _taglen + len(_ft.encode(v))

        val_one = check
        dec_one = inner.decode

    if not ft.repeated:
        return enc_one, size_one, dec_one, val_one

    # Like FieldType, a repeated field first checks the container and
    # every item's type, then range-checks item by item, so a list with
    # two bad items fails on the same one on every path.
    check_all = ft.validate

    def enc_rep(out, items, _check_all=check_all, _e=enc_one):
        _check_all(items)
        for v in items:
            _e(out, v)

    def size_rep(items, _check_all=check_all, _s=size_one):
        _check_all(items)
        n = 0
        for v in items:
            n += _s(v)
        return n

    def val_rep(items, _check_all=check_all, _v=val_one):
        _check_all(items)
        for v in items:
            _v(v)

    return enc_rep, size_rep, dec_one, val_rep


#: Per field type, an exact-type test on ``v`` that proves the field's
#: checker would accept it.  Whatever the test does not cover (a
#: subclass, a bool in an int field, a non-ASCII string, an int in a
#: double field) goes to the compiled ``val_one``, which raises or not
#: exactly as an encode would.
_ACCEPT_TESTS = {
    _Uint64: f"v.__class__ is int and 0 <= v <= {_U64_MASK}",
    _Sint64: f"v.__class__ is int and {-(1 << 63)} <= v <= {(1 << 63) - 1}",
    _Bool: "v is True or v is False",
    _Double: "v.__class__ is float",
    _String: "v.__class__ is str and v.isascii()",
}


def _generate_methods(cls: type, validators: dict[str, Callable]) -> None:
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
        ns[f"_val_{name}"] = validators[name]
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
        '    """Raise exactly the error an encode would, without computing',
        '    sizes or building bytes (recurses into submessages)."""',
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
    #: compiled plans, built once per class by ``__init_subclass__``
    #: (which also generates the class's ``__init__`` and ``validate``)
    _enc_plan: tuple = ()
    _size_plan: tuple = ()
    _dec_plan: dict = {}

    def __init_subclass__(cls, **kw: Any) -> None:
        super().__init_subclass__(**kw)
        numbers = [f.number for f in cls.fields]
        if len(set(numbers)) != len(numbers):
            raise WireEncodeError(f"{cls.__name__}: duplicate field numbers")
        enc_plan, size_plan = [], []
        validators: dict[str, Callable] = {}
        dec_plan: dict[int, tuple] = {}
        for f in cls.fields:
            enc_one, size_one, dec_one, val_one = _compile_field(f)
            enc_plan.append((f.name, enc_one))
            size_plan.append((f.name, size_one))
            validators[f.name] = val_one
            dec_plan[f.number] = (f.name, f.ftype.wire_type, dec_one,
                                  f.ftype.repeated)
        cls._enc_plan = tuple(enc_plan)
        cls._size_plan = tuple(size_plan)
        cls._dec_plan = dec_plan
        _generate_methods(cls, validators)

    # -- compiled codec -------------------------------------------------
    def encode(self) -> bytes:
        out = bytearray()
        for name, enc_into in self._enc_plan:
            value = getattr(self, name)
            if value is None:
                continue
            enc_into(out, value)
        return bytes(out)

    def encoded_size(self) -> int:
        """Exact ``len(self.encode())`` without building the bytes."""
        total = 0
        for name, size_of in self._size_plan:
            value = getattr(self, name)
            if value is None:
                continue
            total += size_of(value)
        return total

    @classmethod
    def decode(cls, buf: bytes) -> "Message":
        msg = cls()
        dec = cls._dec_plan
        pos = 0
        n = len(buf)
        while pos < n:
            key, pos = decode_varint(buf, pos)
            number = key >> 3
            wire_type = key & 0x7
            if number == 0:
                raise WireDecodeError("field number 0 is reserved")
            if wire_type not in _VALID_WIRETYPES:
                raise WireDecodeError(f"invalid wire type {wire_type}")
            entry = dec.get(number)
            if entry is None:
                pos = enc.skip_field(buf, pos, wire_type)
                continue
            name, declared, dec_one, rep = entry
            if wire_type != declared:
                raise WireDecodeError(
                    f"{cls.__name__}.{name}: wire type {wire_type} "
                    f"!= declared {declared}")
            value, pos = dec_one(buf, pos)
            if rep:
                getattr(msg, name).append(value)
            else:
                setattr(msg, name, value)
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


_generate_methods(Message, {})   # the fieldless base gets the same pair
