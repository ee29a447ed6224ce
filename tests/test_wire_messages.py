"""Tests for the declarative message layer and the NORNS protocol schema."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import UnknownMessageError, WireDecodeError, WireEncodeError
from repro.wire import (
    Field, Message, MessageRegistry, bool_, bytes_, decode_frame, double,
    encode_frame, enum, repeated, sint64, string, submessage, uint64,
)
from repro.wire import norns_proto as np_


class Point(Message):
    fields = (
        Field(1, "x", sint64()),
        Field(2, "y", sint64()),
    )


class Blob(Message):
    fields = (
        Field(1, "name", string()),
        Field(2, "data", bytes_()),
        Field(3, "score", double()),
        Field(4, "flag", bool_()),
        Field(5, "tags", repeated(string())),
        Field(6, "origin", submessage(Point)),
        Field(7, "count", uint64()),
    )


class TestMessageBasics:
    def test_defaults(self):
        b = Blob()
        assert b.name == "" and b.data == b"" and b.score == 0.0
        assert b.flag is False and b.tags == [] and b.origin is None

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(WireEncodeError):
            Blob(nope=1)

    def test_roundtrip_full(self):
        b = Blob(name="file.dat", data=b"\x00\x01", score=2.5, flag=True,
                 tags=["a", "b"], origin=Point(x=-3, y=7), count=9)
        out = Blob.decode(b.encode())
        assert out == b
        assert out.origin.x == -3

    def test_none_submessage_skipped(self):
        b = Blob(name="x")
        decoded = Blob.decode(b.encode())
        assert decoded.origin is None

    def test_type_validation_on_encode(self):
        with pytest.raises(WireEncodeError):
            Blob(name=42).encode()
        with pytest.raises(WireEncodeError):
            Blob(count=-1).encode()
        with pytest.raises(WireEncodeError):
            Blob(flag="yes").encode()
        with pytest.raises(WireEncodeError):
            Blob(tags="not-a-list").encode()

    def test_unknown_fields_skipped_on_decode(self):
        # Encode with an extra field number 99 prepended: decoder skips it.
        from repro.wire.encoding import encode_tag, WIRETYPE_VARINT
        from repro.wire.varint import encode_varint
        extra = encode_tag(99, WIRETYPE_VARINT) + encode_varint(5)
        b = Blob(name="keep")
        out = Blob.decode(extra + b.encode())
        assert out.name == "keep"

    def test_wiretype_mismatch_raises(self):
        from repro.wire.encoding import encode_tag, WIRETYPE_VARINT
        from repro.wire.varint import encode_varint
        # Field 1 of Blob is a string (LEN); feed it a varint.
        bad = encode_tag(1, WIRETYPE_VARINT) + encode_varint(5)
        with pytest.raises(WireDecodeError):
            Blob.decode(bad)

    def test_duplicate_field_numbers_rejected_at_class_creation(self):
        with pytest.raises(WireEncodeError):
            class Bad(Message):
                fields = (Field(1, "a", uint64()), Field(1, "b", uint64()))

    def test_invalid_utf8_string(self):
        from repro.wire.encoding import encode_tag, WIRETYPE_LEN, encode_len_prefixed
        bad = encode_tag(1, WIRETYPE_LEN) + encode_len_prefixed(b"\xff\xfe")
        with pytest.raises(WireDecodeError):
            Blob.decode(bad)

    @given(st.integers(min_value=-(2**40), max_value=2**40),
           st.integers(min_value=-(2**40), max_value=2**40))
    def test_point_roundtrip_property(self, x, y):
        assert Point.decode(Point(x=x, y=y).encode()) == Point(x=x, y=y)

    @given(st.text(max_size=50), st.binary(max_size=100),
           st.floats(allow_nan=False, allow_infinity=False),
           st.booleans(), st.lists(st.text(max_size=10), max_size=5))
    def test_blob_roundtrip_property(self, name, data, score, flag, tags):
        b = Blob(name=name, data=data, score=score, flag=flag, tags=tags)
        out = Blob.decode(b.encode())
        assert out.name == name and out.data == data
        assert out.score == pytest.approx(score) or (score == 0 and out.score == 0)
        assert out.flag == flag and out.tags == tags


class TestEnum:
    def test_restricted_enum_rejects_unknown(self):
        class E(Message):
            fields = (Field(1, "v", enum(1, 2, 3)),)
        with pytest.raises(WireEncodeError):
            E(v=9).encode()

    def test_restricted_enum_decode_rejects_unknown(self):
        class E1(Message):
            fields = (Field(1, "v", enum()),)

        class E2(Message):
            fields = (Field(1, "v", enum(1, 2)),)

        raw = E1(v=9).encode()
        with pytest.raises(WireDecodeError):
            E2.decode(raw)


class TestRegistryAndFrames:
    def test_frame_roundtrip(self):
        reg = MessageRegistry()
        reg.register(7, Point)
        frame = encode_frame(reg, Point(x=1, y=2))
        msg, pos = decode_frame(reg, frame)
        assert msg == Point(x=1, y=2) and pos == len(frame)

    def test_unknown_id_raises(self):
        reg = MessageRegistry()
        reg.register(7, Point)
        other = MessageRegistry()
        frame = encode_frame(reg, Point(x=1, y=2))
        with pytest.raises(UnknownMessageError):
            decode_frame(other, frame)

    def test_duplicate_registration_rejected(self):
        reg = MessageRegistry()
        reg.register(1, Point)
        with pytest.raises(UnknownMessageError):
            reg.register(1, Blob)
        with pytest.raises(UnknownMessageError):
            reg.register(2, Point)

    def test_consecutive_frames_parse(self):
        reg = MessageRegistry()
        reg.register(1, Point)
        buf = encode_frame(reg, Point(x=1, y=1)) + encode_frame(reg, Point(x=2, y=2))
        m1, pos = decode_frame(reg, buf)
        m2, end = decode_frame(reg, buf, pos)
        assert m1.x == 1 and m2.x == 2 and end == len(buf)


class TestNornsProtocol:
    def test_all_messages_registered_and_roundtrip(self):
        samples = [
            np_.CommandRequest(command="ping"),
            np_.StatusRequest(),
            np_.RegisterDataspaceRequest(dataspace=np_.DataspaceDesc(
                nsid="nvme0://", backend_kind="nvme", mount="/mnt/nvme0",
                quota_bytes=2 ** 40, track=True)),
            np_.UnregisterDataspaceRequest(nsid="nvme0://"),
            np_.RegisterJobRequest(job_id=42, hosts=["node0", "node1"],
                                   limits=np_.JobLimits(nsids=["nvme0://"])),
            np_.AddProcessRequest(job_id=42, pid=1234, uid=1000, gid=100),
            np_.IotaskSubmitRequest(
                task_type=np_.IOTASK_COPY,
                input=np_.ResourceDesc(kind=np_.KIND_POSIX_PATH,
                                       nsid="lustre://", path="in.dat"),
                output=np_.ResourceDesc(kind=np_.KIND_POSIX_PATH,
                                        nsid="nvme0://", path="in.dat"),
                pid=1234),
            np_.IotaskStatusRequest(task_id=7, pid=1234),
            np_.GetDataspaceInfoRequest(pid=1),
            np_.GenericResponse(error_code=np_.ERR_SUCCESS),
            np_.SubmitResponse(error_code=0, task_id=99, eta_seconds=1.5),
            np_.TaskStatusResponse(error_code=0, task_id=99, status="running",
                                   bytes_total=100, bytes_moved=40),
            np_.DataspaceInfoResponse(error_code=0, dataspaces=[
                np_.DataspaceDesc(nsid="tmp0://", backend_kind="tmpfs")]),
            np_.DaemonStatusResponse(error_code=0, running_tasks=1,
                                     pending_tasks=2, completed_tasks=3),
        ]
        for msg in samples:
            frame = encode_frame(np_.NORNS_PROTOCOL, msg)
            out, _ = decode_frame(np_.NORNS_PROTOCOL, frame)
            assert out == msg, type(msg).__name__

    def test_resource_desc_kinds_are_restricted(self):
        with pytest.raises(WireEncodeError):
            np_.ResourceDesc(kind=99).encode()

    def test_frames_are_real_bytes(self):
        frame = encode_frame(np_.NORNS_PROTOCOL,
                             np_.CommandRequest(command="ping"))
        assert isinstance(frame, bytes) and len(frame) >= 3


#: every message class of the protocol, submessage-only ones included.
_PROTOCOL_CLASSES = sorted(
    {*np_.NORNS_PROTOCOL._by_id.values(), np_.ResourceDesc,
     np_.DataspaceDesc, np_.JobLimits, Blob, Point},
    key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", _PROTOCOL_CLASSES, ids=lambda c: c.__name__)
class TestGeneratedConstructor:
    """``__init__`` is generated per class from ``fields``; it must
    behave like the field-table loop it replaced."""

    def test_defaults_equal_field_initial(self, cls):
        msg = cls()
        for f in cls.fields:
            value = getattr(msg, f.name)
            assert value == f.initial() and type(value) is type(f.initial())

    def test_repeated_fields_get_their_own_list(self, cls):
        a, b = cls(), cls()
        for f in cls.fields:
            if f.ftype.repeated:
                assert getattr(a, f.name) is not getattr(b, f.name)
                getattr(a, f.name).append("only in a")
                assert getattr(b, f.name) == [] == getattr(cls(), f.name)

    def test_passed_values_are_kept_as_given(self, cls):
        for f in cls.fields:
            marker = object()       # no copying, no coercion, no checks
            assert getattr(cls(**{f.name: marker}), f.name) is marker
            assert getattr(cls(**{f.name: None}), f.name) is None
        everything = {f.name: [f.number] for f in cls.fields}
        msg = cls(**everything)
        assert all(getattr(msg, k) is v for k, v in everything.items())

    def test_unknown_keyword_names_the_first_unknown_field(self, cls):
        known = {f.name: None for f in cls.fields[:1]}
        with pytest.raises(WireEncodeError) as exc:
            cls(**known, zeta=1, alpha=2)
        assert str(exc.value) == f"{cls.__name__} has no field 'zeta'"

    def test_fields_are_keyword_only(self, cls):
        with pytest.raises(TypeError):
            cls(1)
