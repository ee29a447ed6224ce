"""Fuzz/property tests on the wire layer: arbitrary bytes never crash
the decoder with anything other than a WireError family exception, and
the compiled codec plans stay byte-identical to the interpretive
oracle on arbitrary messages."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import WireError
from repro.wire import WireFrame, decode_frame, encode_frame, open_frame
from repro.wire import messages as wire_messages
from repro.wire import norns_proto as proto
from repro.wire.encoding import decode_tag, skip_field
from repro.wire.varint import decode_varint


class TestDecoderRobustness:
    @given(st.binary(max_size=200))
    def test_decode_frame_never_crashes_unexpectedly(self, blob):
        try:
            decode_frame(proto.NORNS_PROTOCOL, blob)
        except WireError:
            pass  # the only acceptable failure family

    @given(st.binary(max_size=64))
    def test_varint_decode_total(self, blob):
        try:
            value, pos = decode_varint(blob)
            assert 0 <= value < 2 ** 64
            assert 0 < pos <= len(blob)
        except WireError:
            pass

    @given(st.binary(max_size=64))
    def test_message_decode_total_both_paths(self, blob):
        """Garbage must fail with WireDecodeError in the compiled AND
        the oracle decoder — never struct.error/IndexError — and when
        both succeed they must agree."""
        for cls in (proto.ResourceDesc, proto.IotaskSubmitRequest,
                    proto.TaskStatusResponse, proto.DataspaceDesc):
            compiled = oracle = None
            compiled_ok = oracle_ok = False
            try:
                compiled = cls.decode(blob)
                compiled_ok = True
            except WireError:
                pass
            try:
                oracle = cls.decode_oracle(blob)
                oracle_ok = True
            except WireError:
                pass
            assert compiled_ok == oracle_ok
            if compiled_ok:
                assert compiled == oracle

    @given(st.binary(min_size=1, max_size=64))
    def test_truncated_valid_frames_fail_cleanly(self, _ignored):
        msg = proto.IotaskSubmitRequest(
            task_type=proto.IOTASK_COPY,
            input=proto.ResourceDesc(kind=proto.KIND_MEMORY, size=10),
            output=proto.ResourceDesc(kind=proto.KIND_POSIX_PATH,
                                      nsid="tmp0://", path="/x"),
            pid=1)
        frame = encode_frame(proto.NORNS_PROTOCOL, msg)
        for cut in range(1, len(frame)):
            try:
                decoded, _pos = decode_frame(proto.NORNS_PROTOCOL,
                                             frame[:cut])
                # A prefix may decode to a partially-filled message only
                # if the cut landed exactly on a field boundary of a
                # *shorter* valid frame; never to a wrong type.
                assert isinstance(decoded, proto.IotaskSubmitRequest)
            except WireError:
                pass

    def test_truncated_payload_fails_cleanly_in_both_decoders(self):
        msg = proto.TaskStatusResponse(
            error_code=proto.ERR_SUCCESS, task_id=3, status="running",
            bytes_total=100, bytes_moved=10, eta_seconds=1.5)
        payload = msg.encode()
        for cut in range(1, len(payload)):
            for decoder in (proto.TaskStatusResponse.decode,
                            proto.TaskStatusResponse.decode_oracle):
                try:
                    decoder(payload[:cut])
                except WireError:
                    pass  # struct.error / IndexError would escape here

    def test_frame_roundtrip_all_protocol_messages(self):
        # Registry completeness: every registered class roundtrips empty.
        reg = proto.NORNS_PROTOCOL
        for mid, cls in sorted(reg._by_id.items()):
            frame = encode_frame(reg, cls())
            out, pos = decode_frame(reg, frame)
            assert type(out) is cls and pos == len(frame)


# -- random well-formed messages: compiled plan vs interpretive oracle ------

_uints = st.integers(min_value=0, max_value=2 ** 64 - 1)
_sints = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
_texts = st.text(max_size=40)
# NaN never compares equal, which would break decode-back equality.
_doubles = st.floats(allow_nan=False)

_resource_descs = st.builds(
    proto.ResourceDesc,
    kind=st.sampled_from([proto.KIND_MEMORY, proto.KIND_POSIX_PATH,
                          proto.KIND_REMOTE_PATH]),
    nsid=_texts, path=_texts, host=_texts, address=_uints, size=_uints)

_dataspace_descs = st.builds(
    proto.DataspaceDesc,
    nsid=_texts, backend_kind=_texts, mount=_texts,
    quota_bytes=_uints, track=st.booleans())

_messages = st.one_of(
    _resource_descs,
    _dataspace_descs,
    st.builds(proto.IotaskSubmitRequest,
              task_type=st.sampled_from([proto.IOTASK_COPY,
                                         proto.IOTASK_MOVE,
                                         proto.IOTASK_REMOVE]),
              input=_resource_descs, output=_resource_descs,
              pid=_uints, priority=_sints, admin=st.booleans()),
    st.builds(proto.TaskStatusResponse,
              error_code=_uints, task_id=_uints, status=_texts,
              task_error=_uints, bytes_total=_uints, bytes_moved=_uints,
              eta_seconds=_doubles, elapsed_seconds=_doubles),
    st.builds(proto.CommandRequest, command=_texts,
              args=st.lists(_texts, max_size=6)),
    st.builds(proto.DataspaceInfoResponse, error_code=_uints,
              dataspaces=st.lists(_dataspace_descs, max_size=4)),
    st.builds(proto.RegisterJobRequest, job_id=_uints,
              hosts=st.lists(_texts, max_size=4),
              limits=st.builds(proto.JobLimits,
                               nsids=st.lists(_texts, max_size=4),
                               quota_bytes=_uints)),
)


class TestCompiledCodecParity:
    @given(_messages)
    def test_encode_byte_identical_to_oracle(self, msg):
        assert msg.encode() == msg.encode_oracle()

    @given(_messages)
    def test_encoded_size_exact(self, msg):
        assert msg.encoded_size() == len(msg.encode())

    @given(_messages)
    def test_decode_back_equal_both_paths(self, msg):
        payload = msg.encode()
        cls = type(msg)
        assert cls.decode(payload) == msg
        assert cls.decode_oracle(payload) == msg

    @given(_messages)
    def test_wireframe_byte_identical_and_sized(self, msg):
        reg = proto.NORNS_PROTOCOL
        if type(msg) not in reg:     # submessage-only types have no id
            return
        frame = WireFrame(reg, msg)
        raw = encode_frame(reg, msg)
        assert len(frame) == len(raw)
        assert frame.materialize() == raw
        assert frame.payload_size == len(msg.encode())
        assert open_frame(reg, frame) is msg
        assert open_frame(reg, raw) == msg


class TestSkipField:
    @given(st.binary(max_size=32))
    def test_skip_is_bounded(self, blob):
        try:
            number, wtype, pos = decode_tag(blob, 0)
            end = skip_field(blob, pos, wtype)
            assert pos <= end <= len(blob)
        except WireError:
            pass


# -- generated validate vs the oracle, right and wrong values ---------------

class _IntSub(int):
    pass


class _StrSub(str):
    pass


#: every message class of the protocol, submessage-only ones included.
_ALL_CLASSES = sorted(
    {*proto.NORNS_PROTOCOL._by_id.values(), proto.ResourceDesc,
     proto.DataspaceDesc, proto.JobLimits}, key=lambda c: c.__name__)

#: values sitting on every edge the generated exact-type tests cut:
#: range ends and one past them, bools and subclasses in int fields,
#: ints (fitting and not) in double fields, non-ASCII and unencodable
#: strings, wrong containers, wrong and invalid submessages.
_EDGE_VALUES = [
    None, 0, 1, 3, -1, 2 ** 63 - 1, 2 ** 63, -(2 ** 63), -(2 ** 63) - 1,
    2 ** 64 - 1, 2 ** 64, 10 ** 400, True, False,
    0.0, 1.5, -2.5, float("inf"), float("nan"),
    "", "ascii", "naïve", "\ud800", b"raw",
    _IntSub(3), _IntSub(-1), _IntSub(2 ** 64), _StrSub("sub"),
    _StrSub("\ud800"),
    [], ["a"], ("a", "b"), ["a", 1], ["\ud800", 1], [2 ** 64, "x"],
    proto.ResourceDesc(), proto.ResourceDesc(kind=9),
    proto.DataspaceDesc(), proto.DataspaceDesc(quota_bytes=-1),
    proto.JobLimits(nsids=["ok"]), proto.JobLimits(nsids=[1]),
    [proto.DataspaceDesc()], (proto.DataspaceDesc(track=1),),
    [proto.DataspaceDesc(nsid=5), "x"],
]


def _outcome(call):
    """``None`` if the call returns, else the error's type and text."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _assert_sender_parity(msg):
    """Every sender-side entry point fails (or not) like the oracle."""
    expected = _outcome(msg.encode_oracle)
    assert _outcome(msg.validate) == expected
    assert _outcome(msg.encoded_size) == expected
    assert _outcome(msg.encode) == expected
    if expected is None:
        assert msg.encode() == msg.encode_oracle()
        assert msg.encoded_size() == len(msg.encode())


def _right_values(ftype):
    """A strategy of values the field type accepts."""
    if ftype.repeated:
        items = st.lists(_right_values(ftype.inner), max_size=3)
        return items | items.map(tuple)
    if isinstance(ftype, wire_messages._Submessage):
        return _any_message(ftype.msg_cls, right_only=True)
    if isinstance(ftype, wire_messages._Enum):
        return (st.sampled_from(sorted(ftype.allowed))
                if ftype.allowed else _uints)
    return {
        wire_messages._Uint64: _uints,
        wire_messages._Sint64: _sints,
        wire_messages._Bool: st.booleans(),
        wire_messages._Double: st.floats() | st.integers(-10 ** 6, 10 ** 6),
        wire_messages._String: _texts,
    }[type(ftype)]


def _any_message(cls, right_only=False):
    """Instances of ``cls``; unless ``right_only``, about one field
    value in four comes from ``_EDGE_VALUES`` instead of its type."""
    def values(ftype):
        right = _right_values(ftype) | st.none()
        if right_only:
            return right
        return st.one_of(right, right, right, st.sampled_from(_EDGE_VALUES))
    return st.builds(cls, **{f.name: values(f.ftype) for f in cls.fields})


class TestGeneratedValidateParity:
    @pytest.mark.parametrize("cls", _ALL_CLASSES, ids=lambda c: c.__name__)
    def test_every_field_against_every_edge_value(self, cls):
        for f in cls.fields:
            for value in _EDGE_VALUES:
                _assert_sender_parity(cls(**{f.name: value}))

    @given(st.data())
    def test_mixed_right_and_wrong_values(self, data):
        cls = data.draw(st.sampled_from(_ALL_CLASSES))
        _assert_sender_parity(data.draw(_any_message(cls)))

    def test_the_edges_are_actually_cut(self):
        """The pool is only a test if it holds accepted and rejected
        values for each inline test (a mutant that widens a range by
        one or admits bools must change some outcome above)."""
        ok = lambda **kw: _outcome(  # noqa: E731
            proto.IotaskSubmitRequest(**kw).validate) is None
        assert ok(pid=2 ** 64 - 1) and not ok(pid=2 ** 64)
        assert ok(pid=0) and not ok(pid=-1) and not ok(pid=True)
        assert ok(pid=_IntSub(3)) and not ok(pid=_IntSub(2 ** 64))
        assert ok(priority=2 ** 63 - 1) and not ok(priority=2 ** 63)
        assert ok(priority=-(2 ** 63)) and not ok(priority=-(2 ** 63) - 1)
        assert ok(admin=False) and not ok(admin=0) and not ok(admin=1)
        assert ok(task_type=_IntSub(3)) and not ok(task_type=0)
        ok = lambda **kw: _outcome(  # noqa: E731
            proto.TaskStatusResponse(**kw).validate) is None
        assert ok(eta_seconds=3) and not ok(eta_seconds=10 ** 400)
        assert ok(eta_seconds=float("nan")) and not ok(eta_seconds=True)
        assert ok(status="naïve") and not ok(status="\ud800")
        assert ok(status=_StrSub("sub")) and not ok(status=b"raw")
