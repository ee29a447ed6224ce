"""The wire fast path: lazy frames, mode selection, and cross-mode parity.

The PR 4 acceptance criteria live here: frames must be byte-identical
and identically sized between the ``fast`` and ``bytes`` modes, the urd
must serve identical responses in both, and the replay golden file must
come out byte-identical regardless of mode.
"""

import os
import pathlib

import pytest

import test_policy_replay as replay_mod
from repro.errors import UnknownMessageError, WireEncodeError, WireError
from repro.net.sockets import Credentials, LocalSocketHub
from repro.norns import NornsClient, TaskType
from repro.norns.resources import memory_region, posix_path
from repro.norns.urd import GID_NORNS_USER, UrdConfig, UrdDaemon
from repro.sim.core import Simulator
from repro.wire import (
    WIRE_MODE_BYTES, WIRE_MODE_FAST, MessageRegistry, WireFrame,
    encode_frame, frame_bytes, frame_size, make_frame, open_frame,
    set_wire_mode, wire_mode,
)
from repro.wire.frames import WIRE_MODE_ENV
from repro.wire import norns_proto as proto


@pytest.fixture
def restore_mode():
    previous = wire_mode()
    yield
    set_wire_mode(previous)


def sample_messages():
    yield proto.CommandRequest(command="ping")
    yield proto.IotaskSubmitRequest(
        task_type=proto.IOTASK_COPY,
        input=proto.ResourceDesc(kind=proto.KIND_MEMORY, size=1 << 20),
        output=proto.ResourceDesc(kind=proto.KIND_POSIX_PATH,
                                  nsid="tmp0://", path="/scratch/out.dat"),
        pid=42, priority=-1, admin=True)
    yield proto.TaskStatusResponse(
        error_code=proto.ERR_SUCCESS, task_id=7, status="running",
        bytes_total=100, bytes_moved=40, eta_seconds=1.25,
        elapsed_seconds=0.75)
    yield proto.DataspaceInfoResponse(
        error_code=proto.ERR_SUCCESS,
        dataspaces=[proto.DataspaceDesc(nsid="tmp0://", backend_kind="nvme",
                                        mount="/mnt/nvme0", quota_bytes=1)])
    for _mid, cls in sorted(proto.NORNS_PROTOCOL._by_id.items()):
        yield cls()


class TestModeSelection:
    def test_default_mode_is_fast(self):
        if os.environ.get(WIRE_MODE_ENV):
            pytest.skip("explicit wire-mode override in the environment")
        assert wire_mode() == WIRE_MODE_FAST

    def test_set_wire_mode_roundtrip(self, restore_mode):
        previous = set_wire_mode(WIRE_MODE_BYTES)
        assert wire_mode() == WIRE_MODE_BYTES
        assert set_wire_mode(previous) == WIRE_MODE_BYTES
        assert wire_mode() == previous

    def test_unknown_mode_rejected(self):
        with pytest.raises(WireError, match="unknown wire mode"):
            set_wire_mode("zero-copy-ish")

    def test_make_frame_type_tracks_mode(self, restore_mode):
        msg = proto.CommandRequest(command="ping")
        set_wire_mode(WIRE_MODE_BYTES)
        assert isinstance(make_frame(proto.NORNS_PROTOCOL, msg), bytes)
        set_wire_mode(WIRE_MODE_FAST)
        assert isinstance(make_frame(proto.NORNS_PROTOCOL, msg), WireFrame)


class TestWireFrame:
    @pytest.mark.parametrize("msg", list(sample_messages()),
                             ids=lambda m: type(m).__name__)
    def test_frames_byte_identical_and_sized_between_modes(self, msg):
        raw = encode_frame(proto.NORNS_PROTOCOL, msg)
        frame = WireFrame(proto.NORNS_PROTOCOL, msg)
        assert len(frame) == len(raw)
        assert frame.frame_size == len(raw)
        assert frame.payload_size == len(msg.encode())
        assert frame.materialize() == raw
        assert frame.materialize() is frame.materialize()  # memoized
        assert frame_bytes(frame) == frame_bytes(raw) == raw
        assert frame_size(frame) == frame_size(raw) == len(raw)

    def test_open_frame_is_zero_copy(self):
        msg = proto.CommandRequest(command="ping", args=["a", "b"])
        frame = WireFrame(proto.NORNS_PROTOCOL, msg)
        assert open_frame(proto.NORNS_PROTOCOL, frame) is msg

    def test_open_frame_decodes_bytes(self):
        msg = proto.CommandRequest(command="ping", args=["a", "b"])
        out = open_frame(proto.NORNS_PROTOCOL,
                         encode_frame(proto.NORNS_PROTOCOL, msg))
        assert out == msg and out is not msg

    def test_registry_mismatch_rejected(self):
        other = MessageRegistry()
        other.register(1, proto.CommandRequest)
        frame = WireFrame(other, proto.CommandRequest(command="x"))
        with pytest.raises(UnknownMessageError):
            open_frame(proto.NORNS_PROTOCOL, frame)

    def test_unregistered_message_rejected_like_encode_frame(self):
        class Orphan(proto.CommandRequest):
            pass

        with pytest.raises(UnknownMessageError):
            WireFrame(proto.NORNS_PROTOCOL, Orphan())

    @pytest.mark.parametrize("bad", [
        proto.IotaskStatusRequest(task_id=-5),           # negative uint64
        proto.IotaskStatusRequest(pid="oops"),           # wrong type
        proto.TaskStatusResponse(eta_seconds="soon"),    # non-number double
        proto.RegisterJobRequest(                        # nested overflow
            limits=proto.JobLimits(quota_bytes=2 ** 65)),
        proto.CommandRequest(args=["ok", 3]),            # repeated item type
    ], ids=["neg-uint", "str-uint", "str-double", "nested-u64", "rep-item"])
    def test_invalid_messages_rejected_identically_in_both_modes(
            self, restore_mode, bad):
        for mode in (WIRE_MODE_BYTES, WIRE_MODE_FAST):
            set_wire_mode(mode)
            with pytest.raises(WireError):
                make_frame(proto.NORNS_PROTOCOL, bad)

    def test_unencodable_string_rejected_identically_in_both_modes(
            self, restore_mode):
        # A lone surrogate cannot reach UTF-8; bytes mode raises
        # UnicodeEncodeError at the sender, and fast-mode validation
        # must fail the very same way rather than deferring a raw error
        # into the transport.
        bad = proto.CommandRequest(command="\ud800")
        for mode in (WIRE_MODE_BYTES, WIRE_MODE_FAST):
            set_wire_mode(mode)
            with pytest.raises(UnicodeEncodeError):
                make_frame(proto.NORNS_PROTOCOL, bad)

    def test_oversized_int_in_double_rejected_identically_in_both_modes(
            self, restore_mode):
        # An int too large for a float used to pass fast-mode
        # make_frame (len(frame) == 15) and raise a bare OverflowError
        # from materialize(); bytes mode raised that OverflowError at
        # the sender.  Both must fail the sender with the typed error,
        # from every entry point.
        bad = proto.SubmitResponse(eta_seconds=10 ** 400)
        errors = set()
        for mode in (WIRE_MODE_BYTES, WIRE_MODE_FAST):
            set_wire_mode(mode)
            with pytest.raises(WireEncodeError) as exc:
                make_frame(proto.NORNS_PROTOCOL, bad)
            errors.add(str(exc.value))
        for entry in (bad.validate, bad.encoded_size, bad.encode,
                      bad.encode_oracle):
            with pytest.raises(WireEncodeError) as exc:
                entry()
            errors.add(str(exc.value))
        assert len(errors) == 1
        # The largest int a double can hold still frames.
        ok = proto.SubmitResponse(eta_seconds=int(1.7976931348623157e308))
        assert frame_bytes(WireFrame(proto.NORNS_PROTOCOL, ok)) \
            == encode_frame(proto.NORNS_PROTOCOL, ok)

    def test_message_instances_are_slotted(self):
        msg = proto.CommandRequest(command="x")
        assert not hasattr(msg, "__dict__")
        with pytest.raises(AttributeError):
            msg.not_a_field = 1


def drive_urd(mode: str):
    """One client conversation against a live urd in the given mode.

    Returns the response tuple and the daemon's served counter, which
    must be identical across modes."""
    previous = set_wire_mode(mode)
    try:
        sim = Simulator()
        hub = LocalSocketHub(sim)
        urd = UrdDaemon(sim, UrdConfig(node="localhost"), hub)
        user = Credentials(uid=1000, gid=100,
                           groups=frozenset({GID_NORNS_USER}))
        results = {}

        def script():
            cli = NornsClient(sim, hub, user, pid=1234,
                              socket_path=urd.config.user_socket)
            results["ping"] = yield from cli.ping()
            task = cli.iotask_init(TaskType.COPY, memory_region(64),
                                   posix_path("nope://", "/x"))
            try:
                yield from cli.submit(task)
            except Exception as exc:
                results["submit_error"] = type(exc).__name__
            cli.close()

        sim.process(script())
        sim.run()
        return results, urd.requests_served
    finally:
        set_wire_mode(previous)


class TestCrossModeEquivalence:
    def test_urd_conversation_identical_between_modes(self):
        fast = drive_urd(WIRE_MODE_FAST)
        full = drive_urd(WIRE_MODE_BYTES)
        assert fast == full
        assert fast[0]["ping"] == "pong"
        assert fast[0]["submit_error"] == "NornsDataspaceNotFound"


GOLDEN = pathlib.Path(__file__).parent / "data" / \
    "replay_golden_default.txt"


class TestReplayGoldenBothModes:
    """The crown parity criterion: replay output is byte-identical to
    the pre-fast-path golden file in *both* wire modes."""

    @pytest.mark.parametrize("mode", [WIRE_MODE_FAST, WIRE_MODE_BYTES])
    def test_replay_golden_byte_identical(self, restore_mode, mode):
        set_wire_mode(mode)
        report = replay_mod.replay(replay_mod.golden_trace())
        assert report.to_text() == GOLDEN.read_text()
