"""The wire path: lazy frames, and parity with real frame bytes.

Frames must be byte-identical and identically sized to what
``encode_frame`` produces, reject exactly the messages it rejects, and
the urd must serve identical responses whether every hop carries lazy
frames or real bytes (``bytes_frames()``, the oracle in
``tests/oracles/wire_reference.py``).  The golden replays under both
frame paths are ``tests/test_oracle_goldens.py``.
"""

import ast
import contextlib
import importlib
import pathlib
from functools import partial

import pytest

import repro.norns.urd
import test_policy_replay as policy_replay
from repro.errors import UnknownMessageError, WireEncodeError, WireError
from repro.net.sockets import Credentials, LocalSocketHub
from repro.norns import NornsClient, TaskType
from repro.norns.resources import memory_region, posix_path
from repro.norns.urd import GID_NORNS_USER, UrdConfig, UrdDaemon
from repro.sim.core import Simulator
from repro.wire import (
    Message, MessageRegistry, WireFrame, encode_frame, make_frame,
    open_frame,
)
from repro.wire import norns_proto as proto
from test_hop_budget import mercury_poller, unix_poller
from tests.oracles.wire_reference import (
    FRAME_BUILDERS, bytes_frames, encode_oracle,
)

SRC = pathlib.Path(__file__).parent.parent / "src"
DATA = pathlib.Path(__file__).parent / "data"
#: the sender-side builders: real bytes, and the lazy frame
BUILDERS = (encode_frame, make_frame)


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


class TestBytesFramesOracle:
    def test_patches_every_module_that_frames_by_name(self):
        """A module of ``repro`` that imports ``make_frame`` by name and
        is missing from the oracle's list would keep lazy frames inside
        ``bytes_frames()``: its hops would never carry real bytes."""
        importers = {
            ".".join(path.relative_to(SRC).with_suffix("").parts)
            for path in SRC.rglob("*.py")
            if path.parent.name != "wire"        # the re-export itself
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and node.module in ("repro.wire", "repro.wire.frames")
            and any(a.name == "make_frame" for a in node.names)}
        assert importers == set(FRAME_BUILDERS)

    def test_real_bytes_inside_lazy_frames_outside(self):
        msg = proto.CommandRequest(command="ping")
        with bytes_frames():
            assert repro.norns.urd.make_frame is encode_frame
            assert type(repro.norns.urd._PONG) is bytes
        assert repro.norns.urd.make_frame is make_frame
        assert type(repro.norns.urd._PONG) is WireFrame
        assert type(repro.norns.urd.make_frame(
            proto.NORNS_PROTOCOL, msg)) is WireFrame

    @pytest.mark.parametrize("name", FRAME_BUILDERS)
    def test_each_builder_module_switches_and_restores(self, name):
        module = importlib.import_module(name)
        assert module.make_frame is make_frame
        with bytes_frames():
            assert module.make_frame is encode_frame
        assert module.make_frame is make_frame

    def test_restored_when_the_block_raises(self):
        with pytest.raises(RuntimeError):
            with bytes_frames():
                raise RuntimeError("boom")
        assert repro.norns.urd.make_frame is make_frame
        assert type(repro.norns.urd._PONG) is WireFrame

    def test_nested_blocks_keep_the_outer_one_on_bytes(self):
        with bytes_frames():
            with bytes_frames():
                assert repro.norns.urd.make_frame is encode_frame
            assert repro.norns.urd.make_frame is encode_frame
            assert type(repro.norns.urd._PONG) is bytes
        assert repro.norns.urd.make_frame is make_frame
        assert type(repro.norns.urd._PONG) is WireFrame

    def test_pong_is_the_same_message_on_both_paths(self):
        lazy = repro.norns.urd._PONG
        with bytes_frames():
            raw = repro.norns.urd._PONG
        assert len(raw) == len(lazy)
        assert raw == lazy.materialize()
        assert open_frame(proto.NORNS_PROTOCOL, raw) \
            == open_frame(proto.NORNS_PROTOCOL, lazy)


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
            self, bad):
        for build in BUILDERS:
            with pytest.raises(WireError):
                build(proto.NORNS_PROTOCOL, bad)

    def test_unencodable_string_rejected_identically_in_both_modes(self):
        # A lone surrogate cannot reach UTF-8; encode_frame raises
        # UnicodeEncodeError at the sender, and lazy-frame validation
        # must fail the very same way rather than deferring a raw error
        # into the transport.
        bad = proto.CommandRequest(command="\ud800")
        for build in BUILDERS:
            with pytest.raises(UnicodeEncodeError):
                build(proto.NORNS_PROTOCOL, bad)

    def test_oversized_int_in_double_rejected_identically_in_both_modes(
            self):
        # An int too large for a float used to pass make_frame
        # (len(frame) == 15) and raise a bare OverflowError from
        # materialize(); encode_frame raised that OverflowError at the
        # sender.  Both must fail the sender with the typed error, from
        # every entry point.
        bad = proto.SubmitResponse(eta_seconds=10 ** 400)
        errors = set()
        for build in BUILDERS:
            with pytest.raises(WireEncodeError) as exc:
                build(proto.NORNS_PROTOCOL, bad)
            errors.add(str(exc.value))
        for entry in (bad.validate, bad.encoded_size, bad.encode,
                      partial(encode_oracle, bad)):
            with pytest.raises(WireEncodeError) as exc:
                entry()
            errors.add(str(exc.value))
        assert len(errors) == 1
        # The largest int a double can hold still frames.
        ok = proto.SubmitResponse(eta_seconds=int(1.7976931348623157e308))
        assert WireFrame(proto.NORNS_PROTOCOL, ok).materialize() \
            == encode_frame(proto.NORNS_PROTOCOL, ok)

    def test_repeated_field_fails_on_its_first_bad_item(self):
        # Every entry point runs the field types' own validate, which
        # walks a repeated field's items in order: the lone surrogate
        # fails before the int behind it is looked at, and the other
        # way round the int fails first.
        def entries(msg):
            return (msg.validate, msg.encode, msg.encoded_size,
                    partial(make_frame, proto.NORNS_PROTOCOL, msg),
                    partial(encode_frame, proto.NORNS_PROTOCOL, msg))

        for entry in entries(proto.RegisterJobRequest(
                limits=proto.JobLimits(nsids=["\ud800", 1]))):
            with pytest.raises(UnicodeEncodeError):
                entry()
        for entry in entries(proto.RegisterJobRequest(
                limits=proto.JobLimits(nsids=[1, "\ud800"]))):
            with pytest.raises(WireEncodeError,
                               match="string field needs str, got 1"):
                entry()

    def test_message_instances_are_slotted(self):
        msg = proto.CommandRequest(command="x")
        assert not hasattr(msg, "__dict__")
        with pytest.raises(AttributeError):
            msg.not_a_field = 1


def drive_urd(frames):
    """One client conversation against a live urd, inside ``frames()``.

    Returns the response tuple and the daemon's served counter, which
    must be identical on both frame paths."""
    with frames():
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


class TestCrossModeEquivalence:
    def test_urd_conversation_identical_between_modes(self):
        fast = drive_urd(contextlib.nullcontext)
        full = drive_urd(bytes_frames)
        assert fast == full
        assert fast[0]["ping"] == "pong"
        assert fast[0]["submit_error"] == "NornsDataspaceNotFound"



@pytest.fixture
def codec_calls(monkeypatch):
    """Make the codec's entry points raise.  The list records every
    call, so one whose error a simulated process swallows still fails
    the test."""
    calls = []

    def forbidden(name):
        def entry(*_args, **_kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran on the simulated path")
        return entry

    monkeypatch.setattr(Message, "encode", forbidden("Message.encode"))
    monkeypatch.setattr(Message, "decode",
                        classmethod(forbidden("Message.decode")))
    monkeypatch.setattr(WireFrame, "materialize",
                        forbidden("WireFrame.materialize"))
    return calls


class TestNoCodecOnTheSimulatedPath:
    """Lazy frames carry the message object: no simulated hop encodes,
    decodes or materializes anything."""

    def test_golden_replay(self, codec_calls):
        report = policy_replay.replay(policy_replay.golden_trace())
        assert report.to_text() == \
            (DATA / "replay_golden_default.txt").read_text()
        assert codec_calls == []

    @pytest.mark.parametrize("poller", [unix_poller, mercury_poller],
                             ids=["af_unix", "mercury"])
    def test_submit_and_one_status_poll(self, poller, codec_calls):
        sim, poll = poller(1)       # the submit runs in here
        sim.run(sim.process(poll()))
        assert codec_calls == []
