"""End-to-end tests of the urd daemon through the real client APIs.

Everything here crosses the AF_UNIX sockets with wire-encoded frames —
no direct method calls into the daemon.
"""

import pytest

from repro.errors import (
    ConnectionRefused, NornsAccessDenied, NornsDataspaceExists,
    NornsDataspaceNotFound, NornsNotRegistered, NornsTaskError,
    NornsTimeout, PermissionDenied, UnknownMessageError,
)
from repro.norns import NornsClient, NornsCtlClient, TaskStatus, TaskType
from repro.norns.resources import memory_region, posix_path, remote_path
from repro.norns.urd import UrdDaemon
from repro.util import GB, MB
from repro.wire import Message, make_frame, open_frame
from repro.wire import norns_proto as proto

from tests.conftest import OUTSIDER, ROOT, USER, build_cluster, \
    register_standard_dataspaces


@pytest.fixture
def cluster():
    c = build_cluster(2)
    for name in c.nodes:
        register_standard_dataspaces(c, name)
    return c


def register_job_with_process(cluster, node="node0", job_id=1, pid=1234,
                              nsids=("nvme0://", "tmp0://", "lustre://")):
    ctl = cluster.ctl(node)

    def setup():
        yield from ctl.register_job(job_id, ctl.job_init([node], nsids))
        yield from ctl.add_process(job_id, pid, uid=1000, gid=100)
        ctl.close()

    cluster.run(setup())


class TestSocketsAndPermissions:
    def test_ping_over_user_socket(self, cluster):
        client = cluster.user_client("node0", pid=1)
        assert cluster.run(client.ping()) == "pong"

    def test_outsider_cannot_reach_user_socket(self, cluster):
        client = NornsClient(cluster.sim, cluster.node("node0").hub,
                             OUTSIDER, pid=1)
        with pytest.raises(PermissionDenied):
            cluster.run(client.ping())

    def test_user_cannot_reach_control_socket(self, cluster):
        # The norns vs norns-user group split.
        ctl = NornsCtlClient(cluster.sim, cluster.node("node0").hub, USER)
        with pytest.raises(PermissionDenied):
            cluster.run(ctl.ping())

    def test_admin_request_on_user_socket_denied(self, cluster):
        # Even a process that *can* open the user socket cannot issue
        # administrative requests through it.
        client = cluster.user_client("node0", pid=1)

        def attempt():
            from repro.wire import norns_proto as proto
            resp = yield from client._roundtrip(
                proto.UnregisterDataspaceRequest(nsid="nvme0://"))
            return resp.error_code

        assert cluster.run(attempt()) == 4  # ERR_ACCESSDENIED


class TestDataspaceManagement:
    def test_double_registration_rejected(self, cluster):
        ctl = cluster.ctl("node0")

        def go():
            yield from ctl.register_dataspace(
                "nvme0://", ctl.backend_init("dcpmm", "/mnt/nvme0"))

        with pytest.raises(NornsDataspaceExists):
            cluster.run(go())

    def test_unknown_mount_rejected(self, cluster):
        ctl = cluster.ctl("node0")

        def go():
            yield from ctl.register_dataspace(
                "bogus://", ctl.backend_init("nvme", "/mnt/else"))

        with pytest.raises(NornsDataspaceNotFound):
            cluster.run(go())

    def test_unregister_and_reregister(self, cluster):
        ctl = cluster.ctl("node0")

        def go():
            yield from ctl.unregister_dataspace("tmp0://")
            yield from ctl.register_dataspace(
                "tmp0://", ctl.backend_init("tmpfs", "/mnt/tmp0"))

        cluster.run(go())

    def test_status_counts_dataspaces(self, cluster):
        ctl = cluster.ctl("node0")
        status = cluster.run(ctl.status())
        assert status.registered_dataspaces == 3
        assert status.accepting is True

    def test_get_dataspace_info_requires_registration(self, cluster):
        client = cluster.user_client("node0", pid=777)
        with pytest.raises(NornsNotRegistered):
            cluster.run(client.get_dataspace_info())

    def test_get_dataspace_info_lists_allowed(self, cluster):
        register_job_with_process(cluster, pid=1234,
                                  nsids=("nvme0://", "lustre://"))
        client = cluster.user_client("node0", pid=1234)
        infos = cluster.run(client.get_dataspace_info())
        assert sorted(d.nsid for d in infos) == ["lustre://", "nvme0://"]


class TestUserTasks:
    def test_listing2_buffer_offload(self, cluster):
        """The paper's Listing 2: offload a buffer to tmp0:// and wait."""
        register_job_with_process(cluster, pid=1234)
        client = cluster.user_client("node0", pid=1234)

        def buffer_offloading(size):
            tsk = client.iotask_init(
                TaskType.COPY,
                memory_region(size),
                posix_path("tmp0://", "path/to/output"))
            yield from client.submit(tsk)
            # ... work_not_dependent_on_task() ...
            stats = yield from client.wait(tsk)
            return stats

        stats = cluster.run(buffer_offloading(1 * GB))
        assert stats.status is TaskStatus.FINISHED
        assert stats.bytes_moved == 1 * GB
        # The file landed in the tmpfs dataspace.
        assert cluster.node("node0").mounts["tmp0"].exists("/path/to/output")

    def test_submission_is_asynchronous(self, cluster):
        # submit() returns long before the transfer finishes.
        register_job_with_process(cluster, pid=1234)
        client = cluster.user_client("node0", pid=1234)

        def go():
            tsk = client.iotask_init(TaskType.COPY, memory_region(10 * GB),
                                     posix_path("nvme0://", "/big.dat"))
            yield from client.submit(tsk)
            submit_time = cluster.sim.now
            stats = yield from client.wait(tsk)
            return submit_time, cluster.sim.now, stats

        submit_time, done_time, stats = cluster.run(go())
        assert stats.status is TaskStatus.FINISHED
        assert submit_time < 0.01        # microseconds, not seconds
        assert done_time > 3.0           # 10 GB at 2.6 GB/s

    def test_unregistered_pid_rejected(self, cluster):
        client = cluster.user_client("node0", pid=42)

        def go():
            tsk = client.iotask_init(TaskType.COPY, memory_region(100),
                                     posix_path("tmp0://", "/x"))
            yield from client.submit(tsk)

        with pytest.raises(NornsNotRegistered):
            cluster.run(go())

    def test_disallowed_dataspace_rejected(self, cluster):
        register_job_with_process(cluster, pid=1234, nsids=("tmp0://",))
        client = cluster.user_client("node0", pid=1234)

        def go():
            tsk = client.iotask_init(TaskType.COPY, memory_region(100),
                                     posix_path("nvme0://", "/x"))
            yield from client.submit(tsk)

        with pytest.raises(NornsAccessDenied):
            cluster.run(go())

    def test_copy_missing_file_reports_task_error(self, cluster):
        register_job_with_process(cluster, pid=1234)
        client = cluster.user_client("node0", pid=1234)

        def go():
            tsk = client.iotask_init(
                TaskType.COPY,
                posix_path("nvme0://", "/does-not-exist"),
                posix_path("tmp0://", "/copy"))
            yield from client.submit(tsk)
            return (yield from client.wait(tsk))

        stats = cluster.run(go())
        assert stats.status is TaskStatus.ERROR
        assert stats.error_code != 0

    def test_wait_timeout(self, cluster):
        register_job_with_process(cluster, pid=1234)
        client = cluster.user_client("node0", pid=1234)

        def go():
            tsk = client.iotask_init(TaskType.COPY, memory_region(50 * GB),
                                     posix_path("nvme0://", "/huge"))
            yield from client.submit(tsk)
            try:
                yield from client.wait(tsk, timeout=0.5)
            except NornsTimeout:
                pass
            else:
                raise AssertionError("expected timeout")
            stats = yield from client.wait(tsk)  # now wait for real
            return stats

        stats = cluster.run(go())
        assert stats.status is TaskStatus.FINISHED

    def test_error_query_is_nonblocking(self, cluster):
        register_job_with_process(cluster, pid=1234)
        client = cluster.user_client("node0", pid=1234)

        def go():
            tsk = client.iotask_init(TaskType.COPY, memory_region(10 * GB),
                                     posix_path("nvme0://", "/f"))
            yield from client.submit(tsk)
            early = yield from client.error(tsk)
            final = yield from client.wait(tsk)
            return early, final

        early, final = cluster.run(go())
        assert early.status in (TaskStatus.QUEUED, TaskStatus.RUNNING)
        assert final.status is TaskStatus.FINISHED

    def test_move_deletes_source(self, cluster):
        register_job_with_process(cluster, pid=1234)
        client = cluster.user_client("node0", pid=1234)
        nvme = cluster.node("node0").mounts["nvme0"]
        cluster.sim.run(nvme.write_file("/src.dat", 100 * MB))

        def go():
            tsk = client.iotask_init(TaskType.MOVE,
                                     posix_path("nvme0://", "/src.dat"),
                                     posix_path("tmp0://", "/dst.dat"))
            yield from client.submit(tsk)
            return (yield from client.wait(tsk))

        stats = cluster.run(go())
        assert stats.status is TaskStatus.FINISHED
        assert not nvme.exists("/src.dat")
        assert cluster.node("node0").mounts["tmp0"].exists("/dst.dat")

    def test_remove_task(self, cluster):
        register_job_with_process(cluster, pid=1234)
        client = cluster.user_client("node0", pid=1234)
        nvme = cluster.node("node0").mounts["nvme0"]
        cluster.sim.run(nvme.write_file("/junk.dat", 10 * MB))

        def go():
            tsk = client.iotask_init(TaskType.REMOVE,
                                     posix_path("nvme0://", "/junk.dat"))
            yield from client.submit(tsk)
            return (yield from client.wait(tsk))

        stats = cluster.run(go())
        assert stats.status is TaskStatus.FINISHED
        assert not nvme.exists("/junk.dat")

    def test_eta_returned_on_submit(self, cluster):
        register_job_with_process(cluster, pid=1234)
        client = cluster.user_client("node0", pid=1234)

        def go():
            tsk = client.iotask_init(TaskType.COPY, memory_region(2 * GB),
                                     posix_path("nvme0://", "/f"))
            yield from client.submit(tsk)
            return tsk.eta_seconds

        assert cluster.run(go()) > 0


class TestAdminTasks:
    def test_stage_in_from_lustre_to_nvme(self, cluster):
        # Populate the PFS, then stage in via an admin task.
        sim = cluster.sim
        wc = sim.run(cluster.pfs.write("node0", "/proj/input.dat", 1 * GB,
                                       token="input"))
        ctl = cluster.ctl("node0")

        def go():
            tsk = ctl.iotask_init(TaskType.COPY,
                                  posix_path("lustre://", "/proj/input.dat"),
                                  posix_path("nvme0://", "/input.dat"))
            yield from ctl.submit(tsk)
            return (yield from ctl.wait(tsk))

        stats = cluster.run(go())
        assert stats.status is TaskStatus.FINISHED
        staged = cluster.node("node0").mounts["nvme0"].stat("/input.dat")
        assert staged == wc  # fingerprint preserved end to end

    def test_stage_out_to_lustre(self, cluster):
        sim = cluster.sim
        nvme = cluster.node("node0").mounts["nvme0"]
        wc = sim.run(nvme.write_file("/result.dat", 1 * GB, token="result"))
        ctl = cluster.ctl("node0")

        def go():
            tsk = ctl.iotask_init(TaskType.COPY,
                                  posix_path("nvme0://", "/result.dat"),
                                  posix_path("lustre://", "/proj/result.dat"))
            yield from ctl.submit(tsk)
            return (yield from ctl.wait(tsk))

        stats = cluster.run(go())
        assert stats.status is TaskStatus.FINISHED
        assert cluster.pfs.ns.lookup("/proj/result.dat") == wc

    def test_daemon_pause_and_resume(self, cluster):
        ctl = cluster.ctl("node0")

        def go():
            yield from ctl.send_command("pause-accept")
            status = yield from ctl.status()
            paused = status.accepting
            yield from ctl.send_command("resume-accept")
            status = yield from ctl.status()
            return paused, status.accepting

        paused, resumed = cluster.run(go())
        assert paused is False and resumed is True

    def test_eta_improves_with_observations(self, cluster):
        # After staging once, the route EWMA reflects the real rate and
        # the next ETA is much closer to the truth.
        sim = cluster.sim
        sim.run(cluster.pfs.write("node0", "/a.dat", 2 * GB, token="a"))
        sim.run(cluster.pfs.write("node0", "/b.dat", 2 * GB, token="b"))
        ctl = cluster.ctl("node0")

        def stage(path):
            tsk = ctl.iotask_init(TaskType.COPY,
                                  posix_path("lustre://", path),
                                  posix_path("nvme0://", path))
            yield from ctl.submit(tsk)
            stats = yield from ctl.wait(tsk)
            return tsk.eta_seconds, stats

        eta_a, stats_a = cluster.run(stage("/a.dat"))
        t0 = sim.now
        eta_b, stats_b = cluster.run(stage("/b.dat"))
        actual_b = sim.now - t0
        assert stats_b.status is TaskStatus.FINISHED
        # Second estimate is informed: within 50% of the actual time.
        assert abs(eta_b - actual_b) / actual_b < 0.5


class TestRequestTable:
    """The urd dispatches on a class-keyed table; these pin it to what
    the isinstance ladder it replaced (commit 184644b) served."""

    #: request class -> needed the control socket, as the ladder had it.
    LADDER = {
        proto.CommandRequest: False,
        proto.StatusRequest: False,
        proto.RegisterDataspaceRequest: True,
        proto.UpdateDataspaceRequest: True,
        proto.UnregisterDataspaceRequest: True,
        proto.RegisterJobRequest: True,
        proto.UpdateJobRequest: True,
        proto.UnregisterJobRequest: True,
        proto.AddProcessRequest: True,
        proto.RemoveProcessRequest: True,
        proto.IotaskSubmitRequest: False,
        proto.IotaskStatusRequest: False,
        proto.IotaskWaitRequest: False,
        proto.GetDataspaceInfoRequest: False,
    }
    #: registered classes the ladder never served as requests.
    NOT_REQUESTS = [
        proto.RemoteFileRequest, proto.RemoteFileResponse,
        proto.GenericResponse, proto.SubmitResponse,
        proto.TaskStatusResponse, proto.DataspaceInfoResponse,
        proto.DaemonStatusResponse,
    ]

    @staticmethod
    def sample(cls):
        """A request of ``cls`` a handler can serve without crashing."""
        desc = proto.DataspaceDesc(nsid="nvme0://", backend_kind="dcpmm",
                                   mount="/mnt/nvme0")
        mem = proto.ResourceDesc(kind=proto.KIND_MEMORY, size=1)
        return {
            proto.CommandRequest: lambda: cls(command="ping"),
            proto.RegisterDataspaceRequest: lambda: cls(dataspace=desc),
            proto.UpdateDataspaceRequest: lambda: cls(dataspace=desc),
            proto.IotaskSubmitRequest: lambda: cls(
                task_type=proto.IOTASK_COPY, input=mem,
                output=proto.ResourceDesc(kind=proto.KIND_POSIX_PATH,
                                          nsid="tmp0://", path="/x")),
        }.get(cls, cls)()

    @staticmethod
    def exchange(cluster, client, messages):
        def go():
            out = []
            for msg in messages:
                out.append((yield from client._roundtrip(msg)))
            client.close()
            return out
        return cluster.run(go())

    def test_table_has_exactly_the_ladders_entries(self):
        table = UrdDaemon._REQUEST_TABLE
        assert {cls: ctl for cls, (_h, ctl) in table.items()} == self.LADDER
        handlers = [h for h, _ctl in table.values()]
        assert len(set(handlers)) == len(handlers)       # one each
        assert all(getattr(UrdDaemon, h.__name__) is h for h in handlers)
        registered = set(proto.NORNS_PROTOCOL._by_id.values())
        assert set(table) | set(self.NOT_REQUESTS) == registered

    def test_control_requirement_per_request_class(self, cluster):
        urd = cluster.node("node0").urd
        requests = [self.sample(cls) for cls in self.LADDER]
        before = urd.requests_served
        on_user = self.exchange(
            cluster, cluster.user_client("node0", pid=1), requests)
        on_ctl = self.exchange(cluster, cluster.ctl("node0"), requests)
        for (cls, needs_control), usr, ctl in zip(
                self.LADDER.items(), on_user, on_ctl):
            denied = (type(usr) is proto.GenericResponse
                      and usr.error_code == proto.ERR_ACCESSDENIED)
            assert denied == needs_control, cls.__name__
            if denied:
                assert usr.detail == \
                    "administrative request on the user socket"
            assert ctl.error_code not in (proto.ERR_ACCESSDENIED,
                                          proto.ERR_BADREQUEST), cls.__name__
        # Denied, failed and parked requests all count as served.
        assert urd.requests_served == before + 2 * len(requests)

    def test_non_request_classes_are_bad_requests(self, cluster):
        urd = cluster.node("node0").urd
        before = urd.requests_served
        replies = self.exchange(cluster, cluster.ctl("node0"),
                                [cls() for cls in self.NOT_REQUESTS])
        for cls, reply in zip(self.NOT_REQUESTS, replies):
            assert type(reply) is proto.GenericResponse
            assert reply.error_code == proto.ERR_BADREQUEST
            assert reply.detail == f"unsupported message {cls.__name__}"
        assert urd.requests_served == before + len(self.NOT_REQUESTS)

    def test_unregistered_classes_are_bad_requests(self, cluster):
        # Framing refuses these at the sender, so they can only be
        # handed to the dispatcher directly; the table is keyed by the
        # exact class, like the registry.
        class Stray(Message):
            fields = ()

        class StatusSubclass(proto.StatusRequest):
            pass

        urd = cluster.node("node0").urd
        for msg in (Stray(), StatusSubclass()):
            with pytest.raises(UnknownMessageError):
                make_frame(proto.NORNS_PROTOCOL, msg)
            reply = urd._dispatch(msg, True)
            assert reply.error_code == proto.ERR_BADREQUEST
            assert reply.detail == \
                f"unsupported message {type(msg).__name__}"

    def test_unknown_message_id_is_a_bad_request(self, cluster):
        urd = cluster.node("node0").urd
        ctl = cluster.ctl("node0")
        before = urd.requests_served

        def go():
            yield from ctl.connect()
            yield ctl._chan.send(b"\x7f\x00")    # id 127: never assigned
            raw = yield ctl._chan.recv()
            ctl.close()
            return open_frame(proto.NORNS_PROTOCOL, raw)

        reply = cluster.run(go())
        assert reply.error_code == proto.ERR_BADREQUEST
        assert "unknown message id 127" in reply.detail
        assert urd.requests_served == before + 1
