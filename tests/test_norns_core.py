"""Unit tests for NORNS building blocks: resources, tasks, queue, ETA,
controller."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    NornsAccessDenied, NornsBusyDataspace, NornsDataspaceExists,
    NornsDataspaceNotFound, NornsError, NornsJobNotFound,
    NornsNotRegistered,
)
from repro.norns import (
    Controller, Dataspace, FCFSPolicy, FairSharePolicy, IOTask, LocalBackend,
    PriorityPolicy, ShortestJobFirstPolicy, TaskQueue, TaskStatus, TaskType,
    TransferRateTracker, memory_region, posix_path, remote_path,
)
from repro.sim import Simulator
from repro.storage import BlockDevice, Mount, PROFILES
from repro.sim.flows import FlowScheduler
from repro.util import GB
from tests.conftest import job_of_pid


@pytest.fixture
def sim():
    return Simulator()


def make_task(tid=1, ttype=TaskType.COPY, src=None, dst=None, pid=0,
              admin=False, priority=0, size=100):
    src = src if src is not None else memory_region(size)
    dst = dst if dst is not None else posix_path("nvme0://", "/out")
    return IOTask(task_id=tid, task_type=ttype, src=src, dst=dst, pid=pid,
                  admin=admin, priority=priority)


def local_ds(sim, nsid="nvme0://", track=False):
    flows = FlowScheduler(sim)
    mount = Mount(sim, BlockDevice(sim, flows, PROFILES["nvme"], 10 * GB))
    return Dataspace(nsid, LocalBackend(mount), track=track)


class TestResources:
    def test_memory_region_requires_size(self):
        with pytest.raises(NornsError):
            memory_region(0)
        assert memory_region(10).size == 10

    def test_posix_path_requires_nsid_and_path(self):
        with pytest.raises(NornsError):
            posix_path("", "/x")
        with pytest.raises(NornsError):
            posix_path("nvme0://", "")

    def test_remote_path_requires_host(self):
        with pytest.raises(NornsError):
            remote_path("", "nvme0://", "/x")

    def test_path_normalized(self):
        assert posix_path("nvme0://", "a//b/./c").path == "/a/b/c"

    def test_wire_roundtrip(self):
        for res in (memory_region(64),
                    posix_path("lustre://", "/in.dat"),
                    remote_path("node3", "nvme0://", "/x")):
            assert res == type(res).from_wire(res.to_wire())

    def test_str_forms(self):
        assert "mem[64B]" in str(memory_region(64))
        assert str(posix_path("nvme0://", "/a")) == "nvme0://a"
        assert str(remote_path("n1", "nvme0://", "/a")).startswith("n1:")


class TestTaskLifecycle:
    def test_copy_requires_both_endpoints(self):
        with pytest.raises(NornsError):
            IOTask(task_id=1, task_type=TaskType.COPY,
                   src=memory_region(1), dst=None)

    def test_remove_requires_target(self):
        with pytest.raises(NornsError):
            IOTask(task_id=1, task_type=TaskType.REMOVE, src=None, dst=None)

    def test_lifecycle_timestamps(self, sim):
        t = make_task()
        t.done = sim.event()
        t.mark_queued(1.0)
        t.mark_running(2.0)
        t.mark_finished(5.0, 100)
        assert t.wait_time == 1.0 and t.elapsed == 3.0
        assert t.stats.status is TaskStatus.FINISHED
        sim.run()
        assert t.done.processed

    def test_error_fires_done_event_successfully(self, sim):
        # norns_wait returns; the *stats* carry the failure.
        t = make_task()
        t.done = sim.event()
        t.mark_queued(0)
        t.mark_running(0)
        t.mark_error(1.0, 5, "boom")
        sim.run()
        assert t.done.ok
        assert t.stats.status is TaskStatus.ERROR
        assert t.stats.is_terminal


class TestTaskQueue:
    def drain(self, sim, q, n):
        got = []

        def consumer():
            for _ in range(n):
                task = yield q.pop()
                got.append(task.task_id)

        sim.run(sim.process(consumer()))
        return got

    def test_fcfs_order(self, sim):
        q = TaskQueue(sim, FCFSPolicy())
        for i in (1, 2, 3):
            q.push(make_task(tid=i, size=1000 - i))
        assert self.drain(sim, q, 3) == [1, 2, 3]

    def test_priority_policy_admin_first(self, sim):
        q = TaskQueue(sim, PriorityPolicy())
        q.push(make_task(tid=1, priority=0))
        q.push(make_task(tid=2, priority=5, admin=True))
        q.push(make_task(tid=3, priority=-1))
        assert self.drain(sim, q, 3) == [2, 3, 1]

    def test_sjf_policy(self, sim):
        q = TaskQueue(sim, ShortestJobFirstPolicy())
        q.push(make_task(tid=1, size=300))
        q.push(make_task(tid=2, size=10))
        q.push(make_task(tid=3, size=200))
        assert self.drain(sim, q, 3) == [2, 3, 1]

    def test_fair_share_rotates_jobs(self, sim):
        q = TaskQueue(sim, FairSharePolicy())
        tasks = []
        for i in range(4):
            t = make_task(tid=10 + i, size=100)
            t.job_id = 1
            tasks.append(t)
        hungry = make_task(tid=99, size=100)
        hungry.job_id = 2
        for t in tasks[:2]:
            q.push(t)
        q.push(hungry)
        for t in tasks[2:]:
            q.push(t)
        order = self.drain(sim, q, 5)
        # job 2's single task must not wait behind all of job 1's.
        assert order.index(99) <= 2

    def test_pending_bytes(self, sim):
        q = TaskQueue(sim)
        q.push(make_task(tid=1, size=100))
        q.push(make_task(tid=2, size=250))
        assert q.pending_bytes() == 350

    def test_counters(self, sim):
        q = TaskQueue(sim)
        q.push(make_task(tid=1))
        assert q.enqueued == 1 and q.dispatched == 0
        self.drain(sim, q, 1)
        assert q.dispatched == 1


class TestEta:
    def test_default_rate_used_before_observations(self):
        tr = TransferRateTracker(default_rate=100.0)
        assert tr.eta(("shared", "local"), 500.0) == pytest.approx(5.0)

    def test_observation_updates_rate(self):
        tr = TransferRateTracker(default_rate=100.0, alpha=1.0)
        tr.observe(("shared", "local"), 1000.0, 2.0)  # 500 B/s
        assert tr.rate(("shared", "local")) == pytest.approx(500.0)
        # Other routes unaffected.
        assert tr.rate(("local", "remote")) == 100.0

    def test_ewma_blends(self):
        tr = TransferRateTracker(default_rate=100.0, alpha=0.5)
        tr.observe(("a", "b"), 100.0, 1.0)   # first obs: rate = 100
        tr.observe(("a", "b"), 300.0, 1.0)   # 0.5*300 + 0.5*100 = 200
        assert tr.rate(("a", "b")) == pytest.approx(200.0)

    def test_queued_bytes_extend_eta(self):
        tr = TransferRateTracker(default_rate=10.0)
        assert tr.eta(("a", "b"), 10.0, queued_bytes_ahead=90.0) == \
            pytest.approx(10.0)

    def test_zero_duration_ignored(self):
        tr = TransferRateTracker(default_rate=10.0)
        tr.observe(("a", "b"), 100.0, 0.0)
        assert tr.observations(("a", "b")) == 0

    def test_validation(self):
        with pytest.raises(NornsError):
            TransferRateTracker(default_rate=0)
        with pytest.raises(NornsError):
            TransferRateTracker(alpha=0)

    @given(st.lists(st.tuples(
        st.floats(min_value=1, max_value=1e9),
        st.floats(min_value=1e-3, max_value=1e3)), min_size=1, max_size=20))
    def test_rate_stays_within_observed_envelope(self, samples):
        # EWMA invariant: estimate lies within [min, max] of samples
        # (up to float rounding, hence the relative tolerance).
        tr = TransferRateTracker(default_rate=1.0, alpha=0.3)
        rates = [b / s for b, s in samples]
        for b, s in samples:
            tr.observe(("x", "y"), b, s)
        lo, hi = min(rates), max(rates)
        assert lo * (1 - 1e-9) <= tr.rate(("x", "y")) <= hi * (1 + 1e-9)


class TestController:
    def test_dataspace_register_resolve_unregister(self, sim):
        c = Controller()
        ds = local_ds(sim)
        c.register_dataspace(ds)
        assert c.resolve("nvme0://") is ds
        with pytest.raises(NornsDataspaceExists):
            c.register_dataspace(ds)
        c.unregister_dataspace("nvme0://")
        with pytest.raises(NornsDataspaceNotFound):
            c.resolve("nvme0://")

    def test_unregister_blocked_by_inflight(self, sim):
        c = Controller()
        c.register_dataspace(local_ds(sim))
        task = make_task(dst=posix_path("nvme0://", "/x"))
        c.task_started(task)
        with pytest.raises(NornsBusyDataspace):
            c.unregister_dataspace("nvme0://")
        c.task_ended(task, 0)
        c.unregister_dataspace("nvme0://")

    def test_tracked_dataspace_blocks_unregister_when_nonempty(self, sim):
        c = Controller()
        ds = local_ds(sim, track=True)
        c.register_dataspace(ds)
        sim.run(ds.backend.mount.write_file("/left-behind", 10))
        with pytest.raises(NornsBusyDataspace):
            c.unregister_dataspace("nvme0://")
        assert c.tracked_nonempty() == ["nvme0://"]
        ds.backend.mount.delete("/left-behind")
        c.unregister_dataspace("nvme0://")

    def test_force_unregister_overrides(self, sim):
        c = Controller()
        ds = local_ds(sim, track=True)
        c.register_dataspace(ds)
        sim.run(ds.backend.mount.write_file("/x", 1))
        c.unregister_dataspace("nvme0://", force=True)

    def test_job_process_registry(self):
        c = Controller()
        c.register_job(7, hosts=("node0",), nsids=("nvme0://",))
        c.add_process(7, pid=100, uid=1000, gid=100)
        assert job_of_pid(c, 100) == 7
        c.remove_process(7, 100)
        assert job_of_pid(c, 100) is None
        c.unregister_job(7)
        with pytest.raises(NornsJobNotFound):
            c.job(7)

    def test_unregister_job_drops_processes(self):
        c = Controller()
        c.register_job(7, hosts=(), nsids=())
        c.add_process(7, 100, 0, 0)
        c.unregister_job(7)
        assert job_of_pid(c, 100) is None

    def test_validate_rejects_unregistered_pid(self, sim):
        c = Controller()
        c.register_dataspace(local_ds(sim))
        t = make_task(pid=999)
        with pytest.raises(NornsNotRegistered):
            c.validate_task(t)

    def test_validate_rejects_unknown_dataspace(self):
        c = Controller()
        t = make_task(pid=0, admin=True)
        with pytest.raises(NornsDataspaceNotFound):
            c.validate_task(t)

    def test_validate_rejects_disallowed_dataspace(self, sim):
        c = Controller()
        c.register_dataspace(local_ds(sim, "nvme0://"))
        c.register_dataspace(local_ds(sim, "secret://"))
        c.register_job(1, hosts=(), nsids=("nvme0://",))
        c.add_process(1, pid=50, uid=1, gid=1)
        ok = make_task(pid=50, dst=posix_path("nvme0://", "/x"))
        c.validate_task(ok)
        assert ok.job_id == 1
        bad = make_task(pid=50, dst=posix_path("secret://", "/x"))
        with pytest.raises(NornsAccessDenied):
            c.validate_task(bad)

    def test_admin_task_bypasses_job_checks(self, sim):
        c = Controller()
        c.register_dataspace(local_ds(sim))
        t = make_task(pid=0, admin=True)
        c.validate_task(t)  # no exception

    def test_accounting(self, sim):
        c = Controller()
        c.register_dataspace(local_ds(sim))
        c.register_job(3, hosts=(), nsids=("nvme0://",))
        c.add_process(3, 10, 0, 0)
        t = make_task(pid=10)
        c.validate_task(t)
        c.task_started(t)
        assert c.inflight("nvme0://") == 1
        c.task_ended(t, 12345)
        assert c.inflight("nvme0://") == 0
        assert c.job(3).bytes_accounted == 12345

    def test_visible_dataspaces(self, sim):
        c = Controller()
        c.register_dataspace(local_ds(sim, "nvme0://"))
        c.register_dataspace(local_ds(sim, "tmp0://"))
        c.register_job(1, hosts=(), nsids=("tmp0://",))
        c.add_process(1, 20, 0, 0)
        assert [d.nsid for d in c.visible_dataspaces(20)] == ["tmp0://"]
        with pytest.raises(NornsNotRegistered):
            c.visible_dataspaces(999)
