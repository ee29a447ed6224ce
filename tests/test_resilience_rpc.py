"""RPC resilience layer, end to end on real clusters.

Covers the armed behaviours (idempotent dedup, deadline-guarded bulk
transfers under partitions, admission shedding with client backoff,
the wait-sentinel protocol) *and* the disarmed invariant: enabling the
layer on a zero-fault run changes nothing — same final clock, same
kernel event counts.
"""

import pytest

from repro.errors import (
    NetworkError, NornsBusy, NornsTimeout, PeerUnavailable,
)
from repro.norns import TaskStatus, TaskType
from repro.norns.resources import posix_path, remote_path
from repro.resilience import ResilienceConfig
from repro.util import GB, MB
from repro.wire import make_frame
from repro.wire import norns_proto as proto

from tests.conftest import build_cluster, register_standard_dataspaces


def arm_cluster(c, seed=7, config=None, until=None):
    for node in c.nodes.values():
        node.urd.enable_resilience(config=config, seed=seed)
        node.urd.resilience.arm(until=until)


def admin_copy(cluster, node, task_type, src, dst, timeout=None):
    ctl = cluster.ctl(node)

    def go():
        tsk = ctl.iotask_init(task_type, src, dst)
        yield from ctl.submit(tsk)
        stats = yield from ctl.wait(tsk, timeout=timeout)
        return stats

    return cluster.run(go())


class TestIdempotencyDedup:
    def test_duplicate_keyed_delivery_served_once(self):
        c = build_cluster(2)
        ep0 = c.node("node0").urd.endpoint
        ep1 = c.node("node1").urd.endpoint
        calls = []
        ep1.register("test.echo",
                     lambda payload, origin: (calls.append(payload), b"pong")[1])

        def go():
            a = yield ep0.call("node1", "test.echo", b"x", key="k1")
            b = yield ep0.call("node1", "test.echo", b"x", key="k1")
            return a, b

        a, b = c.run(go())
        assert a == b == b"pong"
        assert len(calls) == 1
        assert ep1.duplicates_suppressed == 1

    def test_duplicate_while_original_in_flight_waits(self):
        c = build_cluster(2)
        ep0 = c.node("node0").urd.endpoint
        ep1 = c.node("node1").urd.endpoint
        calls = []

        def slow(payload, origin):
            calls.append(payload)
            yield c.sim.timeout(1.0)
            return b"slow-pong"

        ep1.register("test.slow", slow)

        def go():
            first = ep0.call("node1", "test.slow", b"x", key="dup")
            yield c.sim.timeout(0.1)  # duplicate lands mid-handler
            second = ep0.call("node1", "test.slow", b"x", key="dup")
            a = yield first
            b = yield second
            return a, b

        a, b = c.run(go())
        assert a == b == b"slow-pong"
        assert len(calls) == 1
        assert ep1.duplicates_suppressed == 1

    def test_distinct_keys_both_served(self):
        c = build_cluster(2)
        ep0 = c.node("node0").urd.endpoint
        ep1 = c.node("node1").urd.endpoint
        calls = []
        ep1.register("test.echo",
                     lambda payload, origin: (calls.append(payload), payload)[1])

        def go():
            a = yield ep0.call("node1", "test.echo", b"1", key="a")
            b = yield ep0.call("node1", "test.echo", b"2", key="b")
            return a, b

        assert c.run(go()) == (b"1", b"2")
        assert len(calls) == 2
        assert ep1.duplicates_suppressed == 0


class TestProbesAreNotDeduplicated:
    """``norns.ping`` is registered idempotent: a urd serves it for as
    long as it lives, so a table entry per served probe is the wrong
    complexity.  Keyed control RPCs are deduplicated exactly as before,
    and the probe's key still seeds its retry jitter."""

    CFG = ResilienceConfig(heartbeat_interval=1.0, heartbeat_timeout=0.5)

    def _ring(self, c, until):
        names = sorted(c.nodes)
        for i, name in enumerate(names):
            urd = c.nodes[name].urd
            urd.enable_resilience(config=self.CFG, seed=5)
            urd.resilience.arm(watch=(names[(i + 1) % len(names)],),
                               until=until)

    @staticmethod
    def _dedup_entries(c):
        return sum(len(n.urd.endpoint._dedup) for n in c.nodes.values())

    def test_ping_only_window_retains_nothing(self):
        c = build_cluster(3)
        self._ring(c, until=10.0)
        c.sim.run()
        probes = sum(n.urd.resilience.counters.heartbeat_probes
                     for n in c.nodes.values())
        assert probes > 30
        assert sum(n.urd.endpoint.rpcs_served
                   for n in c.nodes.values()) == probes
        assert self._dedup_entries(c) == 0

    def test_keyed_control_calls_are_still_recorded(self):
        c = build_cluster(3)
        for name in c.nodes:
            register_standard_dataspaces(c, name)
        self._ring(c, until=10.0)
        c.sim.run(c.node("node0").mounts["nvme0"].write_file("/d", 10 * MB))
        stats = admin_copy(c, "node0", TaskType.COPY,
                           posix_path("nvme0://", "/d"),
                           remote_path("node1", "nvme0://", "/d"))
        assert stats.status is TaskStatus.FINISHED
        c.sim.run()
        counters = [n.urd.resilience.counters for n in c.nodes.values()]
        control = sum(k.calls - k.heartbeat_probes for k in counters)
        assert control == 2                     # push.prepare + push.commit
        assert self._dedup_entries(c) == control
        assert all(key.split(":")[1].startswith("norns.push")
                   for n in c.nodes.values() for key in n.urd.endpoint._dedup)

    def test_duplicated_submit_suppressed_duplicated_ping_served(self):
        c = build_cluster(2)
        ep0 = c.node("node0").urd.endpoint
        urd1 = c.node("node1").urd
        ping = make_frame(proto.NORNS_PROTOCOL,
                          proto.CommandRequest(command="ping"))

        def twice(rpc, payload):
            # a retry whose original was delivered after all
            a = yield ep0.call("node1", rpc, payload, key="node0:dup:1")
            b = yield ep0.call("node1", rpc, payload, key="node0:dup:1")
            return a, b

        c.run(twice("norns.submit", ping))
        assert urd1.requests_served == 1
        assert urd1.endpoint.rpcs_served == 1
        assert urd1.endpoint.duplicates_suppressed == 1
        assert list(urd1.endpoint._dedup) == ["node0:dup:1"]

        c.run(twice("norns.ping", b""))
        assert urd1.endpoint.rpcs_served == 3
        assert urd1.endpoint.duplicates_suppressed == 1
        assert list(urd1.endpoint._dedup) == ["node0:dup:1"]

    def test_probe_retry_delays_unchanged(self):
        """The probe's key is still drawn from the per-node sequence and
        still seeds ``policy.delay``: the pauses before the second
        attempt are bit-identical to the ones measured before probes
        left the table (seed 5, node0 probing a dead node1)."""
        # a threshold no probe reaches: every probe gets both attempts
        cfg = ResilienceConfig(heartbeat_interval=1.0, heartbeat_timeout=0.5,
                               failure_threshold=100)
        c = build_cluster(2)
        urd0 = c.node("node0").urd
        urd0.enable_resilience(config=cfg, seed=5)
        res = urd0.resilience
        attempts = {}

        class Recording:
            def call(_, target, rpc, payload=b"", timeout=None, key=None):
                attempts.setdefault(key, []).append(c.sim.now)
                return urd0.endpoint.call(target, rpc, payload,
                                          timeout=timeout, key=key)

        res.endpoint = Recording()
        c.node("node1").urd.set_down(True)
        res.arm(watch=("node1",), until=0.0)
        c.sim.run()
        keys = [f"node0:norns.ping:{n}" for n in (1, 2, 3)]
        assert list(attempts)[:3] == keys
        pauses = [attempts[k][1] - attempts[k][0] - cfg.heartbeat_timeout
                  for k in keys]
        assert pauses == pytest.approx(
            [0.04747474067844451, 0.047303225757787004,
             0.04742469083284959], abs=1e-9)
        assert pauses == pytest.approx(
            [cfg.probe_retry.delay(5, k, 1) for k in keys], abs=1e-9)
        assert res.counters.retries == res.counters.heartbeat_misses > 3

    def test_guard_label_comes_from_the_registration(self):
        c = build_cluster(2)
        ep0 = c.node("node0").urd.endpoint
        guarded = ep0.call("node1", "norns.ping", b"", timeout=1.0)
        assert guarded.name == "rpc:norns.ping@node1:guarded"
        assert guarded.name is c.node("node1").urd.endpoint \
            ._handlers["norns.ping"][3]
        # an rpc nobody registered still gets a label (and an error)
        stray = ep0.call("node1", "no.such.rpc", b"", timeout=1.0)
        assert stray.name == "rpc:no.such.rpc@node1:guarded"
        assert c.sim.run(guarded) is not None
        with pytest.raises(NetworkError, match="no handler"):
            c.sim.run(stray)


class TestWaitSentinel:
    def test_timeout_zero_polls_instead_of_blocking(self):
        c = build_cluster(2)
        register_standard_dataspaces(c, "node0")
        c.sim.run(c.node("node0").mounts["nvme0"].write_file("/big", 2 * GB))
        t0 = c.sim.now
        with pytest.raises(NornsTimeout):
            admin_copy(c, "node0", TaskType.COPY,
                       posix_path("nvme0://", "/big"),
                       posix_path("tmp0://", "/big"), timeout=0)
        # the poll returned without waiting out the transfer
        assert c.sim.now - t0 < 0.5

    def test_timeout_none_still_waits_forever(self):
        c = build_cluster(2)
        register_standard_dataspaces(c, "node0")
        c.sim.run(c.node("node0").mounts["nvme0"].write_file("/big", 2 * GB))
        stats = admin_copy(c, "node0", TaskType.COPY,
                           posix_path("nvme0://", "/big"),
                           posix_path("tmp0://", "/big"), timeout=None)
        assert stats.status is TaskStatus.FINISHED

    def test_bounded_timeout_still_times_out(self):
        c = build_cluster(2)
        register_standard_dataspaces(c, "node0")
        c.sim.run(c.node("node0").mounts["nvme0"].write_file("/big", 5 * GB))
        with pytest.raises(NornsTimeout):
            admin_copy(c, "node0", TaskType.COPY,
                       posix_path("nvme0://", "/big"),
                       posix_path("tmp0://", "/big"), timeout=1e-3)


class TestDisarmedIsFree:
    def test_zero_fault_run_identical_with_layer_enabled(self):
        def run_once(enable):
            c = build_cluster(2)
            for name in c.nodes:
                register_standard_dataspaces(c, name)
            if enable:
                for node in c.nodes.values():
                    node.urd.enable_resilience(seed=3)
            c.sim.run(c.node("node0").mounts["nvme0"]
                  .write_file("/d", 300 * MB))
            stats = admin_copy(c, "node0", TaskType.COPY,
                               posix_path("nvme0://", "/d"),
                               remote_path("node1", "nvme0://", "/d"))
            assert stats.status is TaskStatus.FINISHED
            return c.sim.now, c.sim.stats()

        assert run_once(False) == run_once(True)


class TestPartitionMidFlight:
    def _partition(self, c, node, at):
        def chaos():
            yield c.sim.timeout(at)
            c.fabric.set_port_bandwidth(node, egress=1.0, ingress=1.0)
        c.sim.process(chaos(), name="partition")

    def test_partitioned_push_fails_fast_instead_of_hanging(self):
        c = build_cluster(2)
        for name in c.nodes:
            register_standard_dataspaces(c, name)
        # tight budget: grace 2s + 1 GB / 1 GB/s = ~3 s deadline
        cfg = ResilienceConfig(bulk_grace=2.0, min_bulk_rate=1e9,
                               call_timeout=0.5)
        arm_cluster(c, config=cfg)
        c.sim.run(c.node("node0").mounts["nvme0"].write_file("/vanish", 1 * GB))
        self._partition(c, "node1", at=0.2)
        t0 = c.sim.now
        stats = admin_copy(c, "node0", TaskType.COPY,
                           posix_path("nvme0://", "/vanish"),
                           remote_path("node1", "nvme0://", "/vanish"))
        # Before this layer existed the replay hung forever here: the
        # bulk flow stalled at the 1 B/s partition floor and the
        # worker waited ~1e9 virtual seconds.
        assert stats.status is TaskStatus.ERROR
        assert stats.error_code == proto.ERR_TASKERROR
        assert c.sim.now - t0 < 60.0
        res = c.node("node0").urd.resilience
        assert res.counters.deadline_expired >= 1

    def test_partitioned_pull_query_opens_breaker(self):
        c = build_cluster(2)
        for name in c.nodes:
            register_standard_dataspaces(c, name)
        cfg = ResilienceConfig(call_timeout=0.2, call_deadline=2.0,
                               failure_threshold=2)
        arm_cluster(c, config=cfg)
        self._partition(c, "node1", at=0.0)

        def tasks():
            ctl = c.ctl("node0")
            out = []
            for i in range(3):
                tsk = ctl.iotask_init(
                    TaskType.COPY,
                    remote_path("node1", "nvme0://", f"/gone{i}"),
                    posix_path("nvme0://", f"/gone{i}"))
                yield from ctl.submit(tsk)
                out.append((yield from ctl.wait(tsk)))
            return out

        results = c.run(tasks())
        assert all(s.status is TaskStatus.ERROR for s in results)
        res = c.node("node0").urd.resilience
        assert res.counters.retries >= 1
        br = res.breakers().get("node1")
        assert br is not None and br.opens >= 1
        # later tasks failed fast on the open breaker
        assert res.counters.breaker_fastfail >= 1


class TestAdmissionShedding:
    def test_down_daemon_sheds_with_err_again(self):
        c = build_cluster(2)
        register_standard_dataspaces(c, "node0")
        urd = c.node("node0").urd
        urd.enable_resilience(seed=1)
        urd.resilience.arm()
        urd.set_down(True)
        ctl = c.ctl("node0")  # no backoff attached: raw NornsBusy

        def go():
            tsk = ctl.iotask_init(TaskType.COPY,
                                  posix_path("nvme0://", "/x"),
                                  posix_path("tmp0://", "/x"))
            yield from ctl.submit(tsk)

        with pytest.raises(NornsBusy):
            c.run(go())
        assert urd.resilience.counters.requests_shed == 1

    def test_client_backoff_rides_out_the_outage(self):
        c = build_cluster(2)
        register_standard_dataspaces(c, "node0")
        c.sim.run(c.node("node0").mounts["nvme0"].write_file("/later", 10 * MB))
        urd = c.node("node0").urd
        urd.enable_resilience(seed=1)
        urd.resilience.arm()
        urd.set_down(True)

        def back_up():
            yield c.sim.timeout(5.0)
            urd.set_down(False)
        c.sim.process(back_up(), name="recovery")

        ctl = c.ctl("node0").attach_backoff(seed=11)

        def go():
            tsk = ctl.iotask_init(TaskType.COPY,
                                  posix_path("nvme0://", "/later"),
                                  posix_path("tmp0://", "/later"))
            yield from ctl.submit(tsk)
            return (yield from ctl.wait(tsk))

        stats = c.run(go())
        assert stats.status is TaskStatus.FINISHED
        assert ctl.busy_retries >= 1
        assert urd.resilience.counters.requests_shed >= 1

    def test_admission_limit_bounds_queue(self):
        c = build_cluster(2, workers=1)
        register_standard_dataspaces(c, "node0")
        urd = c.node("node0").urd
        urd.enable_resilience(
            config=ResilienceConfig(admission_limit=4), seed=1)
        urd.resilience.arm()
        for i in range(8):
            c.sim.run(c.node("node0").mounts["nvme0"]
                  .write_file(f"/f{i}", 200 * MB))
        ctl = c.ctl("node0")

        def flood():
            shed = 0
            for i in range(8):
                tsk = ctl.iotask_init(TaskType.COPY,
                                      posix_path("nvme0://", f"/f{i}"),
                                      posix_path("tmp0://", f"/f{i}"))
                try:
                    yield from ctl.submit(tsk)
                except NornsBusy:
                    shed += 1
            return shed

        shed = c.run(flood())
        assert shed >= 1
        assert urd.resilience.counters.requests_shed == shed


class TestHeartbeatRing:
    def test_ring_detects_crash_and_recovery(self):
        c = build_cluster(3)
        cfg = ResilienceConfig(heartbeat_interval=1.0,
                               heartbeat_timeout=0.5,
                               failure_threshold=2,
                               recovery_timeout=3.0)
        for node in c.nodes.values():
            node.urd.enable_resilience(config=cfg, seed=5)
        # ring: node0 -> node1 -> node2 -> node0, bounded window
        names = sorted(c.nodes)
        for i, name in enumerate(names):
            c.nodes[name].urd.resilience.arm(
                watch=(names[(i + 1) % len(names)],), until=40.0)
        victim = c.node("node1").urd

        def outage():
            yield c.sim.timeout(5.0)
            victim.set_down(True)
            yield c.sim.timeout(15.0)
            victim.set_down(False)
        c.sim.process(outage(), name="outage")
        c.sim.run()  # drains: monitors stand down after the window

        watcher = c.node("node0").urd.resilience
        assert watcher.counters.heartbeat_probes > 5
        assert watcher.counters.heartbeat_misses >= 2
        br = watcher.breakers()["node1"]
        assert br.opens >= 1
        assert br.closes >= 1          # recovery detected
        assert br.state == "closed"

    def test_unreached_peer_fails_fast_via_breaker(self):
        c = build_cluster(2)
        cfg = ResilienceConfig(call_timeout=0.2, failure_threshold=1)
        arm_cluster(c, config=cfg)
        c.node("node1").urd.set_down(True)
        res = c.node("node0").urd.resilience

        def go():
            # first call: the timeout opens the breaker (threshold 1)
            # and the retry loop then fast-fails on it
            with pytest.raises(PeerUnavailable):
                yield from res.call("node1", "norns.ping", b"")
            # second call: rejected outright, no network traffic
            before = res.counters.calls
            with pytest.raises(PeerUnavailable):
                yield from res.call("node1", "norns.ping", b"")
            return res.counters.calls - before

        assert c.run(go()) == 1
        assert res.counters.breaker_fastfail >= 2


class TestChaosReplayDeterminism:
    def _chaos_run(self):
        from repro.experiments.fleet.runspec import RunSpec, execute_run
        # seed/workload chosen so staging submissions overlap the
        # chaos profile's urd-restart window (=> nonzero shed counter)
        spec = RunSpec(
            run_id="chaos-smoke", axes=(("fault_profile", "chaos"),),
            seed=7, preset="small_test", n_nodes=4,
            fault_profile="chaos",
            workload=(("n_jobs", 50), ("arrival", "poisson"),
                      ("mean_interarrival", 4.0), ("max_nodes", 2),
                      ("mean_runtime", 60.0), ("staged_fraction", 0.8),
                      ("stage_bytes_mean", 2e9), ("stage_files", 2)))
        return execute_run(spec)

    def test_chaos_counters_nonzero_and_deterministic(self):
        a = self._chaos_run()
        b = self._chaos_run()
        assert a.metrics == b.metrics
        assert a.report_text == b.report_text
        m = a.metrics
        assert m["heartbeat_misses"] > 0
        assert m["rpc_retries"] > 0
        assert m["breaker_opens"] > 0
        assert m["requests_shed"] > 0
