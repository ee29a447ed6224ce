"""What a run leaves for the cyclic collector: nothing.

A discrete-event simulation creates processes, connections and flows by
the million; each one that ends as a reference cycle waits for a
collector pass, which costs host time (the pass) and peak memory (the
garbage parked between passes).  These tests run whole scenarios with
the collector switched off and then count what only it could free.

No wall-clock assertions: the census is an exact object count.
"""

import gc
from collections import Counter

import numpy as np

from repro.cluster import build, nextgenio, small_test
from repro.faults import fault_profile
from repro.net.sockets import Credentials
from repro.norns import NornsClient, TaskType
from repro.norns.resources import memory_region, posix_path
from repro.norns.urd import GID_NORNS_USER
from repro.sim.primitives import all_of
from repro.traces import ReplayConfig, SynthesisConfig, TraceReplayer, synthesize
from repro.util.units import GB, MB, MiB
from repro.wire import make_frame, open_frame
from repro.wire import norns_proto as proto

USER = Credentials(uid=1000, gid=100, groups=frozenset({GID_NORNS_USER}))
JOB = 91_000


def census(run) -> Counter:
    """Type census of the objects ``run()`` leaves unreachable.

    Whatever ``run`` needs that is legitimately cyclic *and alive* (the
    cluster) must be built by the caller and outlive this call.
    """
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def staged_trace(n_jobs, seed, **kw):
    return synthesize(SynthesisConfig(
        n_jobs=n_jobs, staged_fraction=0.3, mean_interarrival=10.0,
        mean_runtime=60.0, max_nodes=4, stage_bytes_mean=1 * GB,
        stage_files=2, **kw), seed=seed)


def test_zero_fault_staged_replay_leaves_nothing():
    trace = staged_trace(60, seed=3)
    replayer = TraceReplayer(build(small_test(n_nodes=4), seed=1), trace)
    reports = []
    left = census(lambda: reports.append(replayer.run()))
    assert reports[0].completed == trace.n_jobs
    assert reports[0].staged_jobs > 0
    assert left == Counter()


def test_rpc_burst_leaves_nothing():
    """1000 status polls over AF_UNIX + 1000 through Mercury."""
    handle = build(nextgenio(n_nodes=3, workers=8), seed=0)
    sim = handle.sim
    node = handle.nodes[handle.node_names[0]]
    reg = proto.NORNS_PROTOCOL
    ok = []

    def register():
        ctl = node.slurmd.ctl()
        yield from ctl.register_job(
            JOB, ctl.job_init([node.name], ["tmp0://"]))
        for pid in (50_000, 50_001):
            yield from ctl.add_process(JOB, pid, 1000, 100)
        ctl.close()

    handle.run(register())

    def local_client(pid):
        cli = NornsClient(sim, node.hub, USER, pid=pid,
                          socket_path=node.urd.config.user_socket)
        task = cli.iotask_init(
            TaskType.COPY, memory_region(1 << 20),
            posix_path("tmp0://", f"/scratch/census/{pid}.dat"))
        yield from cli.submit(task)
        for _ in range(500):
            yield from cli.error(task)
            ok.append(pid)
        cli.close()

    def remote_client(name, idx):
        ep = handle.network.endpoint(name)
        submit = proto.IotaskSubmitRequest(
            task_type=proto.IOTASK_COPY,
            input=proto.ResourceDesc(kind=proto.KIND_MEMORY, size=1),
            output=proto.ResourceDesc(
                kind=proto.KIND_POSIX_PATH, nsid="tmp0://",
                path=f"/census/{idx}.dat"),
            pid=0, admin=True)
        raw = yield ep.call(node.name, "norns.submit",
                            make_frame(reg, submit))
        task_id = open_frame(reg, raw).task_id
        for _ in range(500):
            poll = proto.IotaskStatusRequest(task_id=task_id, pid=0)
            raw = yield ep.call(node.name, "norns.submit",
                                make_frame(reg, poll))
            if open_frame(reg, raw).error_code == proto.ERR_SUCCESS:
                ok.append(name)

    def run():
        procs = [sim.process(local_client(pid)) for pid in (50_000, 50_001)]
        procs += [sim.process(remote_client(name, i))
                  for i, name in enumerate(handle.node_names[1:])]
        sim.run(all_of(sim, procs))

    left = census(run)
    assert len(ok) == 2000
    assert left == Counter()


def test_bulk_mesh_leaves_nothing():
    """Pushes beside pulls around a 6-node ring, 4 streams per node."""
    handle = build(nextgenio(n_nodes=6), seed=0)
    sim = handle.sim
    names = handle.node_names
    stagger = np.random.default_rng(0).uniform(0, 1e-3, (len(names), 4))
    done = []

    def stream(i, s):
        ep = handle.network.endpoint(names[i])
        peer = names[(i + 1 + s // 2) % len(names)]
        move = ep.bulk_push if s % 2 == 0 else ep.bulk_pull
        yield sim.timeout(float(stagger[i, s]))
        for _ in range(5):
            yield move(peer, 16 * MiB)
            done.append(i)

    left = census(lambda: sim.run(all_of(sim, [
        sim.process(stream(i, s))
        for i in range(len(names)) for s in range(4)])))
    assert len(done) == len(names) * 4 * 5
    assert left == Counter()


def test_armed_chaos_replay_leaves_only_caught_tracebacks():
    """Faults, heartbeats, retries, checkpoint/requeue — still no
    process, connection or flow for the collector.

    What does remain is pinned: every probe that timed out leaves its
    ``RpcTimeout`` in a cycle with the traceback of the retry loop that
    caught it (frame -> ``last_exc`` -> exception -> traceback), and the
    reply event of the dropped request keeps its timeout guard.
    """
    trace = staged_trace(40, seed=5, chain_length=3, fanout=2,
                         checkpoint_workflows=True, max_runtime=300.0)
    handle = build(small_test(n_nodes=8), seed=5)
    plan = fault_profile("chaos", horizon=max(600.0, trace.duration),
                         nodes=handle.node_names, seed=5)
    replayer = TraceReplayer(handle, trace, ReplayConfig(
        fault_plan=plan, checkpoint_interval=60.0,
        checkpoint_bytes=64 * MB))
    reports = []
    left = census(lambda: reports.append(replayer.run()))
    res = reports[0].resilience
    assert res.faults_injected > 0 and res.heartbeat_misses > 0
    for kind in ("Process", "generator", "Channel", "Store", "Flow"):
        assert left[kind] == 0, left
    assert left["RpcTimeout"] == 16, left
    assert sum(left.values()) == 227, left
