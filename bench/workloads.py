"""The five benchmark workloads.

Each workload is three plain functions over one state object:

* ``prepare(seed, scale, workdir)`` — everything a user pays before the
  run call: trace synthesis and the JSONL round trip, fault plan,
  ``cluster.build``, client registration.  Timed as part of ``setup_s``.
* ``run(state)`` — the timed interval (``wall_s`` / ``cpu_s``).
* ``outcome(state)`` — ops attempted/failed, the ``sim_digest`` and the
  exact work counters, all read through public attributes after the run.

Inputs come from ``seed`` alone; ``scale`` shrinks the op count for the
smoke tests (1.0 is the benchmark size the checked-in digests are for).
Why each workload exists is recorded in ``WORKLOADS[...].why`` and, with
measured layer shares, in ``bench/README.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.cluster import build, nextgenio, replay_scale
from repro.errors import ReproError
from repro.faults import fault_profile
from repro.net.sockets import Credentials
from repro.norns import NornsClient, TaskType
from repro.norns.resources import memory_region, posix_path
from repro.norns.urd import GID_NORNS_USER
from repro.obs.collect import collect_cluster
from repro.obs.metrics import MetricsRegistry
from repro.sim.primitives import all_of
from repro.traces import (
    ReplayConfig, SynthesisConfig, Trace, TraceReplayer, dump_jsonl,
    load_jsonl, synthesize,
)
from repro.util.units import GB, MB, MiB
from repro.wire import make_frame, open_frame
from repro.wire import norns_proto as proto

__all__ = ["Outcome", "Workload", "WORKLOADS", "stratified_trace"]


@dataclass
class Outcome:
    """What one repeat did, as far as correctness is concerned."""

    attempted: int
    failed: int
    #: what the simulation produced, free of wall-clock content; its
    #: sha256 is the ``sim_digest`` (the text is kept for a mismatch).
    digest_text: str
    #: exact per-layer work counters, ``layer.counter`` -> number.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def sim_digest(self) -> str:
        return hashlib.sha256(self.digest_text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    #: what one operation is, with its size.
    op: str
    #: one line: why this workload is in the benchmark.
    why: str
    prepare: Callable[[int, float, str], object]
    run: Callable[[object], None]
    outcome: Callable[[object], Outcome]


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


# ---------------------------------------------------------------------------
# Work counters shared by every workload (read from the obs registry,
# which folds the public per-subsystem counters under canonical names)
# ---------------------------------------------------------------------------

#: benchmark counter -> the obs registry instrument it is read from.
_REGISTRY_SOURCES = {
    "sim.core.events": "kernel.events",
    "sim.core.defunct_skips": "kernel.defunct_skips",
    "sim.core.pending_at_end": "kernel.pending",
    "sim.flows.allocs": "flow.allocs",
    "sim.flows.slots_touched": "flow.slots_touched",
    "sim.flows.completed": "flow.completed",
    "sim.flows.bytes_moved": "flow.bytes_moved",
    "slurm.sched_passes": "sched.passes",
    "slurm.sched_decisions": "sched.decisions",
    "norns.requests_served": "urd.requests_served",
    "norns.tasks_completed": "urd.tasks_completed",
    "norns.tasks_failed": "urd.tasks_failed",
    "norns.tasks_retried": "urd.tasks_retried",
    "norns.tasks_lost": "urd.tasks_lost",
    "net.rpcs_served": "rpc.served",
    "net.duplicates_suppressed": "rpc.duplicates_suppressed",
    "resilience.calls": "resilience.calls",
    "resilience.retries": "resilience.retries",
    "resilience.heartbeat_probes": "resilience.heartbeat_probes",
    "resilience.heartbeat_misses": "resilience.heartbeat_misses",
    "resilience.breaker_fastfail": "resilience.breaker_fastfail",
    "resilience.requests_shed": "resilience.requests_shed",
    "faults.bytes_lost": "urd.bytes_lost",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cluster_counters(*handles) -> Dict[str, float]:
    """Exact work counters of the layers below the trace driver, summed
    over node labels and over the clusters a workload built."""
    sums: Dict[str, float] = {}
    for handle in handles:
        # One registry per cluster: kernel counters are gauges, which a
        # second collect into the same registry would overwrite.
        reg = MetricsRegistry()
        collect_cluster(reg, handle)
        for inst in reg:
            if inst.kind in ("counter", "gauge"):
                sums[inst.name] = sums.get(inst.name, 0) + inst.value
    out = {name: sums.get(source, 0)
           for name, source in _REGISTRY_SOURCES.items()}
    out["sim.flows.slots_per_alloc"] = _ratio(
        out["sim.flows.slots_touched"], out["sim.flows.allocs"])
    out["slurm.decisions_per_pass"] = _ratio(
        out["slurm.sched_decisions"], out["slurm.sched_passes"])
    return out


#: counters only a trace replay produces; zero on the direct workloads.
_REPLAY_ONLY = {
    "slurm.jobs_requeued": 0, "faults.injected": 0,
    "workflows.epochs_marked": 0, "workflows.epochs_resumed": 0,
    "storage.bytes_staged": 0, "traces.jobs": 0,
    "traces.makespan_sim_s": 0.0, "traces.wait_median_sim_s": 0.0,
    "traces.node_utilization": 0.0,
}


# ---------------------------------------------------------------------------
# Replay workloads: trace -> slurmctld -> policy -> staging -> urd -> report
# ---------------------------------------------------------------------------

#: the ROADMAP ledger trace shape (as benchmarks/test_trace_replay.py).
_LEDGER_SHAPE = SynthesisConfig(
    arrival="poisson", mean_interarrival=14.0, max_nodes=16,
    mean_runtime=240.0, staged_fraction=0.25, stage_bytes_mean=2 * GB,
    stage_files=4)


@dataclass(frozen=True)
class ReplaySpec:
    n_jobs: int
    synth: SynthesisConfig
    config: ReplayConfig
    #: fault profile armed over the trace's duration ("" = no plan).
    fault_profile: str = ""


@dataclass
class ReplayState:
    replayer: TraceReplayer
    report: Optional[object] = None

    @property
    def n_jobs(self) -> int:
        return self.replayer.trace.n_jobs


def stratified_trace(shape: SynthesisConfig, n_jobs: int, seed: int,
                     name: str) -> Trace:
    """A seed-drawn trace whose size does not depend on the seed.

    ``synthesize`` draws the staged/plain mix per submission unit and
    the arrival span as a sum of exponential gaps, so two seeds of one
    2000-job shape differ by ~6% in staged jobs and ~3-6% in duration
    — which reads as a 5-8% difference in host time that no code change
    caused.  Here the staged workflows and the plain jobs are two
    ``synthesize`` streams of fixed job counts (``staged_fraction`` of
    the jobs, exactly), each stretched so its last unit arrives at
    ``units x mean_interarrival``.  The seed still picks every arrival
    instant, size, run time and data volume.
    """
    per_wf = shape.jobs_per_workflow
    n_staged = int(round(n_jobs * shape.staged_fraction / per_wf)) * per_wf
    if shape.staged_fraction > 0:
        n_staged = max(per_wf, n_staged)     # tiny smoke traces keep one
    n_plain = n_jobs - n_staged
    span = shape.mean_interarrival * (n_plain + n_staged // per_wf)
    jobs = []
    # Staged stream first: its dependency ids then need no renumbering.
    for n, fraction, stream in ((n_staged, 1.0, 0), (n_plain, 0.0, 1)):
        if n == 0:
            continue
        part = synthesize(
            dataclasses.replace(shape, n_jobs=n, staged_fraction=fraction),
            seed=2 * seed + stream)
        stretch = span / max(j.submit_time for j in part.jobs
                             if not j.dependencies)
        first_id = len(jobs)
        jobs.extend(dataclasses.replace(
            j, job_id=j.job_id + first_id,
            submit_time=round(j.submit_time * stretch, 3))
            for j in part.jobs)
    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    return Trace(name=name, jobs=tuple(jobs)).normalized()


def _replay_prepare(spec: ReplaySpec, name: str):
    def prepare(seed: int, scale: float, workdir: str) -> ReplayState:
        n_jobs = _scaled(spec.n_jobs, scale,
                         floor=spec.synth.jobs_per_workflow)
        trace = stratified_trace(spec.synth, n_jobs, seed, name)
        # Users load traces from files: the round trip is set-up cost.
        path = os.path.join(workdir, f"{name}-{seed}-{os.getpid()}.jsonl")
        dump_jsonl(trace, path)
        try:
            trace = load_jsonl(path, name=name)
        finally:
            os.unlink(path)
        handle = build(replay_scale(n_nodes=64), seed=seed)
        config = spec.config
        if spec.fault_profile:
            plan = fault_profile(spec.fault_profile,
                                 horizon=max(600.0, trace.duration),
                                 nodes=handle.node_names, seed=seed)
            config = dataclasses.replace(config, fault_plan=plan)
        return ReplayState(TraceReplayer(handle, trace, config))
    return prepare


def _replay_run(state: ReplayState) -> None:
    state.report = state.replayer.run()


def _replay_outcome(state: ReplayState) -> Outcome:
    report = state.report
    text = report.to_text()
    counters = cluster_counters(state.replayer.handle)
    store = report.checkpoints
    wait = report.wait_summary
    counters.update({
        "slurm.jobs_requeued": sum(
            r.requeues
            for r in state.replayer.handle.ctld.accounting.records()),
        "faults.injected": (report.resilience.faults_injected
                            if report.resilience is not None else 0),
        "workflows.epochs_marked": (store.epochs_marked
                                    if store is not None else 0),
        "workflows.epochs_resumed": (store.epochs_resumed
                                     if store is not None else 0),
        "storage.bytes_staged": report.bytes_staged,
        "traces.jobs": report.n_jobs,
        "traces.makespan_sim_s": report.makespan,
        "traces.wait_median_sim_s": (wait.median
                                     if wait is not None else 0.0),
        "traces.node_utilization": report.node_utilization,
    })
    # A job that is not in the report at all was stranded.
    return Outcome(attempted=state.n_jobs,
                   failed=state.n_jobs - report.completed,
                   digest_text=text, counters=counters)


def _replay_workload(name: str, op: str, why: str,
                     spec: ReplaySpec) -> Workload:
    return Workload(name, op, why, _replay_prepare(spec, name),
                    _replay_run, _replay_outcome)


# ---------------------------------------------------------------------------
# Direct workloads: no Slurm, clients drive urd / Mercury themselves
# ---------------------------------------------------------------------------

def _direct_outcome(handles, sim_times, attempted: int, completed: int,
                    bytes_moved: float) -> Outcome:
    text = "\n".join(["%.9g" % t for t in sim_times]
                     + [f"ops={completed}", "bytes=%.9g" % bytes_moved]) \
        + "\n"
    counters = cluster_counters(*handles)
    counters.update(_REPLAY_ONLY)
    return Outcome(attempted=attempted, failed=attempted - completed,
                   digest_text=text, counters=counters)


# -- rpc_storm ---------------------------------------------------------------

_USER = Credentials(uid=1000, gid=100, groups=frozenset({GID_NORNS_USER}))
_STORM_JOB = 91_000
#: (clients, polls per client) of phase A (AF_UNIX) and phase B (Mercury).
_STORM_LOCAL = (4, 30_000)
_STORM_REMOTE = (8, 10_000)


@dataclass
class StormState:
    local: object                 # ClusterHandle, phase A
    remote: object                # ClusterHandle, phase B
    local_polls: int
    remote_polls: int
    #: per-client start stagger in simulated seconds (from the seed).
    local_stagger: list
    remote_stagger: list
    ok: int = 0
    sim_times: list = field(default_factory=list)


def _storm_prepare(seed: int, scale: float, workdir: str) -> StormState:
    rng = np.random.default_rng(seed)
    n_local, n_remote = _STORM_LOCAL[0], _STORM_REMOTE[0]
    local = build(nextgenio(n_nodes=1, workers=8), seed=seed)
    node = local.nodes[local.node_names[0]]

    def register():
        ctl = node.slurmd.ctl()
        yield from ctl.register_job(
            _STORM_JOB, ctl.job_init([node.name], ["tmp0://"]))
        for p in range(n_local):
            yield from ctl.add_process(_STORM_JOB, 50_000 + p, 1000, 100)
        ctl.close()

    local.run(register())
    remote = build(nextgenio(n_nodes=1 + n_remote, workers=8), seed=seed)
    return StormState(
        local=local, remote=remote,
        local_polls=_scaled(_STORM_LOCAL[1], scale),
        remote_polls=_scaled(_STORM_REMOTE[1], scale),
        local_stagger=[float(x) for x in rng.uniform(0, 1e-3, n_local)],
        remote_stagger=[float(x) for x in rng.uniform(0, 1e-3, n_remote)])


def _storm_run(state: StormState) -> None:
    reg = proto.NORNS_PROTOCOL

    # Phase A: fig4 path — status polls over the user AF_UNIX socket.
    sim = state.local.sim
    node = state.local.nodes[state.local.node_names[0]]

    def local_client(idx: int):
        pid = 50_000 + idx
        yield sim.timeout(state.local_stagger[idx])
        cli = NornsClient(sim, node.hub, _USER, pid=pid,
                          socket_path=node.urd.config.user_socket)
        task = cli.iotask_init(
            TaskType.COPY, memory_region(1 << 20),
            posix_path("tmp0://", f"/scratch/storm/proc{pid}/staged.dat"))
        try:
            yield from cli.submit(task)
            state.ok += 1
            for _ in range(state.local_polls):
                yield from cli.error(task)
                state.ok += 1
        except ReproError:
            pass          # every request not counted in ``ok`` failed
        cli.close()

    sim.run(all_of(sim, [sim.process(local_client(i))
                         for i in range(len(state.local_stagger))]))
    state.sim_times.append(sim.now)

    # Phase B: fig5 path — the same polls through Mercury norns.submit.
    sim = state.remote.sim
    target = state.remote.node_names[0]

    def remote_client(name: str, idx: int):
        yield sim.timeout(state.remote_stagger[idx])
        ep = state.remote.network.endpoint(name)
        submit = proto.IotaskSubmitRequest(
            task_type=proto.IOTASK_COPY,
            input=proto.ResourceDesc(kind=proto.KIND_MEMORY, size=1),
            output=proto.ResourceDesc(
                kind=proto.KIND_POSIX_PATH, nsid="tmp0://",
                path=f"/bench/storm/{idx}.dat"),
            pid=0, admin=True)
        try:
            raw = yield ep.call(target, "norns.submit",
                                make_frame(reg, submit))
            resp = open_frame(reg, raw)
            if resp.error_code != proto.ERR_SUCCESS:
                return
            state.ok += 1
            for _ in range(state.remote_polls):
                poll = proto.IotaskStatusRequest(task_id=resp.task_id, pid=0)
                raw = yield ep.call(target, "norns.submit",
                                    make_frame(reg, poll))
                if open_frame(reg, raw).error_code == proto.ERR_SUCCESS:
                    state.ok += 1
        except ReproError:
            pass

    sim.run(all_of(sim, [
        sim.process(remote_client(name, i))
        for i, name in enumerate(state.remote.node_names[1:])]))
    state.sim_times.append(sim.now)


def _storm_outcome(state: StormState) -> Outcome:
    attempted = (len(state.local_stagger) * (state.local_polls + 1)
                 + len(state.remote_stagger) * (state.remote_polls + 1))
    return _direct_outcome((state.local, state.remote), state.sim_times,
                           attempted, state.ok, 0.0)


# -- transfer_mesh -----------------------------------------------------------

_MESH_NODES = 32
_MESH_STREAMS = 8            # in flight per node
_MESH_TRANSFERS = 14         # per stream
_MESH_BYTES = 16 * MiB
_MESH_RING = 4               # streams target the next 4 nodes


@dataclass
class MeshState:
    handle: object
    transfers: int
    #: per (node, stream): ring offset of the peer and start stagger.
    offsets: np.ndarray
    stagger: np.ndarray
    done: int = 0


def _mesh_prepare(seed: int, scale: float, workdir: str) -> MeshState:
    rng = np.random.default_rng(seed)
    handle = build(nextgenio(n_nodes=_MESH_NODES), seed=seed)
    shape = (_MESH_NODES, _MESH_STREAMS)
    # Each node's streams cover the 4 ring neighbours twice (one push,
    # one pull each); the seed picks which stream gets which neighbour.
    offsets = np.stack([
        1 + rng.permutation(np.arange(_MESH_STREAMS) // 2 % _MESH_RING)
        for _ in range(_MESH_NODES)])
    return MeshState(handle=handle,
                     transfers=_scaled(_MESH_TRANSFERS, scale),
                     offsets=offsets,
                     stagger=rng.uniform(0, 1e-3, shape))


def _mesh_run(state: MeshState) -> None:
    handle = state.handle
    sim = handle.sim
    names = handle.node_names

    def stream(i: int, s: int):
        ep = handle.network.endpoint(names[i])
        peer = names[(i + int(state.offsets[i, s])) % len(names)]
        move = ep.bulk_push if s % 2 == 0 else ep.bulk_pull
        yield sim.timeout(float(state.stagger[i, s]))
        for _ in range(state.transfers):
            yield move(peer, _MESH_BYTES)
            state.done += 1

    sim.run(all_of(sim, [sim.process(stream(i, s))
                         for i in range(len(names))
                         for s in range(_MESH_STREAMS)]))


def _mesh_outcome(state: MeshState) -> Outcome:
    attempted = _MESH_NODES * _MESH_STREAMS * state.transfers
    return _direct_outcome((state.handle,), [state.handle.sim.now],
                           attempted, state.done,
                           state.handle.fabric.flows.bytes_moved)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

#: sched_backlog / replay_chaos clip the run-time and size tails of the
#: ledger shape: one 6-hour straggler at the end of a 450-job trace
#: moves the makespan (and with it heartbeats) by 20% between seeds, and
#: a few 16-node jobs move the backlog's scheduling work by 15% — input
#: noise, not what these two are here to show.
_BACKLOG_SHAPE = dataclasses.replace(
    _LEDGER_SHAPE, staged_fraction=0.0, runtime_sigma=0.6, size_alpha=2.5,
    max_nodes=4)
_CHAOS_SHAPE = dataclasses.replace(
    _LEDGER_SHAPE, chain_length=3, fanout=2, checkpoint_workflows=True,
    runtime_sigma=0.5, max_runtime=600.0)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    _replay_workload(
        "replay_staged", "trace job (2000-job Poisson trace, 25% staged)",
        "whole stack at once on the ROADMAP ledger scenario; flow engine "
        "is the largest single share, every other layer present",
        ReplaySpec(2000, _LEDGER_SHAPE, ReplayConfig(batch_window=30.0))),
    _replay_workload(
        "sched_backlog", "trace job (2300 compute-only jobs, 50x arrivals)",
        "thousands pending under conservative backfill: scheduler-bound, "
        "zero flows, so a flow or wire optimisation must show no change",
        ReplaySpec(
            2300, _BACKLOG_SHAPE,
            ReplayConfig(batch_window=30.0, time_compression=50.0,
                         scheduler="conservative"))),
    _replay_workload(
        "replay_chaos", "trace job (450 jobs, 3-phase fan-out workflows)",
        "only workload where faults, armed resilience (heartbeats, "
        "retries, breakers) and checkpoint/requeue do work; highest RSS",
        ReplaySpec(
            450, _CHAOS_SHAPE,
            ReplayConfig(batch_window=30.0, checkpoint_interval=60.0,
                         checkpoint_bytes=64 * MB),
            fault_profile="chaos")),
    Workload(
        "rpc_storm", "request/response pair (status poll, ~100 B frames)",
        "control plane only (Fig. 4/5 paths): tiny messages at volume "
        "through wire, net, urd and the kernel; no Slurm, no bulk data",
        _storm_prepare, _storm_run, _storm_outcome),
    Workload(
        "transfer_mesh", "16 MiB bulk transfer (256 streams, 32 nodes)",
        "Fig. 6/7 path: reads beside writes in one large coupled flow "
        "component, the opposite flow-graph shape to replay_staged",
        _mesh_prepare, _mesh_run, _mesh_outcome),
)}
