"""Shared fixtures: a small simulated cluster with urd daemons.

Builds the standard two-to-four node test rig used by the NORNS and
Slurm test modules: fabric + Mercury network + per-node NVMe/tmpfs
mounts + shared PFS + one urd per node with dataspaces registered
through the real control API.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, Optional

import pytest

from repro.errors import NoSuchFile
from repro.net import Credentials, Fabric, LocalSocketHub, MercuryNetwork
from repro.norns import (
    LocalBackend, NornsClient, NornsCtlClient, SharedBackend, UrdConfig,
    UrdDaemon, UrdDirectory,
)
from repro.norns.urd import GID_NORNS, GID_NORNS_USER
from repro.sim import Simulator
from repro.storage import (
    BlockDevice, Mount, ParallelFileSystem, PfsConfig, PROFILES,
)
from repro.storage.filesystem import normalize
from repro.util import GB, GiB, TB

@pytest.fixture
def no_collector():
    """Only reference counting may free anything inside the test."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


ROOT = Credentials(uid=0, gid=0)
USER = Credentials(uid=1000, gid=100, groups=frozenset({GID_NORNS_USER}))
OUTSIDER = Credentials(uid=2000, gid=200)


@dataclass
class Node:
    name: str
    hub: LocalSocketHub
    urd: UrdDaemon
    mounts: Dict[str, Mount] = field(default_factory=dict)


@dataclass
class TestCluster:
    sim: Simulator
    fabric: Fabric
    network: MercuryNetwork
    directory: UrdDirectory
    pfs: ParallelFileSystem
    nodes: Dict[str, Node] = field(default_factory=dict)

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def ctl(self, node: str) -> NornsCtlClient:
        return NornsCtlClient(self.sim, self.nodes[node].hub, ROOT)

    def user_client(self, node: str, pid: int) -> NornsClient:
        return NornsClient(self.sim, self.nodes[node].hub, USER, pid=pid)

    def run(self, gen, name: str = "test"):
        """Run a generator as a process to completion."""
        return self.sim.run(self.sim.process(gen, name=name))


def build_cluster(n_nodes: int = 2, nvme_capacity: float = 3 * TB,
                  plugin: str = "ofi+tcp",
                  workers: int = 8) -> TestCluster:
    sim = Simulator()
    fabric = Fabric(sim, core_bandwidth=400 * GB, base_latency=1e-6)
    names = [f"node{i}" for i in range(n_nodes)]
    for name in names:
        fabric.add_node(name, nic_bandwidth=64 * GiB,
                        membus_bandwidth=100 * GB)
    network = MercuryNetwork(sim, fabric, plugin=plugin)
    directory = UrdDirectory()
    pfs = ParallelFileSystem(sim, PfsConfig(), fabric=fabric)
    cluster = TestCluster(sim=sim, fabric=fabric, network=network,
                          directory=directory, pfs=pfs)
    for name in names:
        hub = LocalSocketHub(sim, node=name)
        flows = fabric.flows
        nvme = Mount(sim, BlockDevice(sim, flows, PROFILES["dcpmm"],
                                      nvme_capacity, name=f"{name}:dcpmm"),
                     name=f"{name}:nvme0")
        tmp = Mount(sim, BlockDevice(sim, flows, PROFILES["tmpfs"],
                                     100 * GB, name=f"{name}:tmpfs"),
                    name=f"{name}:tmp0")
        urd = UrdDaemon(sim, UrdConfig(node=name, workers=workers), hub,
                        network=network, directory=directory,
                        membus=fabric.port(name).membus)
        urd.set_mount_table({
            "/mnt/nvme0": LocalBackend(nvme),
            "/mnt/tmp0": LocalBackend(tmp),
            "/lustre": SharedBackend(pfs, name),
        })
        cluster.nodes[name] = Node(name=name, hub=hub, urd=urd,
                                   mounts={"nvme0": nvme, "tmp0": tmp})
    return cluster


def register_standard_dataspaces(cluster: TestCluster, node: str,
                                 track_nvme: bool = False) -> None:
    """Register lustre:// + nvme0:// + tmp0:// on one node via nornsctl."""
    ctl = cluster.ctl(node)

    def setup():
        yield from ctl.register_dataspace(
            "nvme0://", ctl.backend_init("dcpmm", "/mnt/nvme0",
                                         track=track_nvme))
        yield from ctl.register_dataspace(
            "tmp0://", ctl.backend_init("tmpfs", "/mnt/tmp0"))
        yield from ctl.register_dataspace(
            "lustre://", ctl.backend_init("lustre", "/lustre"))
        ctl.close()

    cluster.run(setup(), name=f"setup:{node}")


@pytest.fixture
def cluster2():
    """Two-node cluster with dataspaces registered on both nodes."""
    c = build_cluster(2)
    for name in c.nodes:
        register_standard_dataspaces(c, name)
    return c


def build_slurm_cluster(n_nodes: int = 4, config=None,
                        track_nvme: bool = False):
    """Cluster + slurmds + slurmctld, ready for job submission."""
    from repro.slurm import Slurmctld, Slurmd

    c = build_cluster(n_nodes)
    for name in c.nodes:
        register_standard_dataspaces(c, name, track_nvme=track_nvme)
    slurmds = {
        name: Slurmd(c.sim, name, node.hub, node.urd,
                     membus=c.fabric.port(name).membus)
        for name, node in c.nodes.items()
    }
    ctld = Slurmctld(c.sim, slurmds, config)
    return c, ctld


def stage_in_through_urd_restart():
    """A one-node staged job whose 8 GB stage-in is cut by a 1 s
    ``urd_restart`` on its node under an armed plan; runs it to the end
    and returns ``(handle, job)``.  The stage-in fails, the job is
    requeued onto the same node while its urd is still down (slurmd
    backs off ``ERR_AGAIN``), and the second attempt completes."""
    from repro.cluster import build, small_test
    from repro.faults import FaultPlan, FaultRecord, arm_plan
    from repro.slurm.job import JobSpec, StageDirective

    def program(ctx):
        yield ctx.compute(1.0)

    handle = build(small_test(2), seed=0)
    handle.sim.run(handle.pfs.write(None, "/in/big.dat", 8 * GB,
                                    token="seed"))
    arm_plan(handle, FaultPlan(name="restart", records=(
        FaultRecord(time=0.5, kind="urd_restart", target="cn0",
                    duration=1.0),)))
    job = handle.ctld.submit(JobSpec(
        name="staged", nodes=1, nodelist=("cn0",), program=program,
        stage_in=(StageDirective("stage_in", "lustre://in/",
                                 "nvme0://in/", "single"),)))
    handle.sim.run(job.done)
    return handle, job


# -- views only tests ask for ------------------------------------------------
# Each derives from an object's state a value no code outside the tests
# reads; public state where there is some, else the attribute the
# product keeps (flow engine, resources, namespace and PFS layouts).

def active_flows(constraint) -> int:
    """Flows currently crossing a ``CapacityConstraint``."""
    return len(constraint._flows)


def component_count(fs) -> int:
    """Live contention components of a ``FlowScheduler``."""
    return len(fs._comps)


def resource_in_use(res) -> int:
    """Units of a ``Resource`` currently granted."""
    return res._in_use


def resource_queue_len(res) -> int:
    """Requests of a ``Resource`` still waiting (cancelled ones out)."""
    return len(res._waiters) - res._cancelled


def job_of_pid(controller, pid: int):
    """The job a process is registered under on an urd, or None.

    Reads the pid map that ``validate_task`` and ``visible_dataspaces``
    consult, so a pid the controller forgot to drop shows here.
    """
    return controller._pid_to_job.get(pid)


def total_bytes_staged(accounting) -> int:
    """Bytes staged in plus out over every accounting record."""
    return sum(r.bytes_staged_in + r.bytes_staged_out
               for r in accounting.records())


def dependencies_of(workflow, job_id: int) -> frozenset:
    """Ids of a workflow job's direct prerequisites."""
    return frozenset(j.job_id for j in workflow.producers_of(job_id))


def stripe_osts(pfs, path: str) -> tuple:
    """OST indices a PFS file is striped over (after first access)."""
    layout = pfs._layouts.get(normalize(path))
    if layout is None:
        raise NoSuchFile(f"no layout for {path!r}")
    return layout.osts


def remove_tree(mount, path: str) -> int:
    """Recursive directory removal on a ``Mount``; bytes released."""
    released = mount.ns.rmdir(path, recursive=True)
    mount.device.release(released)
    return released


def listdir(ns, path: str = "/") -> list:
    """Entry names of a ``Namespace`` directory, sorted."""
    return sorted(ns._resolve_dir(path).entries)


def workflow_fraction(trace) -> float:
    """Share of a trace's jobs that belong to a workflow."""
    if not trace.jobs:
        return 0.0
    return sum(1 for j in trace.jobs if j.in_workflow) / len(trace.jobs)


def issuperset(nodeset, items) -> bool:
    """Whether an ``OrderedNodeSet`` holds every one of ``items``."""
    return set(items) <= nodeset.as_set()


def has_artifacts(store, key: str) -> bool:
    """Whether a ``CheckpointStore`` holds anything of a stage."""
    return store.is_complete(key) or store.ns.exists(
        store.epoch_marker(key, 0))


def downstream_of(pipeline, name: str) -> list:
    """Names of every stage (transitively) depending on ``name``."""
    out: set = set()
    changed = True
    while changed:
        changed = False
        for s in pipeline.stages:
            if s.name not in out and any(d == name or d in out
                                         for d in s.deps):
                out.add(s.name)
                changed = True
    return sorted(out)


def dataspace_ids(spec) -> tuple:
    """Dataspace ids a ``ClusterSpec`` registers on every node."""
    ids = [d.dataspace_id for d in spec.nodes.devices]
    if spec.pfs is not None:
        ids.append(spec.pfs_nsid)
    return tuple(ids)
