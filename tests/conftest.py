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
