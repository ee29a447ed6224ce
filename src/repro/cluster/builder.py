"""Instantiate a simulated cluster from a :class:`ClusterSpec`.

The builder wires the full stack in dependency order: fabric → Mercury
network → PFS → per-node devices/mounts/urd/slurmd → slurmctld, and
registers every dataspace through the genuine ``nornsctl`` control API
(the same code path slurmd uses at node configuration time).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.net import Credentials, Fabric, LocalSocketHub, MercuryNetwork
from repro.norns import LocalBackend, SharedBackend, UrdConfig, UrdDaemon, UrdDirectory
from repro.norns.api.control import NornsCtlClient
from repro.sim import RngRegistry, Simulator
from repro.slurm import SlurmConfig, Slurmctld, Slurmd
from repro.storage import BlockDevice, Mount, ParallelFileSystem, PROFILES
from repro.cluster.spec import ClusterSpec

__all__ = ["NodeHandle", "ClusterHandle", "build"]

_ROOT = Credentials(uid=0, gid=0)


@dataclass
class NodeHandle:
    """Everything attached to one compute node."""

    name: str
    hub: LocalSocketHub
    urd: UrdDaemon
    slurmd: Slurmd
    mounts: Dict[str, Mount] = field(default_factory=dict)  # by device name

    def mount(self, device_name: str) -> Mount:
        return self.mounts[device_name]


@dataclass
class ClusterHandle:
    """The assembled machine."""

    spec: ClusterSpec
    sim: Simulator
    fabric: Fabric
    network: MercuryNetwork
    directory: UrdDirectory
    rng: RngRegistry
    pfs: Optional[ParallelFileSystem]
    ctld: Slurmctld
    nodes: Dict[str, NodeHandle] = field(default_factory=dict)

    @property
    def node_names(self) -> list[str]:
        return sorted(self.nodes)

    def node(self, name: str) -> NodeHandle:
        return self.nodes[name]

    def run(self, gen, name: str = "driver"):
        """Run a generator as a process to completion (helper)."""
        return self.sim.run(self.sim.process(gen, name=name))

    def enable_tracing(self, categories=None):
        """Attach a span tracer (``repro.obs``) to this cluster's sim.

        Per-instance, never global, so fleet runs stay pure functions
        of their RunSpecs.  Returns the tracer (also at
        ``handle.sim.tracer``).
        """
        from repro.obs.trace import attach_tracer
        return attach_tracer(self.sim, categories=categories)


def build(spec: ClusterSpec, seed: int = 0,
          slurm_config: Optional[SlurmConfig] = None) -> ClusterHandle:
    """Build the cluster described by ``spec``.

    The controller runs ``slurm_config`` (default: :class:`SlurmConfig`,
    whose policy is the registry default); a command that takes a
    policy by name applies it with :meth:`Slurmctld.set_policy`.
    """
    sim = Simulator()
    rng = RngRegistry(seed)
    fabric = Fabric(sim, core_bandwidth=spec.fabric_core_bandwidth,
                    base_latency=spec.fabric_base_latency)
    names = spec.nodes.node_names()
    for name in names:
        fabric.add_node(name, nic_bandwidth=spec.nodes.nic_bandwidth,
                        membus_bandwidth=spec.nodes.membus_bandwidth)
    network = MercuryNetwork(sim, fabric, plugin=spec.na_plugin)
    directory = UrdDirectory()
    pfs = None
    if spec.pfs is not None:
        pfs = ParallelFileSystem(sim, spec.pfs, fabric=fabric)

    handle = ClusterHandle(spec=spec, sim=sim, fabric=fabric,
                           network=network, directory=directory, rng=rng,
                           pfs=pfs, ctld=None)  # type: ignore[arg-type]

    slurmds: Dict[str, Slurmd] = {}
    step_pids = itertools.count(10_000)
    for name in names:
        hub = LocalSocketHub(sim, node=name)
        mounts: Dict[str, Mount] = {}
        mount_table: Dict[str, object] = {}
        for dev_spec in spec.nodes.devices:
            device = BlockDevice(sim, fabric.flows,
                                 PROFILES[dev_spec.profile],
                                 dev_spec.capacity,
                                 name=f"{name}:{dev_spec.name}")
            mount = Mount(sim, device, name=f"{name}:{dev_spec.name}",
                          page_cache_bytes=spec.nodes.ram,
                          membus=fabric.port(name).membus)
            mounts[dev_spec.name] = mount
            mount_table[dev_spec.mount_path] = LocalBackend(mount)
        if pfs is not None:
            mount_table[spec.pfs_mount] = SharedBackend(pfs, name)
        urd = UrdDaemon(sim, UrdConfig(node=name,
                                       workers=spec.urd_workers),
                        hub, network=network, directory=directory,
                        membus=fabric.port(name).membus)
        urd.set_mount_table(mount_table)
        if spec.resilience:
            urd.enable_resilience(seed=seed)
        slurmd = Slurmd(sim, name, hub, urd,
                        membus=fabric.port(name).membus,
                        pid_alloc=step_pids)
        slurmds[name] = slurmd
        handle.nodes[name] = NodeHandle(name=name, hub=hub, urd=urd,
                                        slurmd=slurmd, mounts=mounts)

    _register_dataspaces(handle)
    handle.ctld = Slurmctld(sim, slurmds, slurm_config)
    return handle


def _register_dataspaces(handle: ClusterHandle) -> None:
    """Register every dataspace on every node via the control API."""
    spec = handle.spec

    def register_node(node: NodeHandle):
        ctl = NornsCtlClient(handle.sim, node.hub, _ROOT)
        for dev_spec in spec.nodes.devices:
            yield from ctl.register_dataspace(
                dev_spec.dataspace_id,
                ctl.backend_init(dev_spec.profile, dev_spec.mount_path,
                                 quota_bytes=int(dev_spec.capacity),
                                 track=dev_spec.track))
        if handle.pfs is not None:
            yield from ctl.register_dataspace(
                spec.pfs_nsid,
                ctl.backend_init("lustre", spec.pfs_mount))
        ctl.close()

    procs = [handle.sim.process(register_node(n), name=f"dsreg:{n.name}")
             for n in handle.nodes.values()]
    for p in procs:
        handle.sim.run(p)
