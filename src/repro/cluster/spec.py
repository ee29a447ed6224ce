"""Cluster specification dataclasses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import SimError
from repro.storage.device import PROFILES
from repro.storage.pfs import PfsConfig
from repro.util.units import GB, GiB, TB

__all__ = ["DeviceSpec", "NodeGroupSpec", "ClusterSpec"]


@dataclass(frozen=True)
class DeviceSpec:
    """One node-local storage device and its dataspace binding."""

    name: str                      # "nvme0"
    profile: str                   # key into storage.device.PROFILES
    capacity: float
    nsid: str = ""                 # dataspace id; default f"{name}://"
    mount: str = ""                # mount path; default f"/mnt/{name}"
    track: bool = False            # register as a tracked dataspace

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise SimError(f"unknown device profile {self.profile!r}")
        if self.capacity <= 0:
            raise SimError("device capacity must be positive")

    @property
    def dataspace_id(self) -> str:
        return self.nsid or f"{self.name}://"

    @property
    def mount_path(self) -> str:
        return self.mount or f"/mnt/{self.name}"


@dataclass(frozen=True)
class NodeGroupSpec:
    """A homogeneous group of compute nodes."""

    count: int
    name_prefix: str = "node"
    cores: int = 48
    ram: float = 192 * GiB
    nic_bandwidth: float = 64 * GiB
    #: Contended memory-controller headroom shared by memory-bound
    #: compute and staging buffers (Table IV's interference medium).
    membus_bandwidth: float = 12 * GB
    devices: Tuple[DeviceSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SimError("node group needs at least one node")

    def node_names(self) -> list[str]:
        return [f"{self.name_prefix}{i}" for i in range(self.count)]


@dataclass(frozen=True)
class ClusterSpec:
    """A whole machine."""

    name: str
    nodes: NodeGroupSpec
    fabric_core_bandwidth: float = 400 * GB
    fabric_base_latency: float = 1.0e-6
    na_plugin: str = "ofi+tcp"
    pfs: Optional[PfsConfig] = None
    pfs_nsid: str = "lustre://"
    pfs_mount: str = "/lustre"
    urd_workers: int = 8
    #: Attach the RPC resilience layer (:mod:`repro.resilience`) to
    #: every urd.  It is built *disarmed* — zero events, zero overhead
    #: — until a non-empty fault plan arms it, so leaving this on does
    #: not perturb clean runs.
    resilience: bool = True
