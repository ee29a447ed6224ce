"""A Lustre-like parallel file system.

Structure mirrors the ARCHER description in Section II: a single
metadata server (MDS), ``n_oss`` object storage servers each exporting
``osts_per_oss`` object storage targets (OSTs), and a shared front link
to the compute fabric.  Files are striped round-robin over
``stripe_count`` OSTs starting from a deterministic per-file offset.

Contention model — the source of Fig. 1's variability:

* every stripe of every active file I/O is a flow through
  ``[fabric route] + [OSS link] + [OST read-or-write path]``;
* the MDS is a single-server queue, so file-per-process workloads pay
  a serialized open/create cost;
* uncoordinated background applications inject their own flows into
  the same OSTs, which is precisely "cross-application interference".
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import SimError
from repro.net.fabric import Fabric
from repro.sim.core import Event, Simulator
from repro.sim.flows import CapacityConstraint, FlowScheduler
from repro.sim.primitives import all_of
from repro.sim.resources import Resource
from repro.storage.filesystem import FileContent, Namespace, normalize
from repro.util.units import GB, MB

__all__ = ["PfsConfig", "ParallelFileSystem"]


@dataclass(frozen=True)
class PfsConfig:
    """Sizing knobs for a PFS instance."""

    name: str = "lustre"
    n_oss: int = 1
    osts_per_oss: int = 6
    ost_read_bandwidth: float = 1.4 * GB
    ost_write_bandwidth: float = 1.3 * GB
    oss_link_bandwidth: float = 7.0 * GB
    #: Front link between the compute fabric and the PFS servers
    #: (NEXTGenIO reaches Lustre over a 56 Gbps InfiniBand link).
    front_link_bandwidth: float = 7.0 * GB
    mds_service_time: float = 150e-6
    default_stripe_count: int = 4
    #: Per-client single-stream ceilings (bytes/s).  A single Lustre
    #: client saturates well below the filesystem's aggregate limit
    #: (RPC pipeline depth, LNET credits); many clients aggregate up to
    #: the OST/front limits.  ``None`` disables the cap.
    client_read_cap: Optional[float] = None
    client_write_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_oss < 1 or self.osts_per_oss < 1:
            raise SimError("PFS needs at least one OSS and one OST")
        if self.default_stripe_count < 1:
            raise SimError("stripe count must be >= 1")

    @property
    def n_osts(self) -> int:
        return self.n_oss * self.osts_per_oss

    @property
    def peak_write_bandwidth(self) -> float:
        return min(self.n_osts * self.ost_write_bandwidth,
                   self.n_oss * self.oss_link_bandwidth,
                   self.front_link_bandwidth)


class _Ost:
    __slots__ = ("index", "read_path", "write_path", "oss_link")

    def __init__(self, index: int, cfg: PfsConfig,
                 oss_link: CapacityConstraint) -> None:
        self.index = index
        self.read_path = CapacityConstraint(
            f"{cfg.name}:ost{index}:read", cfg.ost_read_bandwidth)
        self.write_path = CapacityConstraint(
            f"{cfg.name}:ost{index}:write", cfg.ost_write_bandwidth)
        self.oss_link = oss_link


@dataclass
class _StripeLayout:
    """Persistent stripe placement of one file."""

    start: int
    count: int
    osts: tuple[int, ...] = field(default_factory=tuple)


class ParallelFileSystem:
    """The shared PFS instance: one namespace, many contended servers."""

    #: fabric node name under which the PFS front end is attached.
    server_node: str

    def __init__(self, sim: Simulator, config: PfsConfig = PfsConfig(),
                 fabric: Optional[Fabric] = None,
                 flows: Optional[FlowScheduler] = None,
                 server_node: str = "pfs") -> None:
        if fabric is None and flows is None:
            raise SimError("ParallelFileSystem needs a fabric or a FlowScheduler")
        self.sim = sim
        self.config = config
        self.fabric = fabric
        self.flows = fabric.flows if fabric is not None else flows
        self.server_node = server_node
        self.ns = Namespace()
        self._mds = Resource(sim, capacity=1, name=f"{config.name}:mds")
        self._layouts: dict[str, _StripeLayout] = {}
        self._next_start = itertools.count()
        self._front = CapacityConstraint(
            f"{config.name}:front", config.front_link_bandwidth)
        #: per-(client node, direction) stream-cap constraints.
        self._client_caps: dict[tuple[str, str], CapacityConstraint] = {}
        self._oss_links = [
            CapacityConstraint(f"{config.name}:oss{i}", config.oss_link_bandwidth)
            for i in range(config.n_oss)
        ]
        self.osts = [
            _Ost(i, config, self._oss_links[i // config.osts_per_oss])
            for i in range(config.n_osts)
        ]
        if fabric is not None and server_node not in fabric:
            fabric.add_node(server_node,
                            nic_bandwidth=config.front_link_bandwidth)
        self.metadata_ops = 0

    # -- striping ---------------------------------------------------------
    def _layout_for(self, path: str, stripe_count: Optional[int],
                    create: bool) -> _StripeLayout:
        path = normalize(path)
        layout = self._layouts.get(path)
        if layout is not None and not create:
            return layout
        count = stripe_count or self.config.default_stripe_count
        count = min(count, self.config.n_osts)
        start = zlib.crc32(path.encode()) % self.config.n_osts
        layout = _StripeLayout(
            start=start, count=count,
            osts=tuple((start + k) % self.config.n_osts for k in range(count)))
        self._layouts[path] = layout
        return layout

    # -- MDS ------------------------------------------------------------------
    def _mds_op(self):
        """One serialized metadata operation (open/create/stat)."""
        yield self._mds.request()
        try:
            yield self.sim.timeout(self.config.mds_service_time)
            self.metadata_ops += 1
        finally:
            self._mds.release()

    # -- data path ----------------------------------------------------------------
    def _stripe_constraints(self, ost: _Ost, write: bool,
                            extra: Sequence[CapacityConstraint] = (),
                            ) -> tuple[CapacityConstraint, ...]:
        data_path = ost.write_path if write else ost.read_path
        return (self._front, ost.oss_link, data_path, *extra)

    def _client_cap(self, client_node: str,
                    write: bool) -> Optional[CapacityConstraint]:
        cap = (self.config.client_write_cap if write
               else self.config.client_read_cap)
        if cap is None:
            return None
        key = (client_node, "w" if write else "r")
        constraint = self._client_caps.get(key)
        if constraint is None:
            constraint = CapacityConstraint(
                f"{self.config.name}:client:{client_node}:{key[1]}", cap)
            self._client_caps[key] = constraint
        return constraint

    def _stripe_flows(self, size: int, osts: Sequence[_Ost], write: bool,
                      client_node: Optional[str],
                      extra_constraints: Sequence[CapacityConstraint] = (),
                      ) -> list[Event]:
        """Launch one flow per stripe; returns their completion events."""
        n = len(osts)
        per_stripe = size / n if n else 0
        extra_constraints = tuple(extra_constraints)
        if client_node is not None:
            cap = self._client_cap(client_node, write)
            if cap is not None:
                extra_constraints = (*extra_constraints, cap)
        events = []
        for ost in osts:
            extras = self._stripe_constraints(ost, write, extra_constraints)
            if self.fabric is not None and client_node is not None:
                if write:
                    ev = self.fabric.transfer(client_node, self.server_node,
                                              per_stripe,
                                              extra_constraints=extras,
                                              label=f"{self.config.name}:w")
                else:
                    ev = self.fabric.transfer(self.server_node, client_node,
                                              per_stripe,
                                              extra_constraints=extras,
                                              label=f"{self.config.name}:r")
            else:
                ev = self.flows.transfer(per_stripe, extras,
                                         label=f"{self.config.name}:io")
            events.append(ev)
        return events

    # -- public I/O ---------------------------------------------------------------
    def write(self, client_node: Optional[str], path: str, size: int,
              token: Optional[str] = None,
              stripe_count: Optional[int] = None,
              extra_constraints: Sequence[CapacityConstraint] = (),
              content: Optional[FileContent] = None) -> Event:
        """Create/overwrite a file of ``size`` bytes from ``client_node``.

        ``content`` preserves an existing fingerprint (copy semantics).
        """
        path = normalize(path)
        if content is not None:
            size = content.size

        def op():
            yield self.sim.process(self._mds_op())
            layout = self._layout_for(path, stripe_count, create=True)
            osts = [self.osts[i] for i in layout.osts]
            yield all_of(self.sim, self._stripe_flows(size, osts, True,
                                                      client_node,
                                                      extra_constraints))
            final = content if content is not None else FileContent.synthesize(
                token or f"{self.config.name}:{path}", size)
            self.ns.create(path, final)
            return final

        return self.sim.process(op(), name=f"pfs:write:{path}")

    def read(self, client_node: Optional[str], path: str,
             expect: Optional[FileContent] = None,
             extra_constraints: Sequence[CapacityConstraint] = ()) -> Event:
        """Read a whole file back to ``client_node``."""
        path = normalize(path)

        def op():
            yield self.sim.process(self._mds_op())
            content = self.ns.lookup(path)  # NoSuchFile propagates
            if expect is not None and not content.verify_against(expect):
                from repro.errors import DataCorruption
                raise DataCorruption(f"{path}: expected {expect}, got {content}")
            layout = self._layout_for(path, None, create=False)
            osts = [self.osts[i] for i in layout.osts]
            yield all_of(self.sim, self._stripe_flows(content.size, osts,
                                                      False, client_node,
                                                      extra_constraints))
            return content

        return self.sim.process(op(), name=f"pfs:read:{path}")

    def collective_write(self, client_nodes: Sequence[Optional[str]],
                         path: str, size_per_writer: int,
                         token: Optional[str] = None,
                         stripe_count: Optional[int] = None) -> Event:
        """Single-shared-file collective write (MPI-IO style, Fig. 1a).

        All writers share one file layout; writer *i* streams to stripe
        ``i mod stripe_count`` of the layout (the fluid-flow collapse of
        round-robin striping: with many writers every stripe is evenly
        loaded, and aggregate bandwidth is bounded by the chosen stripe
        width — using 4 OSTs vs all OSTs is exactly the ARCHER
        experiment's variable).
        """
        path = normalize(path)

        def op():
            yield self.sim.process(self._mds_op())
            layout = self._layout_for(path, stripe_count, create=True)
            osts = [self.osts[i] for i in layout.osts]
            events = []
            for i, node in enumerate(client_nodes):
                ost = osts[i % len(osts)]
                events.extend(self._stripe_flows(size_per_writer, [ost],
                                                 True, node))
            yield all_of(self.sim, events)
            total = size_per_writer * len(client_nodes)
            content = FileContent.synthesize(
                token or f"{self.config.name}:{path}", total)
            self.ns.create(path, content)
            return content

        return self.sim.process(op(), name=f"pfs:cwrite:{path}")

    def delete(self, path: str) -> Event:
        """Unlink (one MDS op)."""
        path = normalize(path)

        def op():
            yield self.sim.process(self._mds_op())
            content = self.ns.unlink(path)
            self._layouts.pop(path, None)
            return content

        return self.sim.process(op(), name=f"pfs:unlink:{path}")

    # -- background interference ---------------------------------------------
    def inject_load(self, size: float, write: bool = True,
                    osts: Optional[Sequence[int]] = None,
                    width: int = 1) -> Event:
        """Inject an uncoordinated background I/O burst onto the OSTs.

        ``width`` is the burst's process-parallelism: how many competing
        flows land on *each* targeted OST (a 512-rank application doing
        file-per-process I/O piles many streams onto the same OST).
        Used by the Fig. 1 workload generator to reproduce
        cross-application interference without going through the
        namespace.
        """
        if osts is None:
            targets = self.osts
        else:
            targets = [self.osts[i] for i in osts]
        width = max(1, width)
        per_ost = size / len(targets) if targets else 0.0
        events = []
        for ost in targets:
            extras = self._stripe_constraints(ost, write)
            # One weighted flow per OST stands in for `width` parallel
            # per-process streams of the bursting application.
            events.append(self.flows.transfer(per_ost, extras,
                                              label=f"{self.config.name}:bg",
                                              weight=width))
        return all_of(self.sim, events)
