"""Stage-in/stage-out orchestration and persist bookkeeping.

Implements Section III's scheduler-side staging behaviour:

* **stage_in**: prior to launch, the scheduler submits administrative
  NORNS copy tasks to move each required file onto the chosen nodes
  (mapping: replicate / scatter / single); the job starts only when the
  data has arrived, and "if the timeout is reached or if there is a
  failure to obtain the data item specified, the scheduler will
  terminate the job and clean up all data already staged to nodes".
* **stage_out**: the mirror operation at job end; "if a stage_out
  operation fails then the current approach is to leave the data on the
  node local resources for future stage_out operations to try and
  recover".
* **persist** store/delete/share/unshare: maintain named locations on
  node-local storage across jobs, with per-user access control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NoSuchFile, SlurmError, StagingFailure
from repro.norns.resources import posix_path
from repro.norns.task import TaskStatus, TaskType
from repro.sim.core import Event, Simulator
from repro.sim.primitives import all_of, any_of
from repro.slurm.job import Job, PersistDirective, StageDirective, split_locator

__all__ = ["PersistRegistry", "PersistEntry", "StagingCoordinator",
           "StagingReport"]


@dataclass
class PersistEntry:
    """One persisted node-local location."""

    nsid: str
    path: str                      # normalized prefix
    owner: str
    nodes: tuple[str, ...]
    bytes_by_node: Dict[str, int] = field(default_factory=dict)
    shared_with: set = field(default_factory=set)

    @property
    def key(self) -> tuple[str, str]:
        return (self.nsid, self.path)

    def may_access(self, user: str) -> bool:
        return user == self.owner or user in self.shared_with


class PersistRegistry:
    """Cluster-wide record of persisted locations (slurmctld-owned)."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str], PersistEntry] = {}

    def store(self, nsid: str, path: str, owner: str,
              nodes: Sequence[str],
              bytes_by_node: Optional[Dict[str, int]] = None) -> PersistEntry:
        entry = PersistEntry(nsid=nsid, path=path, owner=owner,
                             nodes=tuple(nodes),
                             bytes_by_node=dict(bytes_by_node or {}))
        self._entries[entry.key] = entry
        return entry

    def delete(self, nsid: str, path: str, user: str) -> PersistEntry:
        entry = self._entries.get((nsid, path))
        if entry is None:
            raise SlurmError(f"no persisted location {nsid}{path}")
        if not entry.may_access(user):
            raise SlurmError(f"user {user!r} may not delete {nsid}{path}")
        del self._entries[entry.key]
        return entry

    def share(self, nsid: str, path: str, owner: str, user: str) -> None:
        entry = self._lookup_owned(nsid, path, owner)
        entry.shared_with.add(user)

    def unshare(self, nsid: str, path: str, owner: str, user: str) -> None:
        entry = self._lookup_owned(nsid, path, owner)
        entry.shared_with.discard(user)

    def _lookup_owned(self, nsid: str, path: str, owner: str) -> PersistEntry:
        entry = self._entries.get((nsid, path))
        if entry is None:
            raise SlurmError(f"no persisted location {nsid}{path}")
        if entry.owner != owner:
            raise SlurmError(f"{nsid}{path} is owned by {entry.owner!r}")
        return entry

    def entry(self, nsid: str, path: str) -> Optional[PersistEntry]:
        return self._entries.get((nsid, path))

    def entries(self) -> List[PersistEntry]:
        return [self._entries[k] for k in sorted(self._entries)]

    def may_access(self, nsid: str, path: str, user: str) -> bool:
        entry = self._entries.get((nsid, path))
        return entry is not None and entry.may_access(user)

    def is_covered(self, nsid: str, path: str) -> bool:
        """Is ``path`` inside any persisted location of ``nsid``?"""
        return bool(self._covering(nsid, path))

    def _covering(self, nsid: str, path: str) -> List[PersistEntry]:
        out = []
        for (ensid, eprefix), entry in self._entries.items():
            if ensid == nsid and (path == eprefix
                                  or path.startswith(eprefix.rstrip("/") + "/")
                                  or eprefix.startswith(path.rstrip("/") + "/")):
                out.append(entry)
        return out

    def check_access(self, nsid: str, path: str, user: str) -> None:
        """Enforce the share/unshare ACL on a persisted location.

        Raises :class:`SlurmError` when ``path`` lies inside a persisted
        location the user may not access.  Paths not covered by any
        entry are unrestricted (they are the job's own data).
        """
        covering = self._covering(nsid, path)
        if covering and not any(e.may_access(user) for e in covering):
            owners = sorted({e.owner for e in covering})
            raise SlurmError(
                f"user {user!r} may not access persisted location "
                f"{nsid}{path} (owned by {', '.join(owners)})")

    def resident_bytes(self, nsid: str, path: str) -> Dict[str, float]:
        """node -> persisted bytes relevant to a location (selector input)."""
        out: Dict[str, float] = {}
        for entry in self._entries.values():
            if entry.nsid != nsid:
                continue
            if not (path == entry.path
                    or path.startswith(entry.path.rstrip("/") + "/")
                    or entry.path.startswith(path.rstrip("/") + "/")):
                continue
            for node, nbytes in entry.bytes_by_node.items():
                out[node] = out.get(node, 0) + nbytes
        return out


@dataclass
class StagingReport:
    """Outcome of one staging phase."""

    direction: str
    files: int = 0
    bytes: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: the urd's E.T.A. for the phase (max over nodes of the last
    #: submitted task's estimate) — lets callers score the paper's
    #: "E.T.A. for each task" feedback channel against reality.
    predicted_seconds: float = 0.0
    failures: List[str] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

    @property
    def ok(self) -> bool:
        return not self.failures


def _dest_path(src_path: str, origin_prefix: str, dest_prefix: str) -> str:
    """Map a source file path under origin onto the destination prefix."""
    rel = src_path
    prefix = origin_prefix.rstrip("/")
    if src_path == prefix:
        rel = src_path.rsplit("/", 1)[-1]
    elif src_path.startswith(prefix + "/"):
        rel = src_path[len(prefix) + 1:]
    else:
        rel = src_path.lstrip("/")
    return f"{dest_prefix.rstrip('/')}/{rel}"


class StagingCoordinator:
    """Executes a job's stage directives through the NORNS control API."""

    def __init__(self, sim: Simulator, slurmds: Dict[str, "object"],
                 persist_registry: Optional[PersistRegistry] = None) -> None:
        self.sim = sim
        self.slurmds = slurmds
        self.persist = persist_registry or PersistRegistry()

    # -- file expansion --------------------------------------------------
    def _backend(self, node: str, nsid: str):
        return self.slurmds[node].resolve_backend(nsid)

    def _expand_shared(self, node: str, nsid: str, prefix: str):
        """List (path, size) under a shared-dataspace prefix."""
        backend = self._backend(node, nsid)
        ns = backend.pfs.ns if hasattr(backend, "pfs") else backend.mount.ns
        if ns.exists(prefix) and not ns.is_dir(prefix):
            return [(prefix, ns.lookup(prefix).size)]
        if not ns.is_dir(prefix):
            raise StagingFailure(
                f"{nsid}{prefix}: no such file or directory", permanent=True)
        return [(p, c.size) for p, c in ns.walk_files(prefix)]

    def _expand_local(self, node: str, nsid: str, prefix: str):
        backend = self._backend(node, nsid)
        ns = backend.mount.ns
        if ns.exists(prefix) and not ns.is_dir(prefix):
            return [(prefix, ns.lookup(prefix).size)]
        if not ns.is_dir(prefix):
            return []
        return [(p, c.size) for p, c in ns.walk_files(prefix)]

    # -- volume estimation ------------------------------------------------
    def stage_in_bytes(self, job: Job, node: Optional[str] = None) -> int:
        """Total bytes the job's stage_in directives would move today.

        The scheduler-side input to staging E.T.A.s: expands each
        origin on the shared filesystem exactly as :meth:`stage_in`
        will, accounting for the mapping (``replicate`` multiplies by
        the allocation width).  Origins that do not exist yet (data not
        produced) contribute zero rather than failing — an estimate,
        not a precondition check.
        """
        node = node if node is not None else next(iter(self.slurmds))
        total = 0
        for directive in job.spec.stage_in:
            src_nsid, src_prefix = split_locator(directive.origin)
            try:
                files = self._expand_shared(node, src_nsid, src_prefix)
            except (StagingFailure, SlurmError):
                continue
            nbytes = sum(size for _path, size in files)
            if directive.mapping == "replicate":
                nbytes *= job.spec.nodes
            total += nbytes
        return total

    # -- stage in -----------------------------------------------------------
    def stage_in(self, job: Job, timeout: Optional[float] = None):
        """Generator: run all stage_in directives; raises
        :class:`StagingFailure` on error or timeout (after cleanup)."""
        report = StagingReport(direction="stage_in",
                               started_at=self.sim.now)
        nodes = list(job.allocated_nodes)
        per_node: Dict[str, list] = {n: [] for n in nodes}
        for directive in job.spec.stage_in:
            src_nsid, src_prefix = split_locator(directive.origin)
            dst_nsid, dst_prefix = split_locator(directive.destination)
            # Staging from a *persisted* node-local location is subject
            # to the persist share/unshare ACL (Section III).
            src_backend = self._backend(nodes[0], src_nsid)
            if getattr(src_backend, "kind", "") == "local":
                try:
                    self.persist.check_access(src_nsid, src_prefix,
                                              job.spec.user)
                except SlurmError as exc:
                    raise StagingFailure(str(exc), permanent=True) from exc
            files = self._expand_shared(nodes[0], src_nsid, src_prefix)
            if not files:
                raise StagingFailure(
                    f"stage_in: nothing to stage under "
                    f"{directive.origin}", permanent=True)
            targets = self._map_nodes(directive.mapping, nodes)
            for i, (path, size) in enumerate(files):
                dst = _dest_path(path, src_prefix, dst_prefix)
                if directive.mapping == "replicate":
                    chosen = targets
                elif directive.mapping == "single":
                    chosen = targets[:1]
                else:  # scatter
                    chosen = [targets[i % len(targets)]]
                for node in chosen:
                    per_node[node].append(
                        (posix_path(src_nsid, path),
                         posix_path(dst_nsid, dst), size))
                    report.files += 1
                    report.bytes += size
        failed = yield from self._run_copies(job, per_node, report, timeout)
        report.finished_at = self.sim.now
        if failed:
            report.failures.extend(failed)
            # Terminate-and-clean-up semantics (Section III).
            yield from self.cleanup_staged(job, per_node)
            raise StagingFailure("; ".join(failed))
        return report

    # -- stage out ---------------------------------------------------------------
    def stage_out(self, job: Job, timeout: Optional[float] = None):
        """Generator: run stage_out directives; failures leave data."""
        report = StagingReport(direction="stage_out",
                               started_at=self.sim.now)
        nodes = list(job.allocated_nodes)
        per_node: Dict[str, list] = {n: [] for n in nodes}
        for directive in job.spec.stage_out:
            src_nsid, src_prefix = split_locator(directive.origin)
            dst_nsid, dst_prefix = split_locator(directive.destination)
            for node in nodes:
                for path, size in self._expand_local(node, src_nsid,
                                                     src_prefix):
                    dst = _dest_path(path, src_prefix, dst_prefix)
                    per_node[node].append(
                        (posix_path(src_nsid, path),
                         posix_path(dst_nsid, dst), size))
                    report.files += 1
                    report.bytes += size
        failed = yield from self._run_copies(job, per_node, report, timeout)
        report.finished_at = self.sim.now
        if failed:
            # Leave data for future recovery attempts (Section III).
            report.failures.extend(failed)
        return report

    # -- shared machinery ------------------------------------------------------
    @staticmethod
    def _map_nodes(mapping: str, nodes: list) -> list:
        return list(nodes)

    def _run_copies(self, job: Job, per_node: Dict[str, list],
                    report: StagingReport, timeout: Optional[float]):
        """Submit per-node admin copies in parallel; wait with timeout."""
        procs = []
        failures: List[str] = []
        predictions: Dict[str, float] = {}
        for node, copies in per_node.items():
            if not copies:
                continue
            procs.append(self.sim.process(
                self._node_copies(node, copies, failures, predictions,
                                  phase_start=report.started_at),
                name=f"stage:{job.job_id}:{node}"))
        if not procs:
            return []
        gate = all_of(self.sim, procs)
        limit = timeout if timeout is not None else job.spec.staging_timeout
        deadline = self.sim.timeout(limit)
        fired = yield any_of(self.sim, [gate, deadline])
        if gate not in fired:
            for p in procs:
                if p.is_alive:
                    p.interrupt("staging timeout")
            failures.append(f"staging timeout after {limit}s")
        report.predicted_seconds = max(predictions.values(), default=0.0)
        return failures

    def _node_copies(self, node: str, copies: list, failures: List[str],
                     predictions: Optional[Dict[str, float]] = None,
                     phase_start: float = 0.0):
        from repro.errors import Interrupted, NornsError
        ctl = self.slurmds[node].ctl()
        try:
            tasks = []
            for src, dst, _size in copies:
                tsk = ctl.iotask_init(TaskType.COPY, src, dst)
                yield from ctl.submit(tsk)
                tasks.append((tsk, src, dst))
            if predictions is not None and tasks:
                # The last task's E.T.A. includes all bytes queued ahead
                # of it on the route, so submission offset + that E.T.A.
                # predicts when this node's whole batch drains.
                predictions[node] = (self.sim.now - phase_start) \
                    + tasks[-1][0].eta_seconds
            for tsk, src, dst in tasks:
                stats = yield from ctl.wait(tsk)
                if stats.status is TaskStatus.ERROR:
                    failures.append(f"{node}: {src} -> {dst}: "
                                    f"error {stats.error_code}")
        except Interrupted:
            pass  # timeout fired; coordinator handles cleanup
        except NornsError as exc:
            failures.append(f"{node}: {exc}")
        finally:
            ctl.close()

    # -- cleanup ----------------------------------------------------------------
    def cleanup_staged(self, job: Job, per_node: Dict[str, list]):
        """Remove files already staged in (failure path, Section III)."""
        for node, copies in per_node.items():
            backend_cache = {}
            for _src, dst, _size in copies:
                backend = backend_cache.get(dst.nsid)
                if backend is None:
                    backend = self._backend(node, dst.nsid)
                    backend_cache[dst.nsid] = backend
                if backend.exists(dst.path):
                    backend.delete(dst.path)
        return
        yield  # pragma: no cover - keeps this a generator

    def cleanup_job_data(self, job: Job, keep_stage_out_data: bool = False):
        """Remove the job's node-local data except persisted locations.

        Covers stage_in destinations and stage_out origins; everything
        persisted via ``#NORNS persist store`` survives.
        ``keep_stage_out_data`` implements the failed-stage-out policy:
        "leave the data on the node local resources for future
        stage_out operations to try and recover".
        """
        prefixes = []
        for d in job.spec.stage_in:
            prefixes.append(split_locator(d.destination))
        if not keep_stage_out_data:
            for d in job.spec.stage_out:
                prefixes.append(split_locator(d.origin))
        for node in job.allocated_nodes:
            for nsid, prefix in prefixes:
                backend = self._backend(node, nsid)
                if getattr(backend, "kind", "") == "shared":
                    continue  # only node-local data is cleaned
                ns = backend.mount.ns
                if not ns.is_dir(prefix):
                    if ns.exists(prefix) and not self.persist.is_covered(
                            nsid, prefix):
                        backend.delete(prefix)
                    continue
                for path, _c in list(ns.walk_files(prefix)):
                    if not self.persist.is_covered(nsid, path):
                        backend.delete(path)
        return
        yield  # pragma: no cover - keeps this a generator

    # -- persist operations --------------------------------------------------------
    def apply_persist(self, job: Job):
        """Process the job's persist directives (at job end)."""
        for directive in job.spec.persist:
            nsid, path = split_locator(directive.location)
            if directive.operation == "store":
                bytes_by_node = {}
                for node in job.allocated_nodes:
                    backend = self._backend(node, nsid)
                    ns = backend.mount.ns
                    resident = (ns.total_bytes(path)
                                if ns.is_dir(path)
                                else (ns.lookup(path).size
                                      if ns.exists(path) else 0))
                    bytes_by_node[node] = resident
                self.persist.store(nsid, path, job.spec.user,
                                   job.allocated_nodes, bytes_by_node)
            elif directive.operation == "delete":
                entry = self.persist.delete(nsid, path, job.spec.user)
                for node in entry.nodes:
                    if node not in self.slurmds:
                        continue
                    backend = self._backend(node, nsid)
                    ns = backend.mount.ns
                    if ns.is_dir(path):
                        for fpath, _c in list(ns.walk_files(path)):
                            backend.delete(fpath)
                    elif ns.exists(path):
                        backend.delete(path)
            elif directive.operation == "share":
                self.persist.share(nsid, path, job.spec.user, directive.user)
            elif directive.operation == "unshare":
                self.persist.unshare(nsid, path, job.spec.user,
                                     directive.user)
        return
        yield  # pragma: no cover - keeps this a generator
