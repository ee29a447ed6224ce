"""The job & dataspace controller inside the urd daemon.

Section IV-B: worker threads "rely on the information registered in the
job & dataspace controller to validate the request, which implies
checking that the calling process has access to the requested dataspaces
and also that it has the appropriate file system permissions".

The controller therefore owns three registries — dataspaces, jobs,
processes — and implements the paper's three enforcement rules:

1. account the usage registered processes make of their dataspaces;
2. reject task submissions from processes not registered in the service;
3. reject task submissions from registered processes involving
   dataspaces they shouldn't access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import (
    NornsAccessDenied, NornsBusyDataspace, NornsDataspaceExists,
    NornsDataspaceNotFound, NornsJobNotFound, NornsNotRegistered,
)
from repro.norns.dataspace import Dataspace
from repro.norns.resources import DataResource
from repro.norns.task import IOTask, TaskType

__all__ = ["JobRegistration", "Controller"]


@dataclass
class JobRegistration:
    """One batch job as the scheduler registered it on this node."""

    job_id: int
    hosts: tuple[str, ...]
    allowed_nsids: frozenset[str]
    quota_bytes: int = 0
    #: pid -> (uid, gid), maintained via add_process/remove_process.
    processes: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: bytes moved on behalf of this job (accounting rule 1).
    bytes_accounted: float = 0.0


class Controller:
    """Registries + validation for one urd instance."""

    def __init__(self) -> None:
        self._dataspaces: Dict[str, Dataspace] = {}
        self._jobs: Dict[int, JobRegistration] = {}
        self._pid_to_job: Dict[int, int] = {}
        #: per-nsid count of tasks currently using the dataspace.
        self._inflight: Dict[str, int] = {}

    # -- dataspace registry -------------------------------------------------
    def register_dataspace(self, ds: Dataspace) -> None:
        if ds.nsid in self._dataspaces:
            raise NornsDataspaceExists(ds.nsid)
        self._dataspaces[ds.nsid] = ds
        self._inflight.setdefault(ds.nsid, 0)

    def update_dataspace(self, ds: Dataspace) -> None:
        if ds.nsid not in self._dataspaces:
            raise NornsDataspaceNotFound(ds.nsid)
        self._dataspaces[ds.nsid] = ds

    def unregister_dataspace(self, nsid: str, force: bool = False) -> Dataspace:
        ds = self._dataspaces.get(nsid)
        if ds is None:
            raise NornsDataspaceNotFound(nsid)
        if not force:
            if self._inflight.get(nsid, 0) > 0:
                raise NornsBusyDataspace(
                    f"{nsid}: {self._inflight[nsid]} tasks in flight")
            if ds.track and ds.has_data():
                raise NornsBusyDataspace(f"{nsid}: tracked dataspace not empty")
        del self._dataspaces[nsid]
        self._inflight.pop(nsid, None)
        return ds

    def resolve(self, nsid: str) -> Dataspace:
        ds = self._dataspaces.get(nsid)
        if ds is None:
            raise NornsDataspaceNotFound(nsid)
        return ds

    def dataspaces(self) -> list[Dataspace]:
        return [self._dataspaces[k] for k in sorted(self._dataspaces)]

    def tracked_nonempty(self) -> list[str]:
        """Tracked dataspaces still holding data (node-release check)."""
        return [ds.nsid for ds in self.dataspaces() if ds.track and ds.has_data()]

    # -- job / process registry ---------------------------------------------
    def register_job(self, job_id: int, hosts, nsids, quota_bytes: int = 0) -> None:
        reg = JobRegistration(job_id=job_id, hosts=tuple(hosts),
                              allowed_nsids=frozenset(nsids),
                              quota_bytes=quota_bytes)
        self._jobs[job_id] = reg

    def update_job(self, job_id: int, hosts=None, nsids=None) -> None:
        reg = self._jobs.get(job_id)
        if reg is None:
            raise NornsJobNotFound(str(job_id))
        if hosts is not None:
            reg.hosts = tuple(hosts)
        if nsids is not None:
            reg.allowed_nsids = frozenset(nsids)

    def unregister_job(self, job_id: int) -> None:
        reg = self._jobs.pop(job_id, None)
        if reg is None:
            raise NornsJobNotFound(str(job_id))
        for pid in list(reg.processes):
            self._pid_to_job.pop(pid, None)

    def add_process(self, job_id: int, pid: int, uid: int, gid: int) -> None:
        reg = self._jobs.get(job_id)
        if reg is None:
            raise NornsJobNotFound(str(job_id))
        reg.processes[pid] = (uid, gid)
        self._pid_to_job[pid] = job_id

    def remove_process(self, job_id: int, pid: int) -> None:
        reg = self._jobs.get(job_id)
        if reg is None:
            raise NornsJobNotFound(str(job_id))
        reg.processes.pop(pid, None)
        self._pid_to_job.pop(pid, None)

    def job(self, job_id: int) -> JobRegistration:
        reg = self._jobs.get(job_id)
        if reg is None:
            raise NornsJobNotFound(str(job_id))
        return reg

    def jobs(self) -> list[JobRegistration]:
        return [self._jobs[k] for k in sorted(self._jobs)]

    def visible_dataspaces(self, pid: int) -> list[Dataspace]:
        """Dataspaces the calling process may use (norns_get_dataspace_info)."""
        job_id = self._pid_to_job.get(pid)
        if job_id is None:
            raise NornsNotRegistered(f"pid {pid} not registered")
        allowed = self._jobs[job_id].allowed_nsids
        return [ds for ds in self.dataspaces() if ds.nsid in allowed]

    # -- validation (the paper's three rules) --------------------------------------
    def validate_task(self, task: IOTask) -> None:
        """Reject unauthorized or dangling submissions.

        Raises :class:`NornsNotRegistered`, :class:`NornsAccessDenied` or
        :class:`NornsDataspaceNotFound`; assigns ``task.job_id`` for user
        tasks so accounting and fair-share arbitration know the owner.
        """
        nsids = [r.nsid for r in (task.src, task.dst)
                 if r is not None and not r.is_memory]
        local_nsids = [r.nsid for r in (task.src, task.dst)
                       if r is not None and not r.is_memory
                       and not r.is_remote]
        for nsid in local_nsids:
            self.resolve(nsid)  # rule: local dataspaces must exist
            # remote nsids are validated by the remote urd at transfer time
        if task.admin:
            return  # scheduler-submitted tasks bypass job checks
        job_id = self._pid_to_job.get(task.pid)
        if job_id is None:
            raise NornsNotRegistered(
                f"pid {task.pid} not registered with the service")
        task.job_id = job_id
        allowed = self._jobs[job_id].allowed_nsids
        for nsid in nsids:
            if nsid not in allowed:
                raise NornsAccessDenied(
                    f"job {job_id} (pid {task.pid}) may not access {nsid}")

    # -- accounting & in-flight tracking ----------------------------------------
    def task_started(self, task: IOTask) -> None:
        for r in (task.src, task.dst):
            if r is not None and not r.is_memory and not r.is_remote:
                self._inflight[r.nsid] = self._inflight.get(r.nsid, 0) + 1

    def task_ended(self, task: IOTask, bytes_moved: float) -> None:
        for r in (task.src, task.dst):
            if r is not None and not r.is_memory and not r.is_remote:
                self._inflight[r.nsid] = max(0, self._inflight.get(r.nsid, 0) - 1)
        if task.job_id and task.job_id in self._jobs:
            self._jobs[task.job_id].bytes_accounted += bytes_moved

    def inflight(self, nsid: str) -> int:
        return self._inflight.get(nsid, 0)
