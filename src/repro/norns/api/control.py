"""The ``nornsctl`` control API (Table I, top half).

Used by the job scheduler (slurmd in practice) over the control socket:
daemon management, dataspace management, job/process management and
administrative task management.  Administrative tasks (``admin=True``)
bypass job-based validation and are how stage-in/stage-out transfers are
issued before a job's processes even exist.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.net.sockets import Credentials, LocalSocketHub
from repro.norns.api.common import BaseClient
from repro.wire import norns_proto as proto

__all__ = ["NornsCtlClient"]


class NornsCtlClient(BaseClient):
    """Control-socket client (scheduler side).  Its I/O tasks are
    administrative (``admin=True``, ``pid=0``): stage-in/stage-out
    transfers issued before the job's processes exist."""

    _admin = True

    def __init__(self, sim, hub: LocalSocketHub, creds: Credentials,
                 socket_path: str = "/var/run/norns/urd.ctl.sock") -> None:
        super().__init__(sim, hub, creds, socket_path, pid=0)

    # -- daemon management (nornsctl_send_command / nornsctl_status) -------
    def send_command(self, command: str, args: Sequence[str] = ()):
        resp = yield from self._checked(
            proto.CommandRequest(command=command, args=list(args)))
        return resp.detail

    def status(self):
        """Daemon counters snapshot (:class:`DaemonStatusResponse`)."""
        resp = yield from self._checked(proto.StatusRequest())
        return resp

    def transfer_rates(self):
        """Observed per-route bandwidths (the scheduler feedback hook).

        Returns ``{(src_kind, dst_kind): bytes_per_second}``.
        """
        detail = yield from self.send_command("report-rates")
        rates = {}
        if detail:
            for item in detail.split(";"):
                route, _, value = item.partition("=")
                src, _, dst = route.partition("->")
                rates[(src, dst)] = float(value)
        return rates

    # -- dataspace management ------------------------------------------------
    @staticmethod
    def backend_init(backend_kind: str, mount: str, quota_bytes: int = 0,
                     track: bool = False) -> proto.DataspaceDesc:
        """``nornsctl_backend_init(flags, path)`` analogue."""
        return proto.DataspaceDesc(nsid="", backend_kind=backend_kind,
                                   mount=mount, quota_bytes=quota_bytes,
                                   track=track)

    def register_dataspace(self, nsid: str, backend: proto.DataspaceDesc):
        desc = proto.DataspaceDesc(
            nsid=nsid, backend_kind=backend.backend_kind,
            mount=backend.mount, quota_bytes=backend.quota_bytes,
            track=backend.track)
        yield from self._checked(
            proto.RegisterDataspaceRequest(dataspace=desc))

    def update_dataspace(self, nsid: str, backend: proto.DataspaceDesc):
        desc = proto.DataspaceDesc(
            nsid=nsid, backend_kind=backend.backend_kind,
            mount=backend.mount, quota_bytes=backend.quota_bytes,
            track=backend.track)
        yield from self._checked(
            proto.UpdateDataspaceRequest(dataspace=desc))

    def unregister_dataspace(self, nsid: str):
        yield from self._checked(
            proto.UnregisterDataspaceRequest(nsid=nsid))

    # -- job management ----------------------------------------------------------
    @staticmethod
    def job_init(hosts: Iterable[str], nsids: Iterable[str],
                 quota_bytes: int = 0) -> proto.RegisterJobRequest:
        """``nornsctl_job_init(hosts, limits)`` analogue (sans job id)."""
        return proto.RegisterJobRequest(
            hosts=list(hosts),
            limits=proto.JobLimits(nsids=list(nsids),
                                   quota_bytes=quota_bytes))

    def register_job(self, job_id: int, job: proto.RegisterJobRequest):
        msg = proto.RegisterJobRequest(job_id=job_id, hosts=job.hosts,
                                       limits=job.limits)
        yield from self._checked(msg)

    def update_job(self, job_id: int, hosts: Iterable[str],
                   nsids: Iterable[str]):
        msg = proto.UpdateJobRequest(
            job_id=job_id, hosts=list(hosts),
            limits=proto.JobLimits(nsids=list(nsids)))
        yield from self._checked(msg)

    def unregister_job(self, job_id: int):
        yield from self._checked(proto.UnregisterJobRequest(job_id=job_id))

    # -- process management ------------------------------------------------------
    def add_process(self, job_id: int, pid: int, uid: int, gid: int):
        yield from self._checked(proto.AddProcessRequest(
            job_id=job_id, pid=pid, uid=uid, gid=gid))

    def remove_process(self, job_id: int, pid: int):
        yield from self._checked(proto.RemoveProcessRequest(
            job_id=job_id, pid=pid))
