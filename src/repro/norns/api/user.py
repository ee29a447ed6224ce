"""The ``norns`` user API (Table I, bottom half).

Used by application processes running inside a batch job: query the
dataspaces the scheduler configured for them, then define, submit,
monitor and wait on I/O tasks — the Listing 2 workflow::

    task = client.iotask_init(TaskType.COPY,
                              memory_region(size),
                              posix_path("tmp0://", "path/to/output"))
    yield from client.submit(task)
    ...  # work not dependent on the task
    stats = yield from client.wait(task)
    if stats.status is TaskStatus.ERROR: ...
"""

from __future__ import annotations

from repro.net.sockets import Credentials, LocalSocketHub
from repro.norns.api.common import BaseClient, ClientTask
from repro.wire import norns_proto as proto

__all__ = ["ClientTask", "NornsClient"]


class NornsClient(BaseClient):
    """User-socket client bound to one application process (pid); the
    I/O-task calls (``iotask_init``, ``submit``, ``wait``, ``error``)
    come from :class:`BaseClient`."""

    def __init__(self, sim, hub: LocalSocketHub, creds: Credentials,
                 pid: int,
                 socket_path: str = "/var/run/norns/urd.usr.sock") -> None:
        super().__init__(sim, hub, creds, socket_path, pid=pid)

    # -- norns_get_dataspace_info ------------------------------------------------
    def get_dataspace_info(self):
        """List the dataspaces this process may use."""
        msg = proto.GetDataspaceInfoRequest(pid=self.pid)
        resp = yield from self._checked(msg)
        return list(resp.dataspaces)
