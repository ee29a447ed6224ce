"""Shared client-side machinery: framing, error mapping, base client
and the I/O-task calls both APIs make (Table I lists task management on
both sides)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.errors import (
    NornsAccessDenied, NornsBusy, NornsBusyDataspace, NornsDataspaceExists,
    NornsDataspaceNotFound, NornsError, NornsJobNotFound,
    NornsNoPlugin, NornsNotRegistered, NornsTaskError, NornsTimeout,
)
from repro.net.sockets import Credentials, LocalSocketHub
from repro.norns.resources import DataResource
from repro.norns.task import TaskStats, TaskStatus, TaskType
from repro.resilience import RetryPolicy
from repro.wire import make_frame, open_frame
from repro.wire import norns_proto as proto

__all__ = ["ApiError", "raise_for_code", "BaseClient", "BUSY_BACKOFF",
           "ClientTask"]


class ApiError(NornsError):
    """Unmapped daemon-side error code."""


_CODE_TO_EXC = {
    proto.ERR_NOSUCHNSID: NornsDataspaceNotFound,
    proto.ERR_NSIDEXISTS: NornsDataspaceExists,
    proto.ERR_NOTREGISTERED: NornsNotRegistered,
    proto.ERR_ACCESSDENIED: NornsAccessDenied,
    proto.ERR_TASKERROR: NornsTaskError,
    proto.ERR_NOPLUGIN: NornsNoPlugin,
    proto.ERR_TIMEOUT: NornsTimeout,
    proto.ERR_BUSY: NornsBusyDataspace,
    proto.ERR_NOSUCHJOB: NornsJobNotFound,
    proto.ERR_AGAIN: NornsBusy,
}

#: Default client reaction to a shedding/restarting daemon: patient
#: jittered-exponential backoff (a restart outage spans tens of
#: seconds, so the budget must outlast one).
BUSY_BACKOFF = RetryPolicy(max_attempts=10, base_delay=0.2,
                           multiplier=2.0, max_delay=30.0)


def raise_for_code(code: int, detail: str = "") -> None:
    """Translate a wire error code into the NornsError family."""
    if code == proto.ERR_SUCCESS:
        return
    exc_cls = _CODE_TO_EXC.get(code, ApiError)
    raise exc_cls(detail or f"error code {code}")


@dataclass(slots=True)
class ClientTask:
    """Client-side task handle (``norns_iotask_t``)."""

    task_type: TaskType
    src: Optional[DataResource]
    dst: Optional[DataResource]
    priority: int = 0
    task_id: Optional[int] = None       # set by submit()
    eta_seconds: float = 0.0            # daemon estimate at submission

    @property
    def submitted(self) -> bool:
        return self.task_id is not None


def _stats_from_response(resp: proto.TaskStatusResponse) -> TaskStats:
    return TaskStats(status=TaskStatus(resp.status),
                     error_code=resp.task_error,
                     bytes_total=resp.bytes_total,
                     bytes_moved=resp.bytes_moved)


class BaseClient:
    """One synchronous connection to a urd socket.

    Methods are generators (simulation processes): ``yield from`` them
    or wrap with ``sim.process``.  A client issues one request at a time
    over its channel, like the blocking C API.  Its I/O tasks carry the
    client's ``pid`` and, on the control socket, the ``admin`` flag.
    """

    #: submit administrative tasks (control API: no job validation).
    _admin = False

    def __init__(self, sim, hub: LocalSocketHub, creds: Credentials,
                 socket_path: str, pid: int = 0) -> None:
        self.sim = sim
        self.hub = hub
        self.creds = creds
        self.socket_path = socket_path
        self.pid = pid
        self._chan = None
        # Busy-backoff (opt-in via attach_backoff): retried requests
        # after an ERR_AGAIN shed, with seeded deterministic jitter.
        self._busy_policy: Optional[RetryPolicy] = None
        self._busy_seed = 0
        self._busy_seq = itertools.count(1)
        self._busy_sink = None
        self.busy_retries = 0

    @property
    def connected(self) -> bool:
        return self._chan is not None and not self._chan.closed

    def connect(self):
        """Establish the channel (permission-checked by the hub)."""
        self._chan = yield self.hub.connect(self.socket_path, self.creds)
        return self

    def close(self) -> None:
        if self._chan is not None:
            self._chan.close()
            self._chan = None

    def _roundtrip(self, message):
        """Send one request frame, return the decoded response."""
        if self._chan is None:
            yield from self.connect()
        t = self.sim.tracer
        sid = -1
        if t is not None:
            sid = t.begin("rpc", type(message).__name__,
                          track=self.socket_path)
            # Out-of-band trace context: the serving urd parents its
            # span on this without any change to the wire encodings.
            self._chan.trace_ctx = sid
        yield self._chan.send(make_frame(proto.NORNS_PROTOCOL, message))
        raw = yield self._chan.recv()
        if sid >= 0:
            t.end(sid)
        if raw is None:
            raise NornsError("daemon closed the connection")
        return open_frame(proto.NORNS_PROTOCOL, raw)

    def attach_backoff(self, policy: Optional[RetryPolicy] = None,
                       seed: int = 0, sink=None) -> "BaseClient":
        """Retry requests the daemon sheds (``ERR_AGAIN``).

        The retry schedule is a pure function of ``seed`` and the
        retry ordinal, so a backed-off client replays identically.
        Requests that never see ``ERR_AGAIN`` pay nothing.  ``sink``
        is an object whose ``busy_retries`` outlives this (often
        short-lived) client, for report aggregation.
        """
        self._busy_policy = policy if policy is not None else BUSY_BACKOFF
        self._busy_seed = seed
        self._busy_sink = sink
        return self

    def _checked(self, message):
        """Roundtrip + raise on error codes; returns the response.

        With :meth:`attach_backoff`, ``ERR_AGAIN`` (load-shed or
        restarting daemon) is retried after a jittered-exponential
        delay until the policy's attempt budget is spent.
        """
        policy = self._busy_policy
        attempt = 1
        key = None
        while True:
            response = yield from self._roundtrip(message)
            code = getattr(response, "error_code", proto.ERR_SUCCESS)
            detail = getattr(response, "detail", "")
            if code == proto.ERR_AGAIN and policy is not None \
                    and attempt < policy.max_attempts:
                if key is None:
                    key = f"busy:{next(self._busy_seq)}"
                yield self.sim.timeout(
                    policy.delay(self._busy_seed, key, attempt))
                attempt += 1
                self.busy_retries += 1
                if self._busy_sink is not None:
                    self._busy_sink.busy_retries += 1
                continue
            raise_for_code(code, detail)
            return response

    # shared by both APIs (Table I lists task management on both sides)
    def ping(self):
        resp = yield from self._checked(proto.CommandRequest(command="ping"))
        return resp.detail

    # -- norns_iotask_init ------------------------------------------------
    @staticmethod
    def iotask_init(task_type: TaskType, src: Optional[DataResource],
                    dst: Optional[DataResource] = None,
                    priority: int = 0) -> ClientTask:
        """Build a task descriptor (pure client-side, no I/O)."""
        return ClientTask(task_type=TaskType(task_type), src=src, dst=dst,
                          priority=priority)

    # -- norns_submit ---------------------------------------------------------
    def submit(self, task: ClientTask):
        """Submit asynchronously; fills ``task.task_id`` and ETA."""
        if task.submitted:
            raise NornsError(f"task {task.task_id} already submitted")
        msg = proto.IotaskSubmitRequest(
            task_type=int(task.task_type),
            input=task.src.to_wire() if task.src else None,
            output=task.dst.to_wire() if task.dst else None,
            pid=self.pid, priority=task.priority, admin=self._admin)
        resp = yield from self._checked(msg)
        task.task_id = resp.task_id
        task.eta_seconds = resp.eta_seconds
        return task

    # -- norns_wait -------------------------------------------------------------
    def wait(self, task: ClientTask, timeout: Optional[float] = None):
        """Block until the task completes (or ``timeout`` seconds pass).

        Returns final :class:`TaskStats`; raises
        :class:`~repro.errors.NornsTimeout` when the timeout fires first
        (the task keeps running — poll again or wait more).

        ``timeout=None`` waits forever; ``timeout=0`` is a
        non-blocking poll (on the wire, "forever" is the negative
        sentinel, so an explicit zero is *not* coerced to infinite).
        """
        if not task.submitted:
            raise NornsError("wait() on an unsubmitted task")
        msg = proto.IotaskWaitRequest(
            task_id=task.task_id, pid=self.pid,
            timeout_seconds=-1.0 if timeout is None else float(timeout))
        resp = yield from self._checked(msg)
        return _stats_from_response(resp)

    # -- norns_error ---------------------------------------------------------------
    def error(self, task: ClientTask):
        """Non-blocking status/outcome query (``norns_error``)."""
        if not task.submitted:
            raise NornsError("error() on an unsubmitted task")
        msg = proto.IotaskStatusRequest(task_id=task.task_id, pid=self.pid)
        resp = yield from self._checked(msg)
        return _stats_from_response(resp)
