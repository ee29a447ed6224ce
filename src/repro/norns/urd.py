"""The ``urd`` resource-control daemon.

One urd runs per compute node (Figure 3).  Internal components, kept
1:1 with the paper:

* two AF_UNIX listeners — a *control* socket (``norns`` group) and a
  *user* socket (``norns-user`` group) — each feeding a shared **accept
  thread** that deserializes requests, creates task descriptors and
  enqueues them;
* a **task queue** ordered by a pluggable **task scheduler** (FCFS by
  default);
* a pool of **worker threads** that validate tasks against the **job &
  dataspace controller** and execute them through **transfer plugins**;
* a **completion list** clients query/wait on;
* a **network manager** (Mercury endpoint) serving node-to-node RPCs
  (`norns.submit`, push/pull control messages) and RDMA bulk transfers;
* an **E.T.A. tracker** whose estimates are returned on submission so
  Slurm can time stage-ins and node releases.

All request framing is real serialized bytes through
:mod:`repro.wire`; all waiting is virtual time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import (
    NetworkError, NornsAccessDenied, NornsBusyDataspace,
    NornsDataspaceExists, NornsDataspaceNotFound, NornsError,
    NornsJobNotFound, NornsNoPlugin, NornsNotRegistered, NornsTaskError,
    NoSpace, NoSuchFile, StorageError,
)
from repro.net.mercury import MercuryEndpoint, MercuryNetwork
from repro.net.sockets import Credentials, LocalSocketHub
from repro.norns.controller import Controller
from repro.norns.dataspace import Dataspace, LocalBackend, SharedBackend
from repro.norns.eta import TransferRateTracker
from repro.norns.plugins import default_registry
from repro.norns.plugins.base import PluginRegistry, TransferContext, resource_kind
from repro.norns.queue import ArbitrationPolicy, FCFSPolicy, TaskQueue
from repro.norns.resources import DataResource
from repro.norns.task import IOTask, TaskStatus, TaskType
from repro.resilience import NodeResilience, ResilienceConfig
from repro.sim.core import Event, Simulator
from repro.sim.flows import CapacityConstraint
from repro.sim.primitives import any_of
from repro.sim.resources import Resource
from repro.storage.filesystem import FileContent
from repro.wire import WirePayload, make_frame, open_frame
from repro.wire import norns_proto as proto

__all__ = ["UrdConfig", "UrdDaemon", "UrdDirectory", "GID_NORNS",
           "GID_NORNS_USER", "error_code_for"]

#: Conventional group ids for the two permission domains (Section IV-B).
GID_NORNS = 500
GID_NORNS_USER = 501

_ADMIN_ON_USER_SOCKET = "administrative request on the user socket"

#: Map NornsError subclasses to wire error codes.
_ERROR_CODES = (
    (NornsDataspaceNotFound, proto.ERR_NOSUCHNSID),
    (NornsDataspaceExists, proto.ERR_NSIDEXISTS),
    (NornsNotRegistered, proto.ERR_NOTREGISTERED),
    (NornsAccessDenied, proto.ERR_ACCESSDENIED),
    (NornsNoPlugin, proto.ERR_NOPLUGIN),
    (NornsBusyDataspace, proto.ERR_BUSY),
    (NornsJobNotFound, proto.ERR_NOSUCHJOB),
    (NornsTaskError, proto.ERR_TASKERROR),
    (NoSuchFile, proto.ERR_TASKERROR),
    (NoSpace, proto.ERR_TASKERROR),
    (NornsError, proto.ERR_BADREQUEST),
    # Network failures (deadline blown, peer partitioned/suspect) kill
    # the transfer, not the daemon: the task is marked TASKERROR.
    (NetworkError, proto.ERR_TASKERROR),
)

#: Shared span-args dicts for the serve path, keyed by request type
#: name.  One serve span per request at replay scale: a fresh dict per
#: span is enough surviving garbage to tip extra full-heap GC passes,
#: so every span for the same request type shares one dict (treat
#: tracer args as immutable).
_RPC_SPAN_ARGS: Dict[str, dict] = {}


def _rpc_span_args(name: str) -> dict:
    args = _RPC_SPAN_ARGS.get(name)
    if args is None:
        args = _RPC_SPAN_ARGS[name] = {"rpc": name}
    return args


def error_code_for(exc: BaseException) -> int:
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return proto.ERR_BADREQUEST


@dataclass
class UrdConfig:
    """Tunables of one urd instance."""

    node: str
    control_socket: str = "/var/run/norns/urd.ctl.sock"
    user_socket: str = "/var/run/norns/urd.usr.sock"
    workers: int = 8
    #: CPU time the accept thread spends per request (deserialize +
    #: descriptor + enqueue + respond).  Calibrated so one daemon peaks
    #: near the paper's ~700k local requests/s (Fig. 4).
    request_service_time: float = 1.4e-6
    #: Metadata-only task cost (REMOVE).
    metadata_op_time: float = 5.0e-6
    #: Default route rate assumed before any observation (bytes/s).
    eta_default_rate: float = 1.0e9
    #: How many times a corrupted transfer is re-executed before the
    #: task is failed (fault-injection resilience path).
    task_retries: int = 2
    #: Base delay before a retry; doubles per attempt.
    retry_backoff: float = 0.05


class UrdDirectory:
    """Cluster-wide name -> urd registry (the NA address book)."""

    def __init__(self) -> None:
        self._daemons: Dict[str, "UrdDaemon"] = {}

    def register(self, daemon: "UrdDaemon") -> None:
        if daemon.node in self._daemons:
            raise NornsError(f"urd already registered for {daemon.node!r}")
        self._daemons[daemon.node] = daemon

    def lookup(self, node: str) -> "UrdDaemon":
        d = self._daemons.get(node)
        if d is None:
            raise NornsError(f"no urd registered for node {node!r}")
        return d

    def nodes(self) -> list[str]:
        return sorted(self._daemons)

    def __contains__(self, node: str) -> bool:
        return node in self._daemons


class UrdDaemon:
    """One per-node NORNS daemon instance."""

    def __init__(self, sim: Simulator, config: UrdConfig,
                 hub: LocalSocketHub,
                 network: Optional[MercuryNetwork] = None,
                 directory: Optional[UrdDirectory] = None,
                 policy: Optional[ArbitrationPolicy] = None,
                 plugins: Optional[PluginRegistry] = None,
                 membus: Optional[CapacityConstraint] = None) -> None:
        self.sim = sim
        self.config = config
        self.node = config.node
        self.hub = hub
        self.controller = Controller()
        self.queue = TaskQueue(sim, policy or FCFSPolicy(),
                               name=f"urd:{self.node}:taskq")
        self.plugins = plugins or default_registry()
        self.tracker = TransferRateTracker(default_rate=config.eta_default_rate)
        self.membus = membus
        self.directory = directory
        self.endpoint: Optional[MercuryEndpoint] = None
        self.accepting = True
        #: daemon outage flag (fault injection): a down urd sheds new
        #: submissions with ``ERR_AGAIN`` and its endpoint drops RPCs.
        self.down = False
        #: RPC hardening layer; built by :meth:`enable_resilience`,
        #: armed/disarmed by the fault injector.
        self.resilience: Optional[NodeResilience] = None
        self._tasks: Dict[int, IOTask] = {}
        self._task_ids = itertools.count(1)
        self._accept_thread = Resource(sim, 1, name=f"urd:{self.node}:accept")
        #: process labels of the serve path (read only by ``repr``),
        #: formatted once per daemon rather than per connection/request.
        self._conn_label = f"urd:{self.node}:conn"
        self._parked_label = f"urd:{self.node}:parked"
        self.requests_served = 0
        self.tasks_completed = 0
        self.tasks_failed = 0
        # -- resilience bookkeeping (repro.faults) ---------------------
        #: corrupted executions that were re-queued with backoff.
        self.tasks_retried = 0
        #: queued/in-flight tasks lost to daemon restarts.
        self.tasks_lost = 0
        self.bytes_lost = 0
        self.bytes_corrupted = 0
        self.restarts = 0
        #: armed corruption count (next N transfers fail verification).
        self._corrupt_next = 0
        #: incarnation counter — a worker resuming from a transfer that
        #: started before a restart discards its stale result.
        self._epoch = 0
        #: tasks currently executing on a worker (restart loses them).
        self._running: Dict[int, IOTask] = {}
        #: corruption retries waiting out their backoff, task_id ->
        #: (task, timeout handle) — restart loses these as well.
        self._backoff: Dict[int, tuple] = {}

        # Sockets: control for the scheduler, user for applications.
        self._control_listener = hub.listen(
            config.control_socket, Credentials(uid=0, gid=GID_NORNS),
            mode=0o660)
        self._user_listener = hub.listen(
            config.user_socket, Credentials(uid=0, gid=GID_NORNS_USER),
            mode=0o660)
        sim.process(self._accept_loop(self._control_listener, True),
                    name=f"urd:{self.node}:accept:ctl")
        sim.process(self._accept_loop(self._user_listener, False),
                    name=f"urd:{self.node}:accept:usr")
        for i in range(config.workers):
            sim.process(self._worker(), name=f"urd:{self.node}:worker{i}")

        if network is not None:
            self.endpoint = network.endpoint(self.node)
            self._register_remote_handlers()
        if directory is not None:
            directory.register(self)

    # ------------------------------------------------------------------
    # Accept path
    # ------------------------------------------------------------------
    def _accept_loop(self, listener, is_control: bool):
        while True:
            chan = yield listener.accept()
            self.sim.process(self._serve_connection(chan, is_control),
                             name=self._conn_label)

    def _serve_connection(self, chan, is_control: bool):
        while True:
            frame = yield chan.recv()
            if frame is None:
                chan.close()  # client closed: unlink the pair
                return
            t = self.sim.tracer
            sid = -1 if t is None else t.begin(
                "urd", "serve", track=self.node,
                parent=getattr(chan.peer, "trace_ctx", -1)
                if chan.peer is not None else -1)
            # The accept thread serializes request processing — this is
            # the Fig. 4 bottleneck.
            yield self._accept_thread.request()
            try:
                yield self.sim.timeout(self.config.request_service_time)
                try:
                    msg = open_frame(proto.NORNS_PROTOCOL, frame)
                except Exception as exc:
                    response: object = proto.GenericResponse(
                        error_code=proto.ERR_BADREQUEST, detail=str(exc))
                    msg = None
            finally:
                self._accept_thread.release()
            if msg is not None:
                response = self._dispatch(msg, is_control)
            self.requests_served += 1
            if hasattr(response, "send"):  # parked handler (wait)
                self.sim.process(
                    self._respond_later(chan, response, sid=sid),
                    name=self._parked_label)
            else:
                if sid >= 0:
                    self.sim.tracer.end(
                        sid, args=_rpc_span_args(type(msg).__name__
                                                 if msg is not None
                                                 else "bad_frame"))
                yield chan.send(make_frame(proto.NORNS_PROTOCOL, response))

    def _respond_later(self, chan, handler_gen, sid: int = -1):
        response = yield self.sim.process(handler_gen)
        if sid >= 0 and self.sim.tracer is not None:
            self.sim.tracer.end(sid, args=_rpc_span_args("parked"))
        yield chan.send(make_frame(proto.NORNS_PROTOCOL, response))

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, msg, is_control: bool):
        # Framing hands over exactly the registered class, so the exact
        # class is the key (a subclass is not a registered request).
        entry = self._REQUEST_TABLE.get(msg.__class__)
        if entry is None:
            return proto.GenericResponse(
                error_code=proto.ERR_BADREQUEST,
                detail=f"unsupported message {type(msg).__name__}")
        handler, needs_control = entry
        try:
            if needs_control and not is_control:
                raise NornsAccessDenied(_ADMIN_ON_USER_SOCKET)
            return handler(self, msg, is_control)
        except NornsError as exc:
            return proto.GenericResponse(error_code=error_code_for(exc),
                                         detail=str(exc))

    def _handle_unregister_dataspace(self, msg, is_control: bool):
        self.controller.unregister_dataspace(msg.nsid)
        return proto.GenericResponse(error_code=proto.ERR_SUCCESS)

    def _handle_register_job(self, msg, is_control: bool):
        limits = msg.limits
        self.controller.register_job(
            msg.job_id, msg.hosts,
            limits.nsids if limits else (),
            limits.quota_bytes if limits else 0)
        return proto.GenericResponse(error_code=proto.ERR_SUCCESS)

    def _handle_update_job(self, msg, is_control: bool):
        limits = msg.limits
        self.controller.update_job(
            msg.job_id, hosts=msg.hosts or None,
            nsids=limits.nsids if limits else None)
        return proto.GenericResponse(error_code=proto.ERR_SUCCESS)

    def _handle_unregister_job(self, msg, is_control: bool):
        self.controller.unregister_job(msg.job_id)
        return proto.GenericResponse(error_code=proto.ERR_SUCCESS)

    def _handle_add_process(self, msg, is_control: bool):
        self.controller.add_process(msg.job_id, msg.pid, msg.uid, msg.gid)
        return proto.GenericResponse(error_code=proto.ERR_SUCCESS)

    def _handle_remove_process(self, msg, is_control: bool):
        self.controller.remove_process(msg.job_id, msg.pid)
        return proto.GenericResponse(error_code=proto.ERR_SUCCESS)

    def _handle_command(self, msg: proto.CommandRequest, is_control: bool):
        cmd = msg.command
        if cmd == "ping":
            return proto.GenericResponse(error_code=proto.ERR_SUCCESS,
                                         detail="pong")
        if not is_control:
            raise NornsAccessDenied(_ADMIN_ON_USER_SOCKET)
        if cmd == "report-rates":
            # Observed per-route bandwidth feedback for the scheduler.
            detail = ";".join(
                f"{src}->{dst}={rate:.6g}"
                for (src, dst), rate in self.tracker.routes().items())
            return proto.GenericResponse(error_code=proto.ERR_SUCCESS,
                                         detail=detail)
        if cmd == "pause-accept":
            self.accepting = False
        elif cmd == "resume-accept":
            self.accepting = True
        elif cmd == "shutdown":
            self.accepting = False
            self._control_listener.close()
            self._user_listener.close()
        else:
            return proto.GenericResponse(error_code=proto.ERR_BADREQUEST,
                                         detail=f"unknown command {cmd!r}")
        return proto.GenericResponse(error_code=proto.ERR_SUCCESS)

    def _handle_daemon_status(self, msg,
                              is_control: bool) -> proto.DaemonStatusResponse:
        running = sum(1 for t in self._tasks.values()
                      if t.stats.status == TaskStatus.RUNNING)
        return proto.DaemonStatusResponse(
            error_code=proto.ERR_SUCCESS,
            running_tasks=running,
            pending_tasks=len(self.queue),
            completed_tasks=self.tasks_completed,
            registered_jobs=len(self.controller.jobs()),
            registered_dataspaces=len(self.controller.dataspaces()),
            accepting=self.accepting,
            failed_tasks=self.tasks_failed,
            retried_tasks=self.tasks_retried)

    # -- dataspace registration -------------------------------------------
    #: node-local mount table: mount path -> backend, provided by slurmd
    #: (or the cluster builder) before dataspaces are registered.
    def set_mount_table(self, table: Dict[str, object]) -> None:
        self._mount_table = dict(table)

    def _handle_register_dataspace(self, msg, is_control: bool):
        return self._install_dataspace(msg.dataspace, update=False)

    def _handle_update_dataspace(self, msg, is_control: bool):
        return self._install_dataspace(msg.dataspace, update=True)

    def _install_dataspace(self, desc: proto.DataspaceDesc, update: bool):
        table = getattr(self, "_mount_table", {})
        backend = table.get(desc.mount)
        if backend is None:
            raise NornsDataspaceNotFound(
                f"no storage mounted at {desc.mount!r} on {self.node}")
        ds = Dataspace(desc.nsid, backend, backend_kind=desc.backend_kind,
                       quota_bytes=desc.quota_bytes, track=desc.track)
        if update:
            self.controller.update_dataspace(ds)
        else:
            self.controller.register_dataspace(ds)
        return proto.GenericResponse(error_code=proto.ERR_SUCCESS)

    # -- task submission ----------------------------------------------------
    def _shed(self, detail: str) -> proto.GenericResponse:
        """Reject a submission with the retryable busy code."""
        if self.resilience is not None:
            self.resilience.counters.requests_shed += 1
        return proto.GenericResponse(error_code=proto.ERR_AGAIN,
                                     detail=detail)

    def _handle_submit(self, msg: proto.IotaskSubmitRequest,
                       is_control: bool):
        if self.down:
            return self._shed("daemon restarting")
        res = self.resilience
        if res is not None and res.armed \
                and 0 < res.config.admission_limit \
                <= len(self.queue) + len(self._running):
            return self._shed(
                f"admission queue full ({res.config.admission_limit})")
        if not self.accepting:
            return proto.GenericResponse(error_code=proto.ERR_BUSY,
                                         detail="daemon paused")
        src = DataResource.from_wire(msg.input) if msg.input else None
        dst = DataResource.from_wire(msg.output) if msg.output else None
        task = IOTask(
            task_id=next(self._task_ids),
            task_type=TaskType(msg.task_type),
            src=src, dst=dst, pid=msg.pid,
            priority=msg.priority,
            # admin only honoured on the control socket.
            admin=bool(msg.admin and is_control),
        )
        task.done = self.sim.event(name=f"task#{task.task_id}:done")
        try:
            self.controller.validate_task(task)
        except NornsError as exc:
            return proto.GenericResponse(error_code=error_code_for(exc),
                                         detail=str(exc))
        # Fill the size hint for ETA/SJF from the source when possible.
        task.stats.bytes_total = self._size_hint(task)
        route = self._route_of(task)
        eta = self.tracker.eta(route, task.stats.bytes_total,
                               self.queue.pending_bytes())
        task.mark_queued(self.sim.now)
        task.epoch = self._epoch
        self._tasks[task.task_id] = task
        self.queue.push(task)
        return proto.SubmitResponse(error_code=proto.ERR_SUCCESS,
                                    task_id=task.task_id, eta_seconds=eta)

    def _size_hint(self, task: IOTask) -> int:
        if task.src is not None:
            if task.src.is_memory:
                return task.src.size
            if not task.src.is_remote:
                try:
                    ds = self.controller.resolve(task.src.nsid)
                    if ds.backend.exists(task.src.path):
                        return ds.backend.stat(task.src.path).size
                except NornsError:
                    pass
            elif task.src.size:
                return task.src.size
        return task.src.size if task.src else 0

    def _route_of(self, task: IOTask):
        route = task.route
        if route is None:
            try:
                src_kind = resource_kind(self.controller, task.src)
                dst_kind = resource_kind(self.controller, task.dst)
            except NornsError:
                src_kind = dst_kind = None
            route = (src_kind or "-", dst_kind or "-")
            task.route = route
        return route

    # -- task status / wait -------------------------------------------------
    def _task_status_response(self, task: IOTask) -> proto.TaskStatusResponse:
        elapsed = 0.0
        if task.started_at is not None:
            end = task.finished_at if task.finished_at is not None else self.sim.now
            elapsed = end - task.started_at
        eta = 0.0
        if not task.stats.is_terminal:
            route = self._route_of(task)
            eta = self.tracker.eta(route, task.stats.bytes_total)
        return proto.TaskStatusResponse(
            error_code=proto.ERR_SUCCESS, task_id=task.task_id,
            status=task.stats.status.value,
            task_error=task.stats.error_code,
            bytes_total=task.stats.bytes_total,
            bytes_moved=task.stats.bytes_moved,
            eta_seconds=eta, elapsed_seconds=elapsed)

    def _handle_status(self, msg: proto.IotaskStatusRequest,
                       is_control: bool):
        task = self._tasks.get(msg.task_id)
        if task is None:
            return proto.GenericResponse(error_code=proto.ERR_NOSUCHTASK,
                                         detail=f"task {msg.task_id}")
        return self._task_status_response(task)

    def _handle_wait(self, msg: proto.IotaskWaitRequest, is_control: bool):
        """Parked handler: generator completing when the task does."""
        task = self._tasks.get(msg.task_id)
        if task is None:
            def missing():
                return proto.GenericResponse(
                    error_code=proto.ERR_NOSUCHTASK,
                    detail=f"task {msg.task_id}")
                yield  # pragma: no cover
            return missing()

        timeout = msg.timeout_seconds

        def park():
            # Sentinel protocol (clients encode ``timeout=None`` as a
            # negative value): <0 waits forever, 0 is a non-blocking
            # poll, >0 bounds the wait.
            if not task.stats.is_terminal:
                if timeout > 0:
                    deadline = self.sim.timeout(timeout)
                    fired = yield any_of(self.sim, [task.done, deadline])
                    if task.done not in fired:
                        return proto.GenericResponse(
                            error_code=proto.ERR_TIMEOUT,
                            detail=f"task {task.task_id} still "
                                   f"{task.stats.status.value}")
                elif timeout == 0:
                    return proto.GenericResponse(
                        error_code=proto.ERR_TIMEOUT,
                        detail=f"task {task.task_id} still "
                               f"{task.stats.status.value}")
                else:
                    yield task.done
            return self._task_status_response(task)

        return park()

    def _handle_dataspace_info(self, msg: proto.GetDataspaceInfoRequest,
                               is_control: bool):
        spaces = self.controller.visible_dataspaces(msg.pid)
        return proto.DataspaceInfoResponse(
            error_code=proto.ERR_SUCCESS,
            dataspaces=[proto.DataspaceDesc(
                nsid=ds.nsid, backend_kind=ds.backend_kind,
                quota_bytes=ds.quota_bytes, track=ds.track)
                for ds in spaces])

    #: request class -> (handler, needs the control socket); handlers
    #: are called as ``handler(self, msg, is_control)``.  A class that
    #: is not a key (responses, ``RemoteFileRequest``, anything
    #: unregistered) is answered ``ERR_BADREQUEST``.
    _REQUEST_TABLE = {
        proto.CommandRequest: (_handle_command, False),
        proto.StatusRequest: (_handle_daemon_status, False),
        proto.RegisterDataspaceRequest: (_handle_register_dataspace, True),
        proto.UpdateDataspaceRequest: (_handle_update_dataspace, True),
        proto.UnregisterDataspaceRequest: (_handle_unregister_dataspace, True),
        proto.RegisterJobRequest: (_handle_register_job, True),
        proto.UpdateJobRequest: (_handle_update_job, True),
        proto.UnregisterJobRequest: (_handle_unregister_job, True),
        proto.AddProcessRequest: (_handle_add_process, True),
        proto.RemoveProcessRequest: (_handle_remove_process, True),
        proto.IotaskSubmitRequest: (_handle_submit, False),
        proto.IotaskStatusRequest: (_handle_status, False),
        proto.IotaskWaitRequest: (_handle_wait, False),   # generator (parked)
        proto.GetDataspaceInfoRequest: (_handle_dataspace_info, False),
    }

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker(self):
        ctx = TransferContext(sim=self.sim, node=self.node,
                              controller=self.controller,
                              endpoint=self.endpoint,
                              directory=self.directory,
                              membus=self.membus,
                              resilience=self.resilience)
        while True:
            task = yield self.queue.pop()
            if task.stats.is_terminal:
                continue  # lost to a daemon restart while queued
            if task.epoch != self._epoch:
                # Handed over in the very instant the daemon died
                # (popped from the store before restart() could drain
                # it): it is lost in-flight work, not survivor work.
                self.tasks_lost += 1
                self.bytes_lost += task.stats.bytes_total
                task.mark_error(self.sim.now, proto.ERR_TASKERROR,
                                "urd restart: task lost in hand-off")
                self.tasks_failed += 1
                self._trace_task(task)
                continue
            epoch = self._epoch
            task.mark_running(self.sim.now)
            self.controller.task_started(task)
            self._running[task.task_id] = task
            bytes_moved = 0
            failure: Optional[tuple[int, str]] = None
            try:
                if task.task_type == TaskType.REMOVE:
                    yield self.sim.timeout(self.config.metadata_op_time)
                    ds = self.controller.resolve(task.src.nsid)
                    ds.backend.delete(task.src.path)
                else:
                    src_kind = resource_kind(self.controller, task.src)
                    dst_kind = resource_kind(self.controller, task.dst)
                    plugin = self.plugins.lookup(src_kind, dst_kind)
                    # Both may be set after init.
                    ctx.endpoint = self.endpoint
                    ctx.resilience = self.resilience
                    bytes_moved = yield self.sim.process(
                        plugin.execute(ctx, task),
                        name=f"urd:{self.node}:{plugin.name}")
            except (NornsError, StorageError, NetworkError) as exc:
                failure = (error_code_for(exc), str(exc))
            if epoch != self._epoch:
                # The daemon restarted mid-transfer: restart() already
                # marked the task lost; discard the stale result.
                continue
            self._running.pop(task.task_id, None)
            if failure is None and self._corrupt_next > 0 \
                    and task.task_type != TaskType.REMOVE:
                # Injected corruption: the bytes moved but failed
                # verification.  Retry with exponential backoff until
                # the budget is spent (destination overwrite is safe).
                self._corrupt_next -= 1
                self.bytes_corrupted += bytes_moved
                if task.attempts < self.config.task_retries:
                    task.attempts += 1
                    self.tasks_retried += 1
                    self.controller.task_ended(task, 0)
                    task.stats.status = TaskStatus.QUEUED
                    delay = self.config.retry_backoff \
                        * (2 ** (task.attempts - 1))
                    handle = self.sim.cancellable_timeout(delay)
                    self._backoff[task.task_id] = (task, handle)
                    handle.event.add_callback(
                        lambda _e, t=task: self._requeue_retry(t))
                    continue
                failure = (proto.ERR_TASKERROR,
                           "transfer corrupted (retry budget spent)")
            if failure is not None:
                self.controller.task_ended(task, 0)
                task.mark_error(self.sim.now, failure[0], failure[1])
                self.tasks_failed += 1
                self._trace_task(task)
                continue
            self.controller.task_ended(task, bytes_moved)
            task.mark_finished(self.sim.now, bytes_moved)
            self.tasks_completed += 1
            self._trace_task(task)
            if task.elapsed and bytes_moved:
                self.tracker.observe(self._route_of(task), bytes_moved,
                                     task.elapsed)

    def _requeue_retry(self, task: IOTask) -> None:
        """Backoff expired: hand the corrupted task back to the queue."""
        self._backoff.pop(task.task_id, None)
        task.epoch = self._epoch
        self.queue.push(task)

    def _trace_task(self, task: IOTask) -> None:
        """Record a terminal task's lifecycle as retroactive spans.

        The task already carries its queued/started/finished
        timestamps, so one call at the terminal transition replaces
        live begin/end bookkeeping on the worker hot path.
        """
        t = self.sim.tracer
        if t is None or not t.wants("task"):
            return
        end = task.finished_at if task.finished_at is not None \
            else self.sim.now
        queued_end = task.started_at if task.started_at is not None else end
        args = {"task_id": task.task_id,
                "status": task.stats.status.name}
        t.complete("task", "queued", task.submitted_at, queued_end,
                   track=self.node, args=args)
        if task.started_at is not None:
            # bytes rides the raw-double nbytes channel so both spans
            # can share one args dict.
            t.complete("task", "run", task.started_at, end,
                       track=self.node, args=args,
                       nbytes=task.stats.bytes_moved)

    # ------------------------------------------------------------------
    # Fault hooks (repro.faults)
    # ------------------------------------------------------------------
    def enable_resilience(self, config: Optional[ResilienceConfig] = None,
                          seed: int = 0) -> NodeResilience:
        """Attach the RPC hardening layer (disarmed: zero overhead).

        The fault injector arms it for the duration of a non-empty
        fault plan; clean runs never schedule a single extra event.
        """
        if self.resilience is None:
            self.resilience = NodeResilience(
                self.sim, self.node, endpoint=self.endpoint,
                config=config, seed=seed)
        return self.resilience

    def set_down(self, down: bool) -> None:
        """Daemon outage toggle (node crash / urd restart window).

        While down the endpoint silently drops RPC traffic (callers
        see timeouts, heartbeats miss) and new submissions are shed
        with ``ERR_AGAIN``.
        """
        self.down = down
        if self.endpoint is not None:
            self.endpoint.up = not down
        if self.resilience is not None:
            self.resilience.local_down = down

    def inject_corruption(self, count: int = 1) -> None:
        """Arm the corruption hook: the next ``count`` data-moving
        transfers complete, fail verification, and are re-queued with
        backoff (or failed once the retry budget is spent)."""
        if count < 0:
            raise NornsError(f"negative corruption count {count}")
        self._corrupt_next += int(count)

    def restart(self) -> Dict[str, int]:
        """Crash/restart the daemon (fault injection).

        Queued and in-flight tasks are lost — marked ERROR at this
        instant so clients parked in ``norns_wait`` unblock with a task
        error — and the observed transfer-rate state is discarded, so
        every E.T.A. falls back to the configured prior until new
        transfers are observed.  Workers survive as the new
        incarnation's pool; a worker resuming from a transfer started
        before the restart discards its stale result (epoch guard).

        Returns ``{"tasks": lost_count, "bytes": lost_bytes}``.
        """
        self._epoch += 1
        lost = 0
        lost_bytes = 0
        for task in self.queue.drain():
            lost += 1
            lost_bytes += task.stats.bytes_total
            task.mark_error(self.sim.now, proto.ERR_TASKERROR,
                            "urd restart: queued task lost")
            self.tasks_failed += 1
            self._trace_task(task)
        for task, handle in list(self._backoff.values()):
            handle.cancel()
            lost += 1
            lost_bytes += task.stats.bytes_total
            task.mark_error(self.sim.now, proto.ERR_TASKERROR,
                            "urd restart: retry-pending task lost")
            self.tasks_failed += 1
            self._trace_task(task)
        self._backoff.clear()
        for task in list(self._running.values()):
            lost += 1
            lost_bytes += task.stats.bytes_total
            self.controller.task_ended(task, 0)
            task.mark_error(self.sim.now, proto.ERR_TASKERROR,
                            "urd restart: in-flight task lost")
            self.tasks_failed += 1
            self._trace_task(task)
        self._running.clear()
        self.tasks_lost += lost
        self.bytes_lost += lost_bytes
        # E.T.A. invalidation: a rebooted daemon has no observations.
        self.tracker = TransferRateTracker(
            default_rate=self.config.eta_default_rate)
        self.restarts += 1
        self.accepting = True
        return {"tasks": lost, "bytes": lost_bytes}

    # ------------------------------------------------------------------
    # Remote handlers (the network manager's RPC surface)
    # ------------------------------------------------------------------
    def _register_remote_handlers(self) -> None:
        ep = self.endpoint
        ep.register("norns.submit", self._rpc_submit)
        ep.register("norns.ping", self._rpc_ping, idempotent=True)
        ep.register("norns.pull.query", self._rpc_pull_query)
        ep.register("norns.pull.release", self._rpc_pull_release)
        ep.register("norns.push.prepare", self._rpc_push_prepare)
        ep.register("norns.push.commit", self._rpc_push_commit)

    def _rpc_submit(self, payload: WirePayload, origin: str):
        """Remote task submission (Fig. 5's request path)."""
        def handler():
            # The request still crosses the accept thread like local ones.
            yield self._accept_thread.request()
            try:
                yield self.sim.timeout(self.config.request_service_time)
            finally:
                self._accept_thread.release()
            msg = open_frame(proto.NORNS_PROTOCOL, payload)
            self.requests_served += 1
            # Remote peers are other urds/slurmds: control-plane trust.
            response = self._dispatch(msg, is_control=True)
            if hasattr(response, "send"):
                response = yield self.sim.process(response)
            return make_frame(proto.NORNS_PROTOCOL, response)

        return handler()

    def _rpc_ping(self, payload: WirePayload, origin: str) -> WirePayload:
        """Liveness probe for the heartbeat failure detector."""
        return make_frame(proto.NORNS_PROTOCOL, proto.GenericResponse(
            error_code=proto.ERR_SUCCESS, detail="pong"))

    def _decode_remote_file(self, payload: WirePayload) -> proto.RemoteFileRequest:
        msg = open_frame(proto.NORNS_PROTOCOL, payload)
        if not isinstance(msg, proto.RemoteFileRequest):
            raise NornsError(f"unexpected message {type(msg).__name__}")
        return msg

    def _remote_file_error(self, exc: Exception) -> WirePayload:
        return make_frame(proto.NORNS_PROTOCOL, proto.RemoteFileResponse(
            error_code=error_code_for(exc), detail=str(exc)))

    def _rpc_pull_query(self, payload: WirePayload, origin: str) -> WirePayload:
        try:
            msg = self._decode_remote_file(payload)
            ds = self.controller.resolve(msg.nsid)
            content = ds.backend.stat(msg.path)
        except (NornsError, StorageError) as exc:
            return self._remote_file_error(exc)
        return make_frame(proto.NORNS_PROTOCOL, proto.RemoteFileResponse(
            error_code=proto.ERR_SUCCESS, size=content.size,
            fingerprint=content.fingerprint))

    def _rpc_pull_release(self, payload: WirePayload, origin: str) -> WirePayload:
        try:
            msg = self._decode_remote_file(payload)
            ds = self.controller.resolve(msg.nsid)
            ds.backend.delete(msg.path)
        except (NornsError, StorageError) as exc:
            return self._remote_file_error(exc)
        return make_frame(proto.NORNS_PROTOCOL, proto.RemoteFileResponse(
            error_code=proto.ERR_SUCCESS))

    def _rpc_push_prepare(self, payload: WirePayload, origin: str) -> WirePayload:
        try:
            msg = self._decode_remote_file(payload)
            ds = self.controller.resolve(msg.nsid)
            backend = ds.backend
            if not isinstance(backend, LocalBackend):
                raise NornsTaskError(
                    f"{msg.nsid} is not a node-local dataspace")
            backend.mount.device.allocate(msg.size)
        except (NornsError, StorageError) as exc:
            return self._remote_file_error(exc)
        return make_frame(proto.NORNS_PROTOCOL, proto.RemoteFileResponse(
            error_code=proto.ERR_SUCCESS))

    def _rpc_push_commit(self, payload: WirePayload, origin: str) -> WirePayload:
        try:
            msg = self._decode_remote_file(payload)
            ds = self.controller.resolve(msg.nsid)
            content = FileContent(size=msg.size, fingerprint=msg.fingerprint)
            ds.backend.mount.ns.create(msg.path, content)
        except (NornsError, StorageError) as exc:
            return self._remote_file_error(exc)
        return make_frame(proto.NORNS_PROTOCOL, proto.RemoteFileResponse(
            error_code=proto.ERR_SUCCESS))

    # ------------------------------------------------------------------
    # Introspection helpers (used by Slurm and tests)
    # ------------------------------------------------------------------
    def task(self, task_id: int) -> Optional[IOTask]:
        return self._tasks.get(task_id)

    def tracked_nonempty(self) -> list[str]:
        return self.controller.tracked_nonempty()
