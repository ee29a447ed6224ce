"""AF_UNIX-style local sockets with file-system permission semantics.

NORNS creates two sockets per node — a *control* socket owned by the
``norns`` group and a *user* socket open to the ``norns-user`` group —
and relies on kernel permission bits to keep user processes off the
administrative interface (Section IV-B).  This module reproduces that
mechanism: connecting requires write permission on the socket path,
evaluated against the caller's (uid, gid, supplementary groups).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConnectionRefused, PermissionDenied, SimError
from repro.sim.core import TRIGGERED, Event, Simulator, _new_event
from repro.sim.resources import Store

__all__ = ["Credentials", "Channel", "Listener", "LocalSocketHub"]

#: Default one-way latency of a local IPC message (seconds).  Calibrated
#: with the per-request daemon service cost so Fig. 4's ~20–50 µs local
#: round trips come out.
DEFAULT_IPC_LATENCY = 2.0e-6


@dataclass(frozen=True)
class Credentials:
    """POSIX-style process identity used in permission checks."""

    uid: int
    gid: int
    groups: frozenset[int] = field(default_factory=frozenset)

    def in_group(self, gid: int) -> bool:
        return gid == self.gid or gid in self.groups

    @staticmethod
    def root() -> "Credentials":
        return Credentials(uid=0, gid=0)


def _may_write(creds: Credentials, owner_uid: int, owner_gid: int,
               mode: int) -> bool:
    """POSIX write-permission evaluation (owner, then group, then other)."""
    if creds.uid == 0:
        return True
    if creds.uid == owner_uid:
        return bool(mode & 0o200)
    if creds.in_group(owner_gid):
        return bool(mode & 0o020)
    return bool(mode & 0o002)


class _Hop(Event):
    """One message on its way to ``peer``: a timeout whose value is
    ``None`` (what the sender waits for) and whose callback is
    :func:`_land`."""

    __slots__ = ("peer", "payload")


def _land(hop: _Hop) -> None:
    """A message hop landed: queue its payload in the peer's inbox."""
    peer = hop.peer
    if not peer.closed:
        peer._inbox.put(hop.payload)


class Channel:
    """One endpoint of an established connection.

    ``send`` delivers a payload into the peer's inbox after the hub's
    IPC latency; ``recv`` blocks on the local inbox.  Payloads are
    opaque — the NORNS APIs pass wire frames, which are lazy
    :class:`~repro.wire.frames.WireFrame` envelopes rather than real
    bytes, so the channel never forces serialization.
    A closed channel delivers ``None`` to pending/future ``recv``
    calls, like EOF.
    """

    __slots__ = ("_sim", "_latency", "_inbox", "peer", "closed", "name",
                 "trace_ctx")

    def __init__(self, sim: Simulator, latency: float, name: str = "") -> None:
        if latency < 0:
            # send() schedules its hop without Simulator.timeout's check.
            raise SimError(f"negative IPC latency {latency!r}")
        self._sim = sim
        self._latency = latency
        self._inbox: Store = Store(sim, name=f"{name}:inbox")
        self.peer: Optional["Channel"] = None
        self.closed = False
        self.name = name
        #: span id of the sender's in-flight request (repro.obs trace
        #: context).  Out-of-band metadata: never serialized, so the
        #: wire encodings are unchanged.
        self.trace_ctx = -1

    def send(self, payload: object) -> Event:
        """Queue ``payload`` for the peer; returns the delivery event.

        The delivery event is the hop itself: a timeout of the hub's
        IPC latency that carries the peer and the payload in two slots
        and puts the payload in the peer's inbox when it fires (unless
        the peer closed meanwhile).  The sender waits on it and gets
        ``None``.  No closure is made per hop.
        """
        peer = self.peer
        sim = self._sim
        if self.closed or peer is None or peer.closed:
            ev = sim.event()
            ev.fail(ConnectionRefused(f"{self.name}: peer closed"))
            return ev
        # Simulator.timeout's construction, inlined for the subclass.
        hop = _new_event(_Hop)
        hop.sim = sim
        hop.name = ""
        hop.callbacks = _land
        hop._ok = True
        hop._value = None
        hop._state = TRIGGERED
        hop._defunct = False
        hop.peer = peer
        hop.payload = payload
        sim._schedule(hop, self._latency)
        return hop

    def recv(self) -> Event:
        """Event yielding the next payload (or ``None`` after close)."""
        return self._inbox.get()

    def close(self) -> None:
        """Half-close: the peer's pending recv gets EOF (``None``).

        The second close of a pair unlinks the two ends, so a finished
        connection is not a reference cycle.
        """
        if self.closed:
            return
        self.closed = True
        peer = self.peer
        if peer is None:
            return
        if peer.closed:
            self.peer = peer.peer = None
        else:
            peer._inbox.put(None)


class Listener:
    """Server side of a bound socket path: accept incoming channels."""

    __slots__ = ("sim", "path", "owner", "mode", "_backlog", "closed")

    def __init__(self, sim: Simulator, path: str, owner: Credentials,
                 mode: int) -> None:
        self.sim = sim
        self.path = path
        self.owner = owner
        self.mode = mode
        self._backlog: Store = Store(sim, name=f"listener:{path}")
        self.closed = False

    def accept(self) -> Event:
        """Event yielding the server-side :class:`Channel` of the next
        connection."""
        return self._backlog.get()

    def close(self) -> None:
        self.closed = True


class LocalSocketHub:
    """The per-node namespace of bound local sockets."""

    def __init__(self, sim: Simulator, node: str = "localhost",
                 ipc_latency: float = DEFAULT_IPC_LATENCY) -> None:
        self.sim = sim
        self.node = node
        self.ipc_latency = ipc_latency
        self._bound: Dict[str, Listener] = {}

    def listen(self, path: str, owner: Credentials,
               mode: int = 0o660) -> Listener:
        """Bind ``path`` with the given ownership and permission bits."""
        if path in self._bound and not self._bound[path].closed:
            raise SimError(f"socket path {path!r} already bound")
        lst = Listener(self.sim, path, owner, mode)
        self._bound[path] = lst
        return lst

    def unlink(self, path: str) -> None:
        lst = self._bound.pop(path, None)
        if lst is not None:
            lst.close()

    def connect(self, path: str, creds: Credentials) -> "Event":
        """Connect to ``path``; returns an event yielding the client
        :class:`Channel`.

        Raises (via the event) :class:`ConnectionRefused` for unbound
        paths and :class:`PermissionDenied` when ``creds`` lack write
        permission — exactly how the real urd keeps unauthorized
        processes off the control socket.
        """
        ev = self.sim.event(name=f"connect:{path}")
        lst = self._bound.get(path)
        if lst is None or lst.closed:
            ev.fail(ConnectionRefused(f"no listener on {path!r}"))
            return ev
        if not _may_write(creds, lst.owner.uid, lst.owner.gid, lst.mode):
            ev.fail(PermissionDenied(
                f"uid={creds.uid} gid={creds.gid} may not connect to "
                f"{path!r} (owner uid={lst.owner.uid} gid={lst.owner.gid} "
                f"mode={lst.mode:#o})"))
            return ev
        client = Channel(self.sim, self.ipc_latency, name=f"{path}:client")
        server = Channel(self.sim, self.ipc_latency, name=f"{path}:server")
        client.peer, server.peer = server, client

        def finish(_e: Event) -> None:
            lst._backlog.put(server)
            if not ev.triggered:
                ev.succeed(client)

        self.sim.timeout(self.ipc_latency).add_callback(finish)
        return ev
