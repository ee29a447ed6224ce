"""Mercury-style RPC engine with bulk (RDMA) transfers.

Reproduces the role of ANL's Mercury library in NORNS' network manager
(Section IV-B): target address lookup, point-to-point RPC messaging,
remote memory access (bulk pulls/pushes) and progress handling, with the
transport selected from the NA plugin registry at runtime.

Model highlights matching the paper's measurements:

* Each endpoint runs a *progress loop* that serializes the per-RPC
  protocol work (``plugin.rpc_service_time``); this is what saturates
  one urd instance at ≈45 k remote requests/s (Fig. 5).  The loop hands
  each request to a *dispatch* event (:class:`_Dispatch`) and moves on.
  A plain handler runs inline when that event fires; a generator
  handler (one that waits, e.g. ``norns.submit`` crossing the urd's
  accept thread) runs as its own simulation process, so long
  operations never stall the progress loop.  No request gets a
  process or a closure of its own otherwise: a heartbeat wave leaves
  nothing for the cyclic collector.
* Bulk data between a (source, destination) node pair shares a single
  *connection* capacity equal to the plugin's per-stream cap — which is
  why per-client bandwidth stays at ≈1.7–1.8 GiB/s no matter how many
  RPCs are in flight (Figs. 6–7), while aggregate bandwidth scales
  linearly with the number of client nodes.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

from repro.errors import AddressLookupError, NetworkError, RpcTimeout
from repro.net.fabric import Fabric
from repro.net.na import NAPlugin, get_plugin
from repro.sim.core import (PENDING, TRIGGERED, Event, Process, Simulator,
                            _new_event)
from repro.sim.flows import CapacityConstraint
from repro.sim.resources import Store

__all__ = ["MercuryNetwork", "MercuryEndpoint"]


def _deliver_response(hop: Event) -> None:
    """A response hop landed: settle the caller's reply event."""
    reply, value, ok = hop._value
    if reply._state != PENDING:  # client gave up (timeout)
        return
    if ok:
        # Simulator._post_now inlined: one reply per request.
        reply._ok = True
        reply._value = value
        reply._state = TRIGGERED
        reply.sim._due.append(reply)
    else:
        reply.fail(value)


class _Dispatch(Event):
    """The "dispatch boot" event of one request on its target.

    Its value is the request tuple ``(rpc, payload, origin, reply, key,
    ctx)`` read off the request hop, and its callback is :func:`_serve`.
    ``entry`` is the duplicate-suppression entry this request registered
    (``None`` for an unkeyed or idempotent rpc); the dispatch settles
    that object, so duplicates parked on it are answered even after the
    table has evicted it.  Nothing refers back to the event, so it is
    freed by reference counting once the request is answered.
    """

    __slots__ = ("endpoint", "handler", "entry", "span")

    def finish(self, value: Any, ok: bool) -> None:
        """The handler is done: record, respond, post "dispatch exit"."""
        ep = self.endpoint
        sim = self.sim
        sid = self.span
        if sid >= 0:
            # Success is the common case: no args dict, the error path
            # marks {"ok": False} so absence means success.
            if ok:
                sim.tracer.end(sid)
            else:
                sim.tracer.end(sid, args={"ok": False})
        if ok:
            ep.rpcs_served += 1
        entry = self.entry
        if entry is not None:
            ep._settle(entry, value, ok)
        request = self._value
        ep._respond(request[2], request[3], value, ok)
        # The exit event, built and posted inline (no callbacks: it
        # only marks the end of the dispatch on the calendar).
        done = _new_event(Event)
        done.sim = sim
        done.name = self.name
        done.callbacks = None
        done._ok = True
        done._value = None
        done._state = TRIGGERED
        done._defunct = False
        sim._due.append(done)

    def resume(self, handler_process: Process) -> None:
        """A generator handler's process ended: finish with its outcome."""
        self.finish(handler_process._value, handler_process._ok)


def _serve(boot: _Dispatch) -> None:
    """A dispatch boot event fired: run the handler of its request.

    A plain handler runs inline and the dispatch finishes at once.  A
    generator handler runs as its own process; its exit finishes the
    dispatch (:meth:`_Dispatch.resume`).
    """
    rpc, payload, origin, _reply, _key, ctx = boot._value
    t = boot.sim.tracer
    boot.span = -1 if t is None else t.begin(
        "rpc", rpc, track=boot.endpoint.node, parent=ctx)
    try:
        result = boot.handler(payload, origin)
    except Exception as exc:  # handler bug or domain failure
        boot.finish(exc, False)
        return
    if hasattr(result, "send"):
        Process(boot.sim, result).callbacks = boot.resume
    else:
        boot.finish(result, True)


class _Guard(Event):
    """The caller's event of a call with a timeout.

    Its bound :meth:`settle` is the one callback on both the reply and
    the deadline timer: whichever fires first settles the guard, the
    other finds it settled.  Settling drops the ``reply`` reference, so
    the reply of a dropped request (which keeps ``settle`` as its
    callback) and its guard are not a cycle once the deadline passed.
    """

    __slots__ = ("reply", "rpc", "target", "limit")

    def settle(self, _e: Event) -> None:
        if self._state != PENDING:
            return
        reply = self.reply
        self.reply = None
        if reply._state != PENDING:
            if reply._ok:
                # Simulator._post_now inlined: one guard per timed call.
                self._ok = True
                self._value = reply._value
                self._state = TRIGGERED
                self.sim._due.append(self)
            else:
                self.fail(reply._value)
        else:
            self.fail(RpcTimeout(f"rpc {self.rpc!r} to {self.target} "
                                 f"exceeded {self.limit}s"))


class MercuryEndpoint:
    """One node's attachment to the RPC network (``hg_class`` analogue).

    RPC payloads are opaque to the engine: they are lazy
    :class:`~repro.wire.frames.WireFrame` envelopes, so a
    request/response pair crosses the whole RPC path without a single
    byte being serialized.
    """

    #: retained (responded) idempotency keys before the oldest is evicted.
    DEDUP_CAPACITY = 4096

    __slots__ = ("network", "node", "sim", "plugin", "_handlers",
                 "_incoming", "_rpc_seq", "rpcs_served", "up",
                 "_dedup", "duplicates_suppressed")

    def __init__(self, network: "MercuryNetwork", node: str,
                 progress_threads: int = 1) -> None:
        self.network = network
        self.node = node
        self.sim = network.sim
        self.plugin = network.plugin
        #: rpc name -> (handler, reply-event label, dispatch-event
        #: label, guarded-reply label, idempotent)
        self._handlers: Dict[str, tuple] = {}
        self._incoming: Store = Store(self.sim, name=f"hg:{node}:in")
        self._rpc_seq = itertools.count(1)
        self.rpcs_served = 0
        #: endpoint liveness: a down endpoint (crashed/restarting
        #: daemon) silently drops traffic, like a dead NIC queue.
        self.up = True
        #: idempotency key -> [settled, ok, value, waiters] so a
        #: retried-but-duplicated request is served the original
        #: outcome instead of re-invoking the handler.
        self._dedup: Dict[str, list] = {}
        self.duplicates_suppressed = 0
        for i in range(progress_threads):
            self.sim.process(self._progress_loop(), name=f"hg:{node}:prog{i}")

    # -- registration -----------------------------------------------------
    def register(self, rpc: str, handler: Callable,
                 idempotent: bool = False) -> None:
        """Bind ``rpc`` name to a handler.

        The handler is called as ``handler(payload, origin)`` and may be
        a plain function returning the response payload, or a generator
        (a sim process) yielding events before returning it.

        ``idempotent`` declares that running the handler again for a
        repeated delivery is harmless (a liveness probe): such an rpc
        bypasses the duplicate-suppression table and retains nothing.
        """
        if rpc in self._handlers:
            raise NetworkError(f"rpc {rpc!r} already registered on {self.node}")
        # The labels every call of this rpc carries (the caller's reply
        # event, its timeout guard, the dispatch events) are read only
        # by ``repr``: format them here, once per endpoint x rpc.
        label = f"rpc:{rpc}@{self.node}"
        self._handlers[rpc] = (handler, label, f"hg:{self.node}:{rpc}",
                               f"{label}:guarded", idempotent)

    @property
    def address(self) -> str:
        return self.node

    # -- client side --------------------------------------------------------
    def call(self, target: str, rpc: str, payload: Any = b"",
             timeout: Optional[float] = None,
             key: Optional[str] = None) -> Event:
        """Issue an RPC; returns an event with the response payload.

        The request transits the fabric (propagation + plugin message
        latency), is serialized through the target's progress loop, and
        the response travels back the same way.  ``timeout`` (seconds)
        fails the event with :class:`RpcTimeout` if exceeded.  ``key``
        is an idempotency key: deliveries repeating a key the target
        has already seen are answered from its duplicate-suppression
        table instead of re-invoking the handler.

        A request toward a down endpoint or across a partitioned link
        is *dropped*, not failed: like a real network, the caller only
        learns through its own timeout.  An address with no endpoint
        fails the event at once with :class:`AddressLookupError` (the NA
        address lookup).

        Each hop is one timeout whose value is the message tuple and
        whose only callback is the receiver's entry point (the target's
        ``_incoming.put`` here, :func:`_deliver_response` on the way
        back), so a hop allocates no closure.
        """
        sim = self.sim
        tgt = self.network._endpoints.get(target)
        if tgt is None:
            reply = sim.event(name=f"rpc:{rpc}@{target}")
            reply.fail(AddressLookupError(f"no endpoint at {target!r}"))
            return reply
        registered = tgt._handlers.get(rpc)
        reply = sim.event(name=registered[1] if registered is not None
                          else f"rpc:{rpc}@{target}")
        t = sim.tracer
        sid = -1
        if t is not None:
            # No args dict here: this path is the RPC hot loop and the
            # target is recoverable from the matching server span.
            sid = t.begin("rpc", rpc, track=self.node)
            if sid >= 0:
                # Ends when the response lands (never for a dropped
                # request — close_open() flags those at finalize).
                reply.callbacks = lambda _e: t.end(sid)
        if self.up and tgt.up:
            latency = self.network.fabric.hop(self.node, target)
            if latency is not None:
                # The trace context (span id) rides in the in-memory wire
                # metadata tuple; the byte-mode encodings are untouched.
                # The hop event itself is queued: the progress loop reads
                # the request tuple off its value.
                sim.timeout(latency + self.plugin.message_latency,
                            (rpc, payload, self.node, reply, key, sid)
                            ).callbacks = tgt._incoming.put
        if timeout is None:
            return reply
        # Event.__init__ inlined: one guard per timed call.
        guarded = _new_event(_Guard)
        guarded.sim = sim
        guarded.name = registered[3] if registered is not None \
            else f"rpc:{rpc}@{target}:guarded"
        guarded.callbacks = None
        guarded._value = None
        guarded._ok = None
        guarded._state = PENDING
        guarded._defunct = False
        guarded.reply = reply
        guarded.rpc = rpc
        guarded.target = target
        guarded.limit = timeout
        settle = guarded.settle
        if reply.callbacks is None:
            reply.callbacks = settle
        else:
            reply.add_callback(settle)
        sim.timeout(timeout).callbacks = settle
        return guarded

    # -- bulk (RDMA) ----------------------------------------------------------
    def bulk_pull(self, origin: str, size: float,
                  rate_cap: Optional[float] = None,
                  extra_constraints=()) -> Event:
        """Pull ``size`` bytes from ``origin`` into this node (RDMA read)."""
        cap = rate_cap if rate_cap is not None else self.plugin.pull_cap
        return self._bulk(origin, self.node, size, cap, extra_constraints)

    def bulk_push(self, target: str, size: float,
                  rate_cap: Optional[float] = None,
                  extra_constraints=()) -> Event:
        """Push ``size`` bytes from this node to ``target`` (RDMA write)."""
        cap = rate_cap if rate_cap is not None else self.plugin.push_cap
        return self._bulk(self.node, target, size, cap, extra_constraints)

    def _bulk(self, src: str, dst: str, size: float, cap: Optional[float],
              extra_constraints) -> Event:
        extras = tuple(extra_constraints)
        if src != dst:
            extras = (*extras, self.network.connection(src, dst, cap))
        return self.network.fabric.transfer(
            src, dst, size, rate_cap=None, extra_constraints=extras,
            label=f"bulk:{src}->{dst}")

    # -- server side ------------------------------------------------------------
    def _progress_loop(self):
        """Serialize per-RPC protocol work; hand each request to a
        dispatch event (:func:`_serve`)."""
        sim = self.sim
        get = self._incoming.get
        handlers = self._handlers
        service_time = self.plugin.rpc_service_time
        due = sim._due
        while True:
            hop = yield get()
            request = hop._value
            rpc, _payload, origin, reply, key, _ctx = request
            # Protocol processing cost (deserialize, dispatch) — the
            # target-side bottleneck measured in Fig. 5.
            if service_time > 0:
                yield sim.timeout(service_time)
            registered = handlers.get(rpc)
            entry = None
            if key is not None and (registered is None
                                    or not registered[4]):
                # Idempotent rpcs run again and record nothing.
                entry = self._admit(key, origin, reply)
                if entry is None:
                    continue
            if registered is None:
                exc = NetworkError(f"no handler for rpc {rpc!r} on {self.node}")
                if entry is not None:
                    self._settle(entry, exc, False)
                self._respond(origin, reply, exc, ok=False)
                continue
            # Built and posted inline (Event.__init__, _post_now): one
            # dispatch per request.
            boot = _new_event(_Dispatch)
            boot.sim = sim
            boot.name = registered[2]
            boot.callbacks = _serve
            boot._ok = True
            boot._value = request
            boot._state = TRIGGERED
            boot._defunct = False
            boot.endpoint = self
            boot.handler = registered[0]
            boot.entry = entry
            due.append(boot)

    def _admit(self, key: str, origin: str, reply: Event) -> Optional[list]:
        """Effectively-once delivery for keyed (retried) requests.

        First sighting registers the key and returns its entry
        ``[settled, ok, value, waiters]`` for the dispatch to settle.
        A repeat returns ``None``: it is answered from the recorded
        outcome — immediately if settled, or when the in-flight
        original completes.
        """
        entry = self._dedup.get(key)
        if entry is None:
            if len(self._dedup) >= self.DEDUP_CAPACITY:
                self._dedup.pop(next(iter(self._dedup)))
            self._dedup[key] = entry = [False, False, None, []]
            return entry
        self.duplicates_suppressed += 1
        settled, ok, value, waiters = entry
        if settled:
            self._respond(origin, reply, value, ok)
        else:
            waiters.append((origin, reply))
        return None

    def _settle(self, entry: list, value: Any, ok: bool) -> None:
        """Record a keyed request's outcome in the entry its dispatch
        registered (evicted from the table or not); answer the
        duplicates parked on it."""
        entry[0], entry[1], entry[2] = True, ok, value
        waiters, entry[3] = entry[3], []
        for origin, reply in waiters:
            self._respond(origin, reply, value, ok)

    def _respond(self, origin: str, reply: Event, value: Any, ok: bool) -> None:
        if not self.up:
            return  # the response is lost with the daemon ...
        latency = self.network.fabric.hop(self.node, origin)
        if latency is None:
            return  # ... or with the link
        self.sim.timeout(latency + self.plugin.message_latency,
                         (reply, value, ok)).callbacks = _deliver_response


class MercuryNetwork:
    """The cluster-wide RPC registry: one endpoint per node."""

    __slots__ = ("sim", "fabric", "plugin", "_endpoints", "_connections")

    def __init__(self, sim: Simulator, fabric: Fabric,
                 plugin: str | NAPlugin = "ofi+tcp") -> None:
        self.sim = sim
        self.fabric = fabric
        self.plugin = get_plugin(plugin) if isinstance(plugin, str) else plugin
        self._endpoints: Dict[str, MercuryEndpoint] = {}
        self._connections: Dict[tuple, CapacityConstraint] = {}

    def endpoint(self, node: str, progress_threads: int = 1) -> MercuryEndpoint:
        """Create (or fetch) the endpoint for ``node``."""
        ep = self._endpoints.get(node)
        if ep is None:
            if node not in self.fabric:
                raise AddressLookupError(f"node {node!r} not on the fabric")
            ep = MercuryEndpoint(self, node, progress_threads)
            self._endpoints[node] = ep
        return ep

    def connection(self, src: str, dst: str,
                   cap: Optional[float]) -> CapacityConstraint:
        """Per-(src,dst) stream constraint implementing the protocol cap.

        Created lazily on first use; unlimited plugins get an effectively
        infinite constraint so the key space stays uniform.  The cap is
        part of the key: a pull and a push over the same ordered pair
        (Fig. 6 vs Fig. 7 caps), or an explicit ``rate_cap=`` override,
        each get the cap they asked for, not the first caller's.
        """
        key = (src, dst, cap)
        conn = self._connections.get(key)
        if conn is None:
            capacity = cap if cap is not None else 1e18
            conn = CapacityConstraint(f"conn:{src}->{dst}", capacity)
            self._connections[key] = conn
        return conn
