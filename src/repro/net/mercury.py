"""Mercury-style RPC engine with bulk (RDMA) transfers.

Reproduces the role of ANL's Mercury library in NORNS' network manager
(Section IV-B): target address lookup, point-to-point RPC messaging,
remote memory access (bulk pulls/pushes) and progress handling, with the
transport selected from the NA plugin registry at runtime.

Model highlights matching the paper's measurements:

* Each endpoint runs a *progress loop* that serializes the per-RPC
  protocol work (``plugin.rpc_service_time``); this is what saturates
  one urd instance at ≈45 k remote requests/s (Fig. 5).  Handlers are
  dispatched to their own simulation process so long bulk operations
  never stall the progress loop.
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
from repro.sim.core import Event, Simulator
from repro.sim.flows import CapacityConstraint
from repro.sim.primitives import any_of
from repro.sim.resources import Store

__all__ = ["MercuryNetwork", "MercuryEndpoint", "RpcHandle"]


class RpcHandle:
    """Client-side handle for an in-flight RPC."""

    __slots__ = ("event", "rpc", "target", "issued_at")

    def __init__(self, event: Event, rpc: str, target: str,
                 issued_at: float) -> None:
        self.event = event
        self.rpc = rpc
        self.target = target
        self.issued_at = issued_at


class MercuryEndpoint:
    """One node's attachment to the RPC network (``hg_class`` analogue).

    RPC payloads are opaque to the engine: in the fast wire mode they
    are lazy :class:`~repro.wire.frames.WireFrame` envelopes, so a
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
        #: rpc name -> (handler, reply-event label, handler-process
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
        # event, its timeout guard, the handler process) are read only
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
        learns through its own timeout.
        """
        try:
            tgt = self.network.lookup(target)
        except AddressLookupError as e:
            reply = self.sim.event(name=f"rpc:{rpc}@{target}")
            reply.fail(e)
            return reply
        registered = tgt._handlers.get(rpc)
        reply = self.sim.event(name=registered[1] if registered is not None
                               else f"rpc:{rpc}@{target}")
        t = self.sim.tracer
        sid = -1
        if t is not None:
            # No args dict here: this path is the RPC hot loop and the
            # target is recoverable from the matching server span.
            sid = t.begin("rpc", rpc, track=self.node)
            if sid >= 0:
                # Ends when the response lands (never for a dropped
                # request — close_open() flags those at finalize).
                reply.add_callback(lambda _e: t.end(sid))
        if self.up and tgt.up \
                and self.network.fabric.reachable(self.node, target):
            one_way = (self.network.fabric.latency(self.node, target)
                       + self.plugin.message_latency)
            # The trace context (span id) rides in the in-memory wire
            # metadata tuple; the byte-mode encodings are untouched.
            request = (rpc, payload, self.node, reply, key, sid)
            self.sim.timeout(one_way).add_callback(
                lambda _e: tgt._incoming.put(request))
        if timeout is None:
            return reply
        return self._with_timeout(reply, timeout, rpc, target, registered)

    def _with_timeout(self, reply: Event, timeout: float, rpc: str,
                      target: str, registered: Optional[tuple]) -> Event:
        guarded = self.sim.event(
            name=registered[3] if registered is not None
            else f"rpc:{rpc}@{target}:guarded")
        deadline = self.sim.timeout(timeout)

        def settle(_e: Event) -> None:
            if guarded.triggered:
                return
            if reply.triggered:
                if reply.ok:
                    guarded.succeed(reply.value)
                else:
                    guarded.fail(reply.value)
            else:
                guarded.fail(RpcTimeout(
                    f"rpc {rpc!r} to {target} exceeded {timeout}s"))

        reply.add_callback(settle)
        deadline.add_callback(settle)
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
        """Serialize per-RPC protocol work; dispatch handlers async."""
        while True:
            rpc, payload, origin, reply, key, ctx = \
                yield self._incoming.get()
            # Protocol processing cost (deserialize, dispatch) — the
            # target-side bottleneck measured in Fig. 5.
            if self.plugin.rpc_service_time > 0:
                yield self.sim.timeout(self.plugin.rpc_service_time)
            registered = self._handlers.get(rpc)
            if registered is not None and registered[4]:
                key = None  # idempotent: run it again, record nothing
            elif key is not None and self._suppress_duplicate(key, origin,
                                                             reply):
                continue
            if registered is None:
                self._respond(origin, reply,
                              NetworkError(f"no handler for rpc {rpc!r} on {self.node}"),
                              ok=False)
                continue
            handler, label = registered[0], registered[2]
            self.sim.process(self._dispatch(handler, rpc, payload, origin,
                                            reply, key, ctx),
                             name=label)

    def _suppress_duplicate(self, key: str, origin: str,
                            reply: Event) -> bool:
        """Effectively-once delivery for keyed (retried) requests.

        First sighting registers the key and lets the handler run;
        repeats are answered from the recorded outcome — immediately if
        settled, or when the in-flight original completes.
        """
        entry = self._dedup.get(key)
        if entry is None:
            if len(self._dedup) >= self.DEDUP_CAPACITY:
                self._dedup.pop(next(iter(self._dedup)))
            self._dedup[key] = [False, False, None, []]
            return False
        self.duplicates_suppressed += 1
        settled, ok, value, waiters = entry
        if settled:
            self._respond(origin, reply, value, ok)
        else:
            waiters.append((origin, reply))
        return True

    def _settle_key(self, key: Optional[str], value: Any, ok: bool) -> None:
        if key is None:
            return
        entry = self._dedup.get(key)
        if entry is None:
            return  # evicted while in flight
        entry[0], entry[1], entry[2] = True, ok, value
        waiters, entry[3] = entry[3], []
        for origin, reply in waiters:
            self._respond(origin, reply, value, ok)

    def _dispatch(self, handler, rpc, payload, origin, reply, key=None,
                  ctx=-1):
        t = self.sim.tracer
        sid = -1 if t is None else t.begin(
            "rpc", rpc, track=self.node, parent=ctx)
        try:
            result = handler(payload, origin)
            if hasattr(result, "send"):  # generator handler -> run inline
                result = yield self.sim.process(result)
        except Exception as exc:  # handler bug or domain failure
            if sid >= 0:
                t.end(sid, args={"ok": False})
            self._settle_key(key, exc, ok=False)
            self._respond(origin, reply, exc, ok=False)
            return
        self.rpcs_served += 1
        if sid >= 0:
            # Success is the common case: no args dict, the error path
            # marks {"ok": False} so absence means success.
            t.end(sid)
        self._settle_key(key, result, ok=True)
        self._respond(origin, reply, result, ok=True)

    def _respond(self, origin: str, reply: Event, value: Any, ok: bool) -> None:
        if not self.up \
                or not self.network.fabric.reachable(self.node, origin):
            return  # the response is lost with the link/daemon
        one_way = (self.network.fabric.latency(self.node, origin)
                   + self.plugin.message_latency)

        def deliver(_e: Event) -> None:
            if reply.triggered:  # client gave up (timeout)
                return
            if ok:
                reply.succeed(value)
            else:
                reply.fail(value)

        self.sim.timeout(one_way).add_callback(deliver)


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

    def lookup(self, address: str) -> MercuryEndpoint:
        """NA address lookup."""
        try:
            return self._endpoints[address]
        except KeyError:
            raise AddressLookupError(f"no endpoint at {address!r}") from None

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
