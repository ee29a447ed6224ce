"""Max-min fair fluid-flow engine for bandwidth modelling.

Every shared medium in the reproduction — a NIC, the fabric core, a
Lustre OST, an NVMe/DCPMM device, a node's memory bus — is a
:class:`CapacityConstraint` (bytes/second).  A data movement is a
:class:`Flow` of a known size that traverses a set of constraints and
may additionally carry a per-flow rate cap (the paper's ``ofi+tcp``
protocol saturates a single stream at ~1.7–1.8 GiB/s regardless of
in-flight RPCs; that is exactly a per-flow cap).

At any instant the rate of every active flow is the **max-min fair
allocation** computed by progressive filling:

1. raise all unfrozen flow rates uniformly,
2. when a constraint saturates (or a flow hits its cap), freeze the
   flows it limits,
3. repeat until every flow is frozen.

Between allocation changes flows progress linearly, so the simulator
only needs an event at the earliest completion time.  Whenever the flow
set changes, remaining sizes are advanced to *now* and rates are
recomputed.  This is the classical fluid approximation used by network
simulators; it reproduces contention curves (Fig. 1), per-stream
saturation (Figs. 6–7) and device aggregation (Fig. 8).

Component partitioning
----------------------
Two flows influence each other's rates only if they are connected in
the flow↔constraint bipartite graph, so :class:`FlowScheduler` advances
and reallocates *only the component a change touches* — O(touched), not
O(flows × constraints) across the cluster.

*Persistent* between calls: component membership (merge on attach,
rebuild on detach), each constraint's fid-ordered member set, a
per-component ``last_update`` stamp and completion deadline; the
deadlines feed one lazily-cancelled ``flow:wake`` timeout (see
:class:`~repro.sim.core.TimeoutHandle`).  *Per-call scratch* of the
progressive fill is slots on those same objects, not containers: the
fill walks the adjacency in place, builds no index, and writes
``Flow.rate`` directly.  ``CapacityConstraint.load`` is derived from
member rates on read.  Single-flow components (node-local NVM/DCPMM
transfers, the common case) take a closed form and skip the fill.

:class:`ReferenceFlowScheduler` retains the original global algorithm —
advance every flow, re-run progressive filling over the full flow set
per change — as the oracle for equivalence tests and benchmarks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import SimError
from repro.sim.core import Event, Simulator, TimeoutHandle

__all__ = ["CapacityConstraint", "Flow", "FlowScheduler",
           "ReferenceFlowScheduler"]

#: Tolerance for "this constraint is saturated" comparisons.
_EPS = 1e-9


class CapacityConstraint:
    """A shared medium with a fixed capacity in bytes/second.

    ``load`` is derived on read from the member flows' current rates;
    the engine keeps no per-constraint running sum.  ``_used``,
    ``_live_w`` and ``_live_n`` are scratch of the progressive fill:
    :meth:`FlowScheduler._fill` sets them before it reads them.
    """

    __slots__ = ("name", "capacity", "_flows", "_component",
                 "_used", "_live_w", "_live_n")

    def __init__(self, name: str, capacity: float) -> None:
        if capacity <= 0:
            raise SimError(f"constraint {name!r} needs positive capacity")
        self.name = name
        self.capacity = float(capacity)
        # Insertion-ordered member set (dict keys).  A fid is drawn
        # immediately before its flow attaches, so insertion order is
        # fid order: the fill and ``load`` sum members in that order.
        self._flows: Dict["Flow", None] = {}
        self._component: Optional["_Component"] = None

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    @property
    def load(self) -> float:
        """Sum of current flow rates through this constraint (bytes/s)."""
        return sum([f.rate for f in self._flows], 0.0)

    @property
    def utilization(self) -> float:
        # Guard against capacity mutated to zero after construction
        # (drained links): an idle dead link is 0% utilized, not NaN.
        if self.capacity <= 0:
            return 0.0
        return self.load / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CapacityConstraint {self.name} {self.capacity:.3g}B/s n={len(self._flows)}>"


class Flow:
    """A finite transfer traversing a set of constraints.

    Created via :meth:`FlowScheduler.transfer`; ``done`` fires with the
    flow itself when the last byte moves.  ``rate`` is the currently
    allocated bandwidth, re-derived at every membership change of the
    flow's contention component.
    """

    __slots__ = ("fid", "size", "remaining", "constraints", "rate_cap",
                 "rate", "done", "started_at", "finished_at", "label",
                 "weight", "_component", "_done_eps",
                 "_frozen")     # scratch of FlowScheduler._fill

    def __init__(self, fid: int, size: float,
                 constraints: Sequence[CapacityConstraint],
                 rate_cap: Optional[float], done: Event,
                 started_at: float, label: str = "",
                 weight: float = 1.0) -> None:
        self.fid = fid
        self.size = float(size)
        self.remaining = float(size)
        # A medium constrains a flow once: collapse duplicates while
        # preserving order, so adjacency sets and the weighted fill
        # agree on membership.
        self.constraints = tuple(dict.fromkeys(constraints))
        self.rate_cap = rate_cap
        self.rate = 0.0
        self.done = done
        self.started_at = started_at
        self.finished_at: Optional[float] = None
        self.label = label
        #: Weighted max-min share: a flow of weight w receives w times
        #: the bandwidth of a weight-1 competitor on the same
        #: bottleneck — the fluid collapse of "w parallel streams".
        self.weight = float(weight)
        self._component: Optional["_Component"] = None
        #: The flow counts as finished once ``remaining`` is within
        #: this band of zero (relative to its size, at least 1 byte).
        self._done_eps = _EPS * max(1.0, self.size)

    @property
    def elapsed(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def mean_rate(self) -> Optional[float]:
        el = self.elapsed
        if el is None or el <= 0:
            return None
        return self.size / el

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Flow #{self.fid} {self.label!r} size={self.size:.3g} "
                f"remaining={self.remaining:.3g} rate={self.rate:.3g}>")


class _Component:
    """One connected component of the flow↔constraint bipartite graph.

    Flows and constraints are insertion-ordered sets (dict keys) so the
    engine's behaviour is identical run-to-run; ``ver`` invalidates
    stale deadline-heap entries after a reallocation, and ``alive``
    invalidates entries of merged/split/emptied components.
    """

    __slots__ = ("cid", "flows", "constraints", "last_update", "deadline",
                 "ver", "alive")

    def __init__(self, cid: int, now: float) -> None:
        self.cid = cid
        self.flows: Dict[Flow, None] = {}
        self.constraints: Dict[CapacityConstraint, None] = {}
        self.last_update = now
        self.deadline = math.inf
        self.ver = 0
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<_Component #{self.cid} flows={len(self.flows)} "
                f"constraints={len(self.constraints)} "
                f"deadline={self.deadline:.6g}>")


class FlowScheduler:
    """Tracks active flows and drives them to completion over sim time.

    Incremental, component-partitioned engine: per membership change it
    advances and reallocates only the connected component of the
    flow↔constraint graph that the change touches.  Single-flow
    components resolve to a closed-form rate; multi-flow components run
    weighted progressive filling in place (:meth:`_fill`).  One
    lazily-cancelled wake timeout serves the earliest completion
    deadline across all components, so a change that does not move the
    earliest deadline leaves the event calendar untouched.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._flows: Dict[Flow, None] = {}
        self._by_done: Dict[Event, Flow] = {}
        self._fid = itertools.count(1)
        self._cid = itertools.count(1)
        self._completed = 0
        self._bytes_moved = 0.0
        #: (deadline, cid, ver, component) — lazily invalidated.
        self._deadlines: List[tuple] = []
        self._comps: Dict[_Component, None] = {}
        self._wake_handle: Optional[TimeoutHandle] = None
        self._wake_time = math.inf
        # Perf accounting (read by the flow-engine benchmark): number
        # of component (re)allocations and total flow slots scanned by
        # advances + allocations.  For disjoint workloads this grows
        # O(changes), not O(changes × flows).
        self.alloc_count = 0
        self.flows_touched = 0
        # Shared span-args dicts for flow traces, memoized per
        # (status, route): flows over the same path repeat constantly,
        # and building per-flow args dicts is measurable at replay
        # span rates.  Keyed by the constraints tuple (object-identity
        # hashes), bounded by distinct routes x statuses; the byte
        # count rides the tracer's allocation-free nbytes channel.
        self._span_args: Dict[tuple, dict] = {}

    # -- public API ----------------------------------------------------
    def transfer(self, size: float,
                 constraints: Iterable[CapacityConstraint] = (),
                 rate_cap: Optional[float] = None,
                 label: str = "", weight: float = 1.0) -> Event:
        """Start a flow of ``size`` bytes; returns its completion event.

        A zero-size transfer completes at the current instant (after the
        event loop turn), which callers rely on for empty files.
        """
        if size < 0:
            raise SimError(f"negative transfer size {size}")
        if rate_cap is not None and rate_cap <= 0:
            raise SimError(f"rate_cap must be positive, got {rate_cap}")
        if weight <= 0:
            raise SimError(f"weight must be positive, got {weight}")
        done = self.sim.event(name=f"flow:{label or 'transfer'}")
        flow = Flow(next(self._fid), size, tuple(constraints), rate_cap,
                    done, self.sim.now, label, weight)
        if size == 0:
            flow.finished_at = self.sim.now
            self._trace_flow(flow, "finished")
            flow.done = None
            done.succeed(flow)
            return done
        if not flow.constraints and rate_cap is None:
            # Unconstrained flow: instantaneous by definition.
            flow.finished_at = self.sim.now
            flow.remaining = 0.0
            self._bytes_moved += flow.size
            self._completed += 1
            self._trace_flow(flow, "finished")
            flow.done = None
            done.succeed(flow)
            return done
        self._run_due()
        self._flows[flow] = None
        self._by_done[done] = flow
        comp = self._attach(flow)
        self._allocate(comp)
        self._schedule_wake()
        return done

    def _trace_flow(self, flow: Flow, status: str) -> None:
        """Record a settled flow's lifetime as a retroactive span."""
        t = self.sim.tracer
        if t is None or not t.wants("flow"):
            return
        end = flow.finished_at if flow.finished_at is not None \
            else self.sim.now
        shared = self._span_args.get((status, flow.constraints))
        if shared is None:
            shared = {"status": status,
                      "constraints": tuple(c.name
                                           for c in flow.constraints)}
            self._span_args[(status, flow.constraints)] = shared
        t.complete("flow", flow.label or f"flow{flow.fid}",
                   flow.started_at, end,
                   args=shared, nbytes=flow.size)

    def cancel(self, done_event: Event) -> None:
        """Abort the flow behind ``done_event`` (fails the event).

        O(1) lookup through the ``Event → Flow`` map; only the flow's
        own component is advanced and reallocated.  If the flow's last
        byte has already moved by *now*, completion wins and the event
        succeeds instead.
        """
        self._run_due()
        flow = self._by_done.get(done_event)
        if flow is None:
            return
        now = self.sim.now
        comp = flow._component
        finished: List[Flow] = []
        if comp is not None:
            self._advance(comp, now, finished)
        if flow in finished:
            # The flow physically completed at this instant: deliver
            # the completion rather than failing a finished transfer.
            self._finish_batch(finished)
            self._schedule_wake()
            return
        self._by_done.pop(done_event, None)
        target_comp = self._detach(flow)
        flow.rate = 0.0
        if finished:
            # Co-members that crossed the epsilon band finish first
            # (deterministic fid order), mirroring the global engine.
            # They all belonged to the cancelled flow's component, so
            # the batch also repartitions and reallocates it.
            self._finish_batch(finished)
        elif target_comp is not None and target_comp.alive:
            for part in self._rebuild(target_comp):
                self._allocate(part)
        self._trace_flow(flow, "cancelled")
        done_event.fail(SimError(f"flow #{flow.fid} cancelled"))
        self._schedule_wake()

    def set_capacity(self, constraint: CapacityConstraint,
                     capacity: float) -> None:
        """Change a constraint's capacity and reallocate around it.

        The fault-injection subsystem uses this to model link/device
        degradation and recovery: flows currently crossing the
        constraint are advanced to *now* at their old rates, then the
        constraint's component is reallocated under the new capacity.
        Constraints with no active flows just take the new value (it
        applies to the next transfer).
        """
        if capacity <= 0:
            raise SimError(
                f"constraint {constraint.name!r} needs positive capacity")
        if capacity == constraint.capacity:
            return
        self._run_due()
        comp = constraint._component
        finished: List[Flow] = []
        if comp is not None and comp.alive:
            self._advance(comp, self.sim.now, finished)
        constraint.capacity = float(capacity)
        if finished:
            # Epsilon-band completions surfaced by the advance settle
            # first (this also reallocates the surviving component).
            self._finish_batch(finished)
        elif comp is not None and comp.alive:
            self._allocate(comp)
        self._schedule_wake()

    @property
    def active(self) -> int:
        return len(self._flows)

    @property
    def completed(self) -> int:
        return self._completed

    @property
    def bytes_moved(self) -> float:
        return self._bytes_moved

    @property
    def component_count(self) -> int:
        """Number of live contention components (diagnostics)."""
        return len(self._comps)

    # -- component maintenance ------------------------------------------
    def _attach(self, flow: Flow) -> _Component:
        """Insert ``flow``, merging the components its constraints span."""
        now = self.sim.now
        comps: List[_Component] = []
        for c in flow.constraints:
            comp = c._component
            if comp is not None and comp not in comps:
                comps.append(comp)
        if comps:
            finished: List[Flow] = []
            for comp in comps:
                self._advance(comp, now, finished)
            if finished:
                # Epsilon-band completions surfaced by the advance:
                # settle them (may split components), then re-resolve.
                self._finish_batch(finished)
                return self._attach(flow)
            host = max(comps, key=lambda cc: len(cc.flows))
            for comp in comps:
                if comp is host:
                    continue
                for f in comp.flows:
                    f._component = host
                    host.flows[f] = None
                for c in comp.constraints:
                    c._component = host
                    host.constraints[c] = None
                comp.alive = False
                self._comps.pop(comp, None)
        else:
            host = _Component(next(self._cid), now)
            self._comps[host] = None
        host.flows[flow] = None
        flow._component = host
        for c in flow.constraints:
            c._flows[flow] = None
            if c._component is not host:
                c._component = host
                host.constraints[c] = None
        return host

    def _detach(self, flow: Flow) -> Optional[_Component]:
        """Remove ``flow`` from all bookkeeping; returns its component."""
        comp = flow._component
        flow._component = None
        self._flows.pop(flow, None)
        if comp is not None:
            comp.flows.pop(flow, None)
        for c in flow.constraints:
            c._flows.pop(flow, None)
            if not c._flows:
                c._component = None
                if comp is not None:
                    comp.constraints.pop(c, None)
        return comp

    def _rebuild(self, comp: _Component) -> List[_Component]:
        """Re-derive connected components after ``comp`` lost members.

        Detaching a flow with two or more constraints can split its
        component; a breadth-first sweep over the component's own
        adjacency (never the global flow set) finds the parts.
        """
        if not comp.flows:
            comp.alive = False
            self._comps.pop(comp, None)
            return []
        if len(comp.flows) == 1 or len(comp.constraints) <= 1:
            # A single flow, or every member sharing one medium, is
            # necessarily connected.
            return [comp]
        n = len(comp.flows)
        for c in comp.constraints:
            if len(c._flows) == n:
                # A hub constraint spans every member (e.g. the fabric
                # core): trivially still connected, skip the sweep.
                return [comp]
        unvisited = dict.fromkeys(comp.flows)
        parts: List[List[Flow]] = []
        seen_c = set()
        while unvisited:
            seed = next(iter(unvisited))
            del unvisited[seed]
            members = [seed]
            stack = [seed]
            while stack:
                f = stack.pop()
                for c in f.constraints:
                    if c in seen_c or not c._flows:
                        continue
                    seen_c.add(c)
                    for g in c._flows:
                        if g in unvisited:
                            del unvisited[g]
                            members.append(g)
                            stack.append(g)
            parts.append(members)
        if len(parts) == 1:
            return [comp]
        comp.alive = False
        self._comps.pop(comp, None)
        out = []
        for members in parts:
            part = _Component(next(self._cid), comp.last_update)
            self._comps[part] = None
            for f in members:
                part.flows[f] = None
                f._component = part
                for c in f.constraints:
                    if c._component is not part:
                        c._component = part
                        part.constraints[c] = None
            out.append(part)
        return out

    # -- progression ----------------------------------------------------
    def _advance(self, comp: _Component, now: float,
                 finished: List[Flow]) -> None:
        """Progress one component from its last update instant to now."""
        dt = now - comp.last_update
        comp.last_update = now
        if dt <= 0:
            return
        self.flows_touched += len(comp.flows)
        for f in comp.flows:
            f.remaining -= f.rate * dt
            if f.remaining <= f._done_eps:
                f.remaining = 0.0
                finished.append(f)

    def _finish_batch(self, finished: List[Flow]) -> None:
        """Complete flows in deterministic fid order, then repartition
        and reallocate every component they belonged to."""
        finished.sort(key=lambda f: f.fid)
        affected: Dict[_Component, None] = {}
        for f in finished:
            comp = self._detach(f)
            if comp is not None and comp.alive:
                affected[comp] = None
            self._finish(f)
        for comp in affected:
            if not comp.alive:
                continue
            for part in self._rebuild(comp):
                self._allocate(part)

    def _finish(self, flow: Flow) -> None:
        flow.finished_at = self.sim.now
        flow.rate = 0.0
        self._completed += 1
        self._bytes_moved += flow.size
        # The event is about to carry the flow: drop the back link so
        # the pair is not a reference cycle.
        done, flow.done = flow.done, None
        self._by_done.pop(done, None)
        self._trace_flow(flow, "finished")
        done.succeed(flow)

    def _run_due(self) -> None:
        """Advance and settle every component whose deadline has come."""
        now = self.sim.now
        heap = self._deadlines
        due: List[_Component] = []
        while heap:
            deadline, _cid, ver, comp = heap[0]
            if not comp.alive or ver != comp.ver:
                heapq.heappop(heap)
                continue
            if deadline > now:
                break
            heapq.heappop(heap)
            due.append(comp)
        if not due:
            return
        finished: List[Flow] = []
        for comp in due:
            self._advance(comp, now, finished)
        if finished:
            self._finish_batch(finished)
        for comp in due:
            # A due component that kept its membership (epsilon
            # shortfall) still needs a fresh deadline.
            if comp.alive and comp.deadline <= now:
                self._allocate(comp)

    # -- allocation ------------------------------------------------------
    def _allocate(self, comp: _Component) -> None:
        """Recompute rates and the completion deadline of one component
        (which must already be advanced to now)."""
        if not comp.flows:  # pragma: no cover - defensive
            comp.alive = False
            self._comps.pop(comp, None)
            return
        self.alloc_count += 1
        now = comp.last_update
        next_done = math.inf
        if len(comp.flows) == 1:
            # Closed-form single-flow shortcut (node-local transfers):
            # the fair share is the tightest limit on the path.  The
            # delta/weight round-trip mirrors the reference algorithm's
            # arithmetic bit-for-bit.
            self.flows_touched += 1
            (f,) = comp.flows
            w = f.weight
            delta = math.inf
            for c in f.constraints:
                d = c.capacity / w
                if d < delta:
                    delta = d
            if f.rate_cap is not None:
                d = f.rate_cap / w
                if d < delta:
                    delta = d
            rate = math.inf if math.isinf(delta) else delta * w
            f.rate = rate
            if rate > 0:
                next_done = f.remaining / rate
        else:
            self.flows_touched += len(comp.flows)
            self._fill(comp)
            for f in comp.flows:
                r = f.rate
                if r > 0:
                    nd = f.remaining / r
                    if nd < next_done:
                        next_done = nd
        comp.deadline = now + next_done if not math.isinf(next_done) else math.inf
        comp.ver += 1
        if not math.isinf(comp.deadline):
            heapq.heappush(self._deadlines,
                           (comp.deadline, comp.cid, comp.ver, comp))
        # Compact the deadline heap when stale entries dominate, so an
        # adversarial churn pattern cannot grow it without bound.
        if len(self._deadlines) > 64 and \
                len(self._deadlines) > 4 * len(self._comps):
            self._deadlines = [
                (c.deadline, c.cid, c.ver, c) for c in self._comps
                if not math.isinf(c.deadline)
            ]
            heapq.heapify(self._deadlines)

    @staticmethod
    def _fill(comp: _Component) -> None:
        """Weighted progressive filling, in place on one component.

        Same fill semantics as the reference :meth:`_max_min_rates`,
        walked over the component's constraints and their fid-ordered
        member sets, writing ``Flow.rate`` directly.  Round state lives
        in scratch slots: per constraint the bandwidth used, and the
        weight sum and exact count of unfrozen members (decremented as
        flows freeze, not re-summed every round).
        """
        flows = comp.flows
        cons = comp.constraints
        for c in cons:
            n = len(c._flows)
            c._used = 0.0
            c._live_n = n
            c._live_w = float(n)    # exact while every weight is 1.0
        # Uncapped weight-1 flows all rise by the same additions: they
        # share ``level`` and take it as their rate when they freeze.
        # Only the others accumulate a rate of their own per round.
        own = []
        for f in flows:
            f._frozen = False
            if f.weight != 1.0:
                for c in f.constraints:
                    c._live_w = 0.0     # summed exactly in round one
            elif f.rate_cap is None:
                continue
            f.rate = 0.0
            own.append(f)
        level = 0.0
        left = len(flows)
        # Each round freezes at least one flow (or stops).
        while left:
            # delta is the uniform increment of the *normalized* rate
            # (rate/weight) of all unfrozen flows.
            delta = math.inf
            for c in cons:
                if c._live_n <= 0:
                    continue
                lw = c._live_w
                if lw <= 0.0:
                    # Catastrophic cancellation in the decrements (or
                    # a weighted member, first round): re-derive the
                    # exact sum in member order.
                    lw = 0.0
                    for f in c._flows:
                        if not f._frozen:
                            lw += f.weight
                    c._live_w = lw
                    if lw <= 0.0:
                        continue
                d = (c.capacity - c._used) / lw
                if d < delta:
                    delta = d
            for f in own:
                if f.rate_cap is not None:
                    d = (f.rate_cap - f.rate) / f.weight
                    if d < delta:
                        delta = d
            if delta == math.inf:
                # No constraint and no cap limits the rest: unbounded.
                level = math.inf
                break
            if delta < 0.0:
                delta = 0.0
            level += delta
            # Freeze flows limited by a saturated constraint or their cap.
            froze = []
            for c in cons:
                if c._live_n > 0:
                    lw = c._live_w
                    if lw > 0:
                        c._used += delta * lw
                    if c.capacity - c._used <= _EPS * c.capacity:
                        for f in c._flows:
                            if not f._frozen:
                                f._frozen = True
                                froze.append(f)
            for f in own:
                f.rate += delta * f.weight
                cap = f.rate_cap
                if cap is not None and not f._frozen \
                        and f.rate >= cap - _EPS * cap:
                    f._frozen = True
                    froze.append(f)
            if not froze:
                # Numerical guard: nothing progressed; stop here.
                break
            for f in froze:
                w = f.weight
                if w == 1.0:
                    f.rate = level
                for c in f.constraints:
                    c._live_w -= w
                    c._live_n -= 1
            left -= len(froze)
            if own:
                own = [f for f in own if not f._frozen]
        if left:
            # Stopped early: unbounded, or left where the guard stopped.
            for f in flows:
                if not f._frozen and (f.weight == 1.0 or level == math.inf):
                    f.rate = level

    # -- wake management -------------------------------------------------
    def _schedule_wake(self) -> None:
        """Point the single wake timeout at the earliest live deadline.

        When the earliest deadline did not move, the already-scheduled
        timeout stays — no calendar churn.  A superseded wake is
        lazily cancelled (skipped at pop time) rather than removed.
        """
        heap = self._deadlines
        while heap:
            _deadline, _cid, ver, comp = heap[0]
            if comp.alive and ver == comp.ver:
                break
            heapq.heappop(heap)
        target = heap[0][0] if heap else math.inf
        if target == self._wake_time:
            return
        if self._wake_handle is not None:
            self._wake_handle.cancel()
            self._wake_handle = None
        self._wake_time = target
        if math.isinf(target):
            return
        handle = self.sim.cancellable_timeout(at=target, name="flow:wake")
        handle.event.add_callback(self._on_wake)
        self._wake_handle = handle

    def _on_wake(self, _ev: Event) -> None:
        self._wake_handle = None
        self._wake_time = math.inf
        self._run_due()
        self._schedule_wake()

    # -- reference allocator (oracle) -------------------------------------
    @staticmethod
    def _max_min_rates(flows: Sequence[Flow]) -> List[float]:
        """Progressive-filling *weighted* max-min fair allocation.

        The original global algorithm, retained as the reference oracle
        for the incremental engine (property and parity tests compare
        against it).  Rates rise proportionally to flow weights; flow
        rate caps are honoured as single-flow constraints.  Returns
        rates aligned with ``flows``.
        """
        n = len(flows)
        rates = [0.0] * n
        frozen = [False] * n
        weights = [f.weight for f in flows]
        # Gather the constraints touched by this flow set, once.
        constraints: Dict[CapacityConstraint, List[int]] = {}
        for i, f in enumerate(flows):
            for c in f.constraints:
                constraints.setdefault(c, []).append(i)
        used = {c: 0.0 for c in constraints}

        unfrozen = n
        # Each iteration freezes at least one flow, so <= n rounds.
        for _round in range(n + 1):
            if unfrozen == 0:
                break
            # delta is the uniform increment of the *normalized* rate
            # (rate/weight) of all unfrozen flows.
            delta = math.inf
            for c, members in constraints.items():
                live_w = sum(weights[i] for i in members if not frozen[i])
                if live_w > 0:
                    delta = min(delta, (c.capacity - used[c]) / live_w)
            for i, f in enumerate(flows):
                if not frozen[i] and f.rate_cap is not None:
                    delta = min(delta, (f.rate_cap - rates[i]) / weights[i])
            if math.isinf(delta):
                # No constraint and no cap limits the rest: unbounded.
                for i in range(n):
                    if not frozen[i]:
                        rates[i] = math.inf
                        frozen[i] = True
                break
            delta = max(delta, 0.0)
            for i in range(n):
                if not frozen[i]:
                    rates[i] += delta * weights[i]
            for c, members in constraints.items():
                live_w = sum(weights[i] for i in members if not frozen[i])
                used[c] += delta * live_w
            # Freeze flows limited by a saturated constraint or their cap.
            froze_any = False
            for c, members in constraints.items():
                if c.capacity - used[c] <= _EPS * c.capacity:
                    for i in members:
                        if not frozen[i]:
                            frozen[i] = True
                            unfrozen -= 1
                            froze_any = True
            for i, f in enumerate(flows):
                if (not frozen[i] and f.rate_cap is not None
                        and rates[i] >= f.rate_cap - _EPS * f.rate_cap):
                    frozen[i] = True
                    unfrozen -= 1
                    froze_any = True
            if not froze_any:
                # Numerical guard: nothing progressed; stop here.
                break
        return rates


class ReferenceFlowScheduler:
    """The original global O(flows × constraints)-per-change engine.

    Kept as the executable oracle: every membership change advances
    *every* active flow and re-runs progressive filling over the whole
    flow set.  Parity tests and the flow-churn benchmark run identical
    workloads through this class and :class:`FlowScheduler` to prove
    the incremental engine computes the same completion times and order
    — and how much faster it does so.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._flows: Dict[Flow, None] = {}
        self._fid = itertools.count(1)
        self._last_update = sim.now
        self._epoch = 0          # invalidates stale wake-up events
        self._completed = 0
        self._bytes_moved = 0.0

    # -- public API ----------------------------------------------------
    def transfer(self, size: float,
                 constraints: Iterable[CapacityConstraint] = (),
                 rate_cap: Optional[float] = None,
                 label: str = "", weight: float = 1.0) -> Event:
        """Start a flow of ``size`` bytes; returns its completion event."""
        if size < 0:
            raise SimError(f"negative transfer size {size}")
        if rate_cap is not None and rate_cap <= 0:
            raise SimError(f"rate_cap must be positive, got {rate_cap}")
        if weight <= 0:
            raise SimError(f"weight must be positive, got {weight}")
        done = self.sim.event(name=f"flow:{label or 'transfer'}")
        flow = Flow(next(self._fid), size, tuple(constraints), rate_cap,
                    done, self.sim.now, label, weight)
        if size == 0:
            flow.finished_at = self.sim.now
            flow.done = None
            done.succeed(flow)
            return done
        if not flow.constraints and rate_cap is None:
            flow.finished_at = self.sim.now
            flow.remaining = 0.0
            self._bytes_moved += flow.size
            self._completed += 1
            flow.done = None
            done.succeed(flow)
            return done
        self._advance()
        self._flows[flow] = None
        for c in flow.constraints:
            c._flows[flow] = None
        self._reallocate()
        return done

    def cancel(self, done_event: Event) -> None:
        """Abort the flow behind ``done_event`` (linear scan, oracle)."""
        target = None
        for f in self._flows:
            if f.done is done_event:
                target = f
                break
        if target is None:
            return
        self._advance()
        if target.remaining == 0.0 and target.finished_at is not None:
            return  # completed during the advance: completion wins
        self._detach(target)
        target.rate = 0.0
        self._reallocate()
        done_event.fail(SimError(f"flow #{target.fid} cancelled"))

    @property
    def active(self) -> int:
        return len(self._flows)

    @property
    def completed(self) -> int:
        return self._completed

    @property
    def bytes_moved(self) -> float:
        return self._bytes_moved

    # -- internals -------------------------------------------------------
    def _detach(self, flow: Flow) -> None:
        self._flows.pop(flow, None)
        for c in flow.constraints:
            c._flows.pop(flow, None)

    def _advance(self) -> None:
        """Progress every flow from the last update instant to now."""
        dt = self.sim.now - self._last_update
        self._last_update = self.sim.now
        if dt <= 0:
            return
        finished: List[Flow] = []
        for f in self._flows:
            f.remaining -= f.rate * dt
            if f.remaining <= _EPS * max(1.0, f.size):
                f.remaining = 0.0
                finished.append(f)
        # Deterministic completion order.
        for f in sorted(finished, key=lambda x: x.fid):
            self._finish(f)

    def _finish(self, flow: Flow) -> None:
        self._detach(flow)
        flow.finished_at = self.sim.now
        flow.rate = 0.0
        self._completed += 1
        self._bytes_moved += flow.size
        done, flow.done = flow.done, None  # no Flow <-> Event cycle
        done.succeed(flow)

    def _reallocate(self) -> None:
        """Recompute max-min fair rates and schedule the next wake-up."""
        self._epoch += 1
        flows = sorted(self._flows, key=lambda f: f.fid)
        if not flows:
            return
        rates = FlowScheduler._max_min_rates(flows)
        next_done = math.inf
        for f, r in zip(flows, rates):
            f.rate = r
            if r > 0:
                next_done = min(next_done, f.remaining / r)
        if math.isinf(next_done):
            return  # everything stalled (zero rates) — wait for a change
        epoch = self._epoch
        wake = self.sim.timeout(next_done, name="flow:wake")
        wake.add_callback(lambda _ev: self._on_wake(epoch))

    def _on_wake(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # superseded by a later reallocation
        self._advance()
        self._reallocate()
