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
member rates on read.

Every rate and deadline the fill produces is the same float the
straightforward round loop would (a last-bit change moves a wake
instant, and with it the event count): :meth:`FlowScheduler._fill`
skips only work whose result is already known exactly, and says why
for each skip; the former round loop is kept verbatim as a test oracle
in ``tests/oracles/fill_previous.py``.  A fill of one flow or many runs
one round loop, except for these special cases, each named with the
workload that pays for it (bench seed 0):

* constraints that provably never bind are pruned, tested once per
  class of a table each component keeps exact (its *links*, of one or
  two members, by (capacity, member count); its *hubs*, wider, one by
  one; the count of each per-flow bound ``_ub``, of weighted flows, and
  the capped flows by ``rate_cap``); when each flow then has exactly
  one binder, the rounds run once per class (:func:`_one_binder_fill`):
  ``transfer_mesh``, whose 7 167 fills all take them;
* :meth:`FlowScheduler._rebuild`'s spanning-constraint shortcut:
  ``transfer_mesh``, where removing it took Python calls from 1.02 M to
  3.37 M;
* the link/hub split (a hub's count changes with most changes of its
  component, a fabric core or a Lustre OST, so it is tested per fill,
  not filed by count): ``replay_staged``, where filing hubs by count
  added 713 k calls and lost 6 of 6 timing pairs;
* weighted flows, which keep a rate of their own each round and make
  the fill walk every constraint in order, pruning none: Fig. 1
  (``ParallelFileSystem.inject_load`` with ``width > 1``), which no
  bench workload runs.

This is the only flow engine.  The original global one — advance every
flow and re-run progressive filling over the full flow set per change —
is kept as a test oracle in ``tests/oracles/flows_reference.py``;
``tests/test_flow_engine_parity.py``, ``tests/test_flow_properties.py``
and ``tests/test_sim_flows.py`` compare this engine against it.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import SimError
from repro.sim.core import Event, Simulator, TimeoutHandle

__all__ = ["CapacityConstraint", "Flow", "FlowScheduler"]

#: Tolerance for "this constraint is saturated" comparisons.
_EPS = 1e-9

#: The prune's lower bound: :meth:`FlowScheduler._fill` prunes no
#: capacity below it (``_EPS * cap`` is a normal float from here up, so
#: its rounding is relative, not absolute).
_FOLD_MIN = sys.float_info.min / _EPS
#: A weight-1 fill prunes a finite constraint of at least ``_FOLD_MIN``
#: whose ``n`` members could not fill it even at the component's largest
#: per-flow bound ``U``: ``n * U < cap * _PRUNE_BELOW``.  The margin
#: covers the round-off that separates the fill's running sums from the
#: real member rates; :meth:`FlowScheduler._fill` derives it.
_PRUNE_MARGIN = 1e-6
_PRUNE_BELOW = 1.0 - _PRUNE_MARGIN
#: A component files a constraint with at most this many members (a
#: *link*) in its class table; a wider one (a *hub*) is its own class.
_LINK_MAX = 2


def _bound(rate_cap: Optional[float],
           constraints: Iterable["CapacityConstraint"]) -> float:
    """The least of ``rate_cap`` and the capacities of ``constraints``."""
    ub = math.inf if rate_cap is None else rate_cap
    for c in constraints:
        if c.capacity < ub:
            ub = c.capacity
    return ub


def _enter(table: dict, key, item) -> None:
    """Put ``item`` in the member dict ``table[key]``, made if missing."""
    members = table.get(key)
    if members is None:
        table[key] = {item: None}
    else:
        members[item] = None


def _leave(table: dict, key, item) -> None:
    """Take ``item`` out of ``table[key]``; an emptied key goes."""
    members = table[key]
    del members[item]
    if not members:
        del table[key]


def _uncount(counts: Dict[float, int], key: float) -> None:
    n = counts[key] - 1
    if n:
        counts[key] = n
    else:
        del counts[key]


class CapacityConstraint:
    """A shared medium with a fixed capacity in bytes/second.

    ``load`` is derived on read from the member flows' current rates;
    the engine keeps no per-constraint running sum.  ``_used``,
    ``_live_w`` and ``_live_n`` are scratch of the progressive fill's
    round loop: :meth:`FlowScheduler._fill` sets them before it reads
    them.  A one-binder fill keeps its round state per class and
    writes none of them.

    While the constraint carries flows, its capacity changes only
    through :meth:`FlowScheduler.set_capacity`, which refreshes the
    per-flow bounds the fill prunes with; assigning ``capacity``
    directly is for a constraint with no active flow.
    """

    __slots__ = ("name", "capacity", "_flows", "_component",
                 "_used", "_live_w", "_live_n")

    def __init__(self, name: str, capacity: float) -> None:
        if not capacity > 0:
            raise SimError(f"constraint {name!r} needs positive capacity")
        self.name = name
        self.capacity = float(capacity)
        # Insertion-ordered member set (dict keys).  A fid is drawn
        # immediately before its flow attaches, so insertion order is
        # fid order: the fill and ``load`` sum members in that order.
        self._flows: Dict["Flow", None] = {}
        self._component: Optional["_Component"] = None
        # A frozen member decrements them even in a fill that pruned
        # this constraint (and so never reads them).
        self._live_w = 0.0
        self._live_n = 0

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
                 "weight", "_component", "_done_eps", "_ub",
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
        #: No fill rate exceeds the least of the cap and the capacities
        #: on the path (refreshed by FlowScheduler.set_capacity).
        self._ub = _bound(rate_cap, self.constraints)

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

    What the fill reads instead of scanning members:

    * ``classes`` is the class table of the links: (capacity, member
      count) to the constraints of that class, no class empty;
    * ``hubs`` holds the constraints of more than ``_LINK_MAX``
      members, each a class of its own;
    * ``ubs`` counts the flows per value of their bound ``Flow._ub``
      (its largest key is the prune's ``U``);
    * ``weighted`` counts the flows whose weight is not 1.0;
    * ``capped`` maps each ``rate_cap`` to the flows that carry it.

    :class:`FlowScheduler` keeps them exact as flows attach, detach and
    merge and as ``set_capacity`` moves a constraint and its members'
    bounds; :meth:`classify` derives them for each part of a split (and
    for a component assembled by hand).
    """

    __slots__ = ("cid", "flows", "constraints", "classes", "hubs", "ubs",
                 "weighted", "capped", "last_update", "deadline", "ver",
                 "alive")

    def __init__(self, cid: int, now: float) -> None:
        self.cid = cid
        self.flows: Dict[Flow, None] = {}
        self.constraints: Dict[CapacityConstraint, None] = {}
        self.classes: Dict[tuple, Dict[CapacityConstraint, None]] = {}
        self.hubs: Dict[CapacityConstraint, None] = {}
        self.ubs: Dict[float, int] = {}
        self.weighted = 0
        self.capped: Dict[float, Dict[Flow, None]] = {}
        self.last_update = now
        self.deadline = math.inf
        self.ver = 0
        self.alive = True

    def classify(self) -> None:
        """Re-derive the class table and the per-flow tallies from
        ``constraints`` and ``flows``."""
        self.classes = {}
        self.hubs = {}
        for c in self.constraints:
            n = len(c._flows)
            if n > _LINK_MAX:
                self.hubs[c] = None
            else:
                _enter(self.classes, (c.capacity, n), c)
        self.ubs = {}
        self.weighted = 0
        self.capped = {}
        for f in self.flows:
            self.count_flow(f)

    def count_flow(self, f: Flow) -> None:
        """Add ``f`` (already in ``flows``) to the per-flow tallies."""
        ubs = self.ubs
        ubs[f._ub] = ubs.get(f._ub, 0) + 1
        if f.weight != 1.0:
            self.weighted += 1
        if f.rate_cap is not None:
            _enter(self.capped, f.rate_cap, f)

    def absorb(self, other: "_Component") -> None:
        """Add a merged component's class table and tallies to these."""
        classes = self.classes
        for key, members in other.classes.items():
            mine = classes.get(key)
            if mine is None:
                classes[key] = members
            else:
                mine.update(members)
        self.hubs.update(other.hubs)
        ubs = self.ubs
        for ub, n in other.ubs.items():
            ubs[ub] = ubs.get(ub, 0) + n
        self.weighted += other.weighted
        capped = self.capped
        for cap, members in other.capped.items():
            mine = capped.get(cap)
            if mine is None:
                capped[cap] = members
            else:
                mine.update(members)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<_Component #{self.cid} flows={len(self.flows)} "
                f"constraints={len(self.constraints)} "
                f"deadline={self.deadline:.6g}>")


class FlowScheduler:
    """Tracks active flows and drives them to completion over sim time.

    Incremental, component-partitioned engine: per membership change it
    advances and reallocates only the connected component of the
    flow↔constraint graph that the change touches, by weighted
    progressive filling in place (:meth:`_fill`).  One
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
        # Negated comparisons, so that NaN is refused too.  An infinite
        # size never completes, and an infinite weight starves every
        # co-member; an infinite ``rate_cap`` just means uncapped.
        if not size >= 0:
            raise SimError(f"negative transfer size {size}")
        if size == math.inf:
            raise SimError("transfer size must be finite, got inf")
        if rate_cap is not None and not rate_cap > 0:
            raise SimError(f"rate_cap must be positive, got {rate_cap}")
        if not weight > 0:
            raise SimError(f"weight must be positive, got {weight}")
        if weight == math.inf:
            raise SimError("weight must be finite, got inf")
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
        if not capacity > 0:
            raise SimError(
                f"constraint {constraint.name!r} needs positive capacity")
        if capacity == constraint.capacity:
            return
        self._run_due()
        comp = constraint._component
        finished: List[Flow] = []
        if comp is not None and comp.alive:
            self._advance(comp, self.sim.now, finished)
        old = constraint.capacity
        constraint.capacity = float(capacity)
        if comp is not None:
            # The constraint carries flows: a link changes class, and
            # its members' bounds (and their tally) may move.
            n = len(constraint._flows)
            if n <= _LINK_MAX:
                _leave(comp.classes, (old, n), constraint)
                _enter(comp.classes, (constraint.capacity, n), constraint)
            ubs = comp.ubs
            for f in constraint._flows:
                ub = _bound(f.rate_cap, f.constraints)
                if ub != f._ub:
                    _uncount(ubs, f._ub)
                    ubs[ub] = ubs.get(ub, 0) + 1
                    f._ub = ub
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
                host.absorb(comp)
                comp.alive = False
                self._comps.pop(comp, None)
        else:
            host = _Component(next(self._cid), now)
            self._comps[host] = None
        host.flows[flow] = None
        flow._component = host
        host.count_flow(flow)
        # Each constraint's member count goes n -> n + 1: a link moves
        # to the next class or becomes a hub, and at 0 it also enters
        # the component.  ``Flow`` collapses a repeated constraint (a
        # loopback bulk over its node's membus names it twice), so each
        # count moves once.
        classes = host.classes
        for c in flow.constraints:
            members = c._flows
            n = len(members)
            members[flow] = None
            if n > _LINK_MAX:
                continue        # a hub stays one
            if n:
                _leave(classes, (c.capacity, n), c)
            else:
                c._component = host
                host.constraints[c] = None
            if n < _LINK_MAX:
                _enter(classes, (c.capacity, n + 1), c)
            else:
                host.hubs[c] = None
        return host

    def _detach(self, flow: Flow) -> Optional[_Component]:
        """Remove ``flow`` from all bookkeeping; returns its component."""
        comp = flow._component
        flow._component = None
        self._flows.pop(flow, None)
        if comp is None:  # pragma: no cover - defensive
            for c in flow.constraints:
                del c._flows[flow]
            return None
        del comp.flows[flow]
        _uncount(comp.ubs, flow._ub)     # the tallies of count_flow
        if flow.weight != 1.0:
            comp.weighted -= 1
        if flow.rate_cap is not None:
            _leave(comp.capped, flow.rate_cap, flow)
        classes = comp.classes
        for c in flow.constraints:     # n -> n - 1, as in _attach
            members = c._flows
            n = len(members)
            del members[flow]
            if n > _LINK_MAX + 1:
                continue        # a hub stays one
            if n > _LINK_MAX:
                del comp.hubs[c]
            else:
                _leave(classes, (c.capacity, n), c)
            if n > 1:
                _enter(classes, (c.capacity, n - 1), c)
            else:
                c._component = None
                del comp.constraints[c]
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
        # A constraint that spans every member (e.g. the fabric core)
        # keeps the component connected: skip the sweep.
        if n > _LINK_MAX:
            for c in comp.hubs:
                if len(c._flows) == n:
                    return [comp]
        else:
            for _cap, k in comp.classes:
                if k == n:
                    return [comp]
        unvisited = dict.fromkeys(comp.flows)
        parts: List[List[Flow]] = []
        seen_c: Dict[CapacityConstraint, None] = {}
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
                    seen_c[c] = None
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
            part.classify()
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
        self.flows_touched += len(comp.flows)
        # ``inf`` (nothing progresses) stays ``inf``.
        comp.deadline = comp.last_update + self._fill(comp)
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
    def _fill(comp: _Component) -> float:
        """Weighted progressive filling, in place on one component.

        Same fill semantics as the oracle's global progressive fill,
        walked over the component's constraints and their fid-ordered
        member sets, writing ``Flow.rate`` directly; returns the time
        until the first member completes at those rates (``inf`` if
        none progresses).  Round state lives in scratch slots: per
        constraint the bandwidth used, and the weight sum and exact
        count of unfrozen members (decremented as flows freeze, not
        re-summed every round).  A component of one flow takes the same
        rounds as any other.

        Every float operation is the one the straightforward fill (a
        loop over all constraints per round, then a pass over all flows
        for the deadline) performs, on the same values; only work whose
        result is already known exactly is skipped:

        * **Live constraints only.**  A constraint whose members have
          all frozen takes part in no later round, so each round walks
          ``live`` and drops such constraints as their last member
          freezes (order preserved: weighted decrements depend on it).
        * **No bookkeeping after the last round.**  When a round
          freezes every flow still unfrozen, no later round reads the
          unfrozen weights and counts, so their decrements and the
          ``live`` rebuild are skipped (the fill starts every
          constraint it walks afresh).
        * **Deadline from each round's frozen batch.**  Every weight-1
          flow frozen in a round takes ``rate = level``; dividing by
          the same positive ``level`` is monotone, so the batch's
          ``min(remaining) / level`` equals the least per-flow quotient.
          Weighted flows divide their own rate as they freeze.
        * **Constraints that can never bind are pruned** (weight-1
          components).  Let ``U`` be the largest ``Flow._ub`` of the
          component.  A constraint with ``n`` members and a capacity
          ``cap`` in ``[_FOLD_MIN, inf)`` leaves the fill when
          ``n * U < cap * (1 - m)``, ``m = _PRUNE_MARGIN = 1e-6``.  Why
          that changes no float: with ``u = 2**-53`` and ``R`` rounds,
          every rate is a sum of ``R`` non-negative increments, and a
          constraint that can bind never rises above ``cap * (1 + 5u)``
          (each increment is at most its ``(cap - used) / lw``).  The
          constraint or cap that sets a flow's ``_ub`` is never pruned
          (``n * U >= cap`` for it), so bounding the flow's rate by its
          running sum gives ``rate <= _ub * (1 + (3R + 5)u)``.  A pruned
          constraint's ``used`` is its members' rates summed with
          ``2R`` more roundings, at most ``n * U * (1 + 6(R + 1)u)``.
          The saturation test needs ``used >= cap * (1 - 1e-9)``, so it
          never holds while ``m > 1e-9 + 6(R + 1)u``; and a constraint
          that supplied the round's least increment would reach
          ``cap * (1 - 4u)`` that round and saturate.  So it never
          freezes a flow nor sets an increment: removing it moves
          nothing.  Each round freezes a flow, so ``R`` is at most the
          flow count, and ``m = 1e-6`` holds below 1.5e9 flows.
          Infinite capacities stay (``inf - used <= 1e-9 * inf`` holds:
          they freeze their members in round one), and so do those
          below ``_FOLD_MIN``, where subnormal round-off is absolute.  A
          component with a weighted flow (only Fig. 1's
          ``inject_load(width > 1)`` makes one) prunes nothing: rounded
          weight decrements can overstate a constraint's live weight,
          and with it ``used``, by more than any fixed margin.
        * **Class table, no classification.**  The prune test and the
          binder count depend on a constraint only through its
          (capacity, member count) class, so a weight-1 fill applies
          them once per link class of ``comp.classes`` and once per
          hub of ``comp.hubs`` (each its own class), and takes ``U``
          from ``comp.ubs`` and the caps from ``comp.capped``: all kept
          exact by the scheduler.  The unpruned classes feed the round
          loop in table order, which does not matter with every weight
          1.0 (counts are exact and every minimum is order-free).
        * **One binder per flow: rounds over classes.**  Call the
          constraints left after the prune, and the rate caps, binders;
          a flow with a finite ``_ub`` has at least one.  When the
          (flow, binder) pairs are exactly as many as the flows, every
          flow has one binder: it freezes in the round that binder
          saturates, with all of the binder's members, so no freeze
          changes another binder's unfrozen count, and each binder
          keeps all ``n`` members live until it saturates.  Then every
          binder of one class starts from ``used = 0.0`` and adds the
          same ``delta * n`` each round, so all have the same candidate
          ``(cap - used) / n`` and the same saturation test in every
          round: :func:`_one_binder_fill` runs the rounds once per
          class, and a rate-cap class, keyed by ``rate_cap``, likewise
          (a capped flow's own rate adds the same ``delta`` as
          ``level``, so it is ``level``).  After the rounds each flow
          is touched once: ``rate`` is the level of the round its class
          saturated, and the deadline is each class's least
          ``remaining`` over that level.  It pays for itself on the
          bulk-transfer mesh (``transfer_mesh``), where only the
          per-connection caps bind: that is all of its fills.
        """
        inf = math.inf
        flows = comp.flows
        live = []
        own = []
        if not comp.weighted:
            ub_max = max(comp.ubs)  # the largest per-flow bound ``_ub``
            below = _PRUNE_BELOW
            binds = 0           # (flow, binder) pairs
            for capped in comp.capped.values():
                binds += len(capped)
            bound = []
            for key, members in comp.classes.items():
                cap, n = key
                if n * ub_max < cap * below and _FOLD_MIN <= cap < inf:
                    continue
                binds += n * len(members)
                bound.append((cap, n, members))
            for c in comp.hubs:
                cap = c.capacity
                n = len(c._flows)
                if n * ub_max < cap * below and _FOLD_MIN <= cap < inf:
                    continue
                binds += n
                bound.append((cap, n, (c,)))
            # A flow with a finite ``_ub`` has a binder (whatever sets
            # it is never pruned): equal counts mean one per flow.
            if binds == len(flows) and ub_max < inf:
                return _one_binder_fill(bound, comp.capped)
            for _cap, n, members in bound:
                lw = float(n)   # exact: every weight is 1.0
                for c in members:
                    c._live_w = lw
                    c._live_n = n
                    c._used = 0.0
                live += members
            for f in flows:
                f._frozen = False
                if f.rate_cap is not None:
                    # Uncapped weight-1 flows all rise by the same
                    # additions: they share ``level`` and take it as
                    # their rate when they freeze.  Only capped ones
                    # accumulate a rate of their own per round.
                    f.rate = 0.0
                    own.append(f)
        else:
            for f in flows:
                f._frozen = False
                if f.weight != 1.0 or f.rate_cap is not None:
                    f.rate = 0.0
                    own.append(f)
            # Weighted decrements round, so their order matters: walk
            # the component's constraints in order and prune none.
            for c in comp.constraints:
                n = len(c._flows)
                c._live_w = float(n)
                c._live_n = n
                c._used = 0.0
                live.append(c)
            for f in own:
                if f.weight != 1.0:
                    for c in f.constraints:
                        c._live_w = 0.0     # summed exactly in round one
        level = 0.0
        left = len(flows)
        next_done = inf
        # Each round freezes at least one flow (or stops).
        while left:
            # delta is the uniform increment of the *normalized* rate
            # (rate/weight) of all unfrozen flows.
            delta = inf
            for c in live:
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
            if delta == inf:
                # No constraint and no cap limits the rest: unbounded.
                level = inf
                break
            if delta < 0.0:
                delta = 0.0
            level += delta
            # Freeze flows limited by a saturated constraint or their cap.
            froze = []
            for c in live:
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
            least = inf
            for f in froze:
                if f.weight == 1.0:
                    f.rate = level
                    if f.remaining < least:
                        least = f.remaining
                elif f.rate > 0:
                    d = f.remaining / f.rate
                    if d < next_done:
                        next_done = d
            if level > 0:
                d = least / level
                if d < next_done:
                    next_done = d
            left -= len(froze)
            if left:
                for f in froze:
                    w = f.weight
                    for c in f.constraints:
                        c._live_w -= w
                        c._live_n -= 1
                live = [c for c in live if c._live_n > 0]
                if own:
                    own = [f for f in own if not f._frozen]
        if left:
            # Stopped early: unbounded, or left where the guard stopped.
            for f in flows:
                if not f._frozen:
                    if f.weight == 1.0 or level == inf:
                        f.rate = level
                    if f.rate > 0:
                        d = f.remaining / f.rate
                        if d < next_done:
                            next_done = d
        return next_done

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


def _one_binder_fill(bound: list, capped: Dict[float, Dict[Flow, None]]
                     ) -> float:
    """The rounds of a one-binder weight-1 fill, once per class.

    ``bound`` holds ``(capacity, member count, constraints)`` per
    unpruned class of the component (a hub is a class of one),
    ``capped`` its capped flows by ``rate_cap``; each flow has exactly
    one binder among them.  Every
    binder of a class has the same ``used`` in every round (see
    :meth:`FlowScheduler._fill`), so a class's candidate and saturation
    test are its constraints' own; a rate-cap class uses the cap's test.
    Writes every member's ``rate`` and returns the time until the first
    completes.
    """
    inf = math.inf
    eps = _EPS
    live = [[cap, float(n), 0.0, members] for cap, n, members in bound]
    caps = list(capped.items())
    level = 0.0
    settled = []    # (level, constraints) per saturated class
    capped_at = []  # (level, flows) per saturated rate cap
    while live or caps:
        delta = inf
        for r in live:
            d = (r[0] - r[2]) / r[1]
            if d < delta:
                delta = d
        for cap, _flows in caps:
            d = cap - level
            if d < delta:
                delta = d
        if delta == inf:
            level = inf
            break
        if delta < 0.0:
            delta = 0.0
        level += delta
        froze = False
        keep = []
        for r in live:
            cap = r[0]
            used = r[2] = r[2] + delta * r[1]
            if cap - used <= eps * cap:
                settled.append((level, r[3]))
                froze = True
            else:
                keep.append(r)
        live = keep
        if caps:
            keep = []
            for item in caps:
                cap = item[0]
                if level >= cap - eps * cap:
                    capped_at.append((level, item[1]))
                    froze = True
                else:
                    keep.append(item)
            caps = keep
        if not froze:
            # Numerical guard: nothing progressed; stop here.
            break
    # Classes left when the rounds stopped take the final level.
    for r in live:
        settled.append((level, r[3]))
    for cap, flows in caps:
        capped_at.append((level, flows))
    next_done = inf
    for at, members in settled:
        least = inf
        for c in members:
            for f in c._flows:
                f.rate = at
                if f.remaining < least:
                    least = f.remaining
        if at > 0:
            d = least / at
            if d < next_done:
                next_done = d
    for at, flows in capped_at:
        least = inf
        for f in flows:
            f.rate = at
            if f.remaining < least:
                least = f.remaining
        if at > 0:
            d = least / at
            if d < next_done:
                next_done = d
    return next_done
