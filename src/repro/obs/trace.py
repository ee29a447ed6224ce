"""Sim-time span tracer.

A :class:`Tracer` records spans (intervals of sim time with
parent/child causality) and marks (instant events) — no objects per
span, no calendar events, no clock reads.  It rides on a
``Simulator`` instance as ``sim.tracer`` (``None`` by default), so
every instrumentation site in the stack is a single attribute load
plus a ``None`` check when tracing is disabled.

Determinism: span ids are append order, timestamps are sim time, and
category filters are fixed at construction — so for a fixed workload
the recorded trace (and everything exported from it) is identical
across runs, and on the kernel and wire oracles of ``tests/oracles/``.

Storage is columnar, not record-per-span: parallel lists for the
string fields (appends of already-interned pointers), ``array('d')``
for the timestamps (raw doubles, no boxed floats retained), and a
sparse ``{sid: dict}`` side table for the few spans that carry args.
Recording a span therefore allocates *nothing* — which matters
because every object a tracer allocates counts toward the cyclic
GC's allocation thresholds, and at replay span rates (tens of
thousands of spans per wall second) record-object allocation
triggers enough extra young-gen collections — each re-scanning the
simulator's own long-lived heap — to double the layer's measured
overhead.  ``end()`` is a single array store.

High-volume spans with a numeric payload (flow sizes) use the
``nbytes`` channel of :meth:`Tracer.complete` — another raw-double
column — together with a *shared* args dict, instead of building a
fresh args dict per span; materialization folds the value back in
as ``args["bytes"]``, so consumers see the same record shape either
way.

Consumers read :attr:`Tracer.spans`, a property that materializes
plain tuples::

    (sid, parent_sid, category, name, track, t0, t1, args_or_None)

indexable with the ``SID`` .. ``ARGS`` constants below.  Materializing
is O(n) per access — fine post-run (exporters, views, tests), never
done on the hot path.

``t1`` is ``_OPEN`` (-1.0) while the span is open; sim time is always
>= 0 so the sentinel is unambiguous.  Mark records are::

    (category, name, track, t, parent_sid, args_or_None)
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence

# Field indices into span records, for readable consumers.
SID = 0
PARENT = 1
CAT = 2
NAME = 3
TRACK = 4
T0 = 5
T1 = 6
ARGS = 7

_OPEN = -1.0

#: Every category the stack emits, in rendering order.
CATEGORIES = (
    "job",
    "sched",
    "task",
    "urd",
    "rpc",
    "flow",
    "fault",
    "workflow",
)


class Tracer:
    """Deterministic sim-time span/mark recorder for one simulator."""

    __slots__ = ("sim", "marks", "_all", "_cats", "_n",
                 "_parent", "_cat", "_name", "_track",
                 "_t0", "_t1", "_nbytes", "_args")

    def __init__(self, sim, categories: Optional[Sequence[str]] = None):
        self.sim = sim
        self.marks: List[tuple] = []
        self._n = 0
        self._parent = array("q")
        self._cat: List[str] = []
        self._name: List[str] = []
        self._track: List[str] = []
        self._t0 = array("d")
        self._t1 = array("d")
        self._nbytes = array("d")  # -1.0 = no numeric payload
        self._args: Dict[int, dict] = {}
        if categories is None:
            self._all = True
            self._cats = frozenset(CATEGORIES)
        else:
            self._all = False
            self._cats = frozenset(categories)

    # -- recording -----------------------------------------------------

    def wants(self, category: str) -> bool:
        """True if spans in *category* are being recorded."""
        return self._all or category in self._cats

    def begin(
        self,
        category: str,
        name: str,
        track: str = "",
        parent: int = -1,
        args: Optional[dict] = None,
    ) -> int:
        """Open a span at the current sim time; returns its id.

        Returns -1 when the category is filtered out — ``end(-1)`` is
        a no-op, so call sites never need their own filter check.
        """
        if not (self._all or category in self._cats):
            return -1
        sid = self._n
        self._n = sid + 1
        self._parent.append(parent)
        self._cat.append(category)
        self._name.append(name)
        self._track.append(track)
        self._t0.append(self.sim.now)
        self._t1.append(_OPEN)
        self._nbytes.append(-1.0)
        if args is not None:
            self._args[sid] = args
        return sid

    def end(self, sid: int, args: Optional[dict] = None) -> None:
        """Close span *sid* at the current sim time."""
        if sid < 0:
            return
        self._t1[sid] = self.sim.now
        if args:
            prev = self._args.get(sid)
            self._args[sid] = {**prev, **args} if prev else args

    def complete(
        self,
        category: str,
        name: str,
        t0: float,
        t1: float,
        track: str = "",
        parent: int = -1,
        args: Optional[dict] = None,
        nbytes: float = -1.0,
    ) -> int:
        """Record a span retroactively from already-known timestamps.

        Used where a subsystem keeps its own lifecycle timestamps
        (NORNS ``TaskStats``, flow ``started_at``/``finished_at``) and
        one record at the terminal transition is cheaper than opening
        and closing a live span.

        *nbytes* >= 0 records a byte count without allocating: it is
        surfaced to consumers as ``args["bytes"]`` at materialization,
        so *args* itself can be a dict shared across many spans.
        """
        if not (self._all or category in self._cats):
            return -1
        sid = self._n
        self._n = sid + 1
        self._parent.append(parent)
        self._cat.append(category)
        self._name.append(name)
        self._track.append(track)
        self._t0.append(t0)
        self._t1.append(t1)
        self._nbytes.append(nbytes)
        if args is not None:
            self._args[sid] = args
        return sid

    def instant(
        self,
        category: str,
        name: str,
        track: str = "",
        parent: int = -1,
        args: Optional[dict] = None,
    ) -> None:
        """Record a zero-duration mark at the current sim time."""
        if not (self._all or category in self._cats):
            return
        self.marks.append((category, name, track, self.sim.now, parent, args))

    # -- reading -------------------------------------------------------

    @property
    def spans(self) -> List[tuple]:
        """All recorded spans as ``(sid, parent, cat, name, track,
        t0, t1, args)`` tuples, in id (= append) order."""
        get_args = self._args.get
        parent, cat = self._parent, self._cat
        name, track = self._name, self._track
        t0, t1, nbytes = self._t0, self._t1, self._nbytes
        out = []
        for i in range(self._n):
            a = get_args(i)
            nb = nbytes[i]
            if nb >= 0.0:
                a = {"bytes": nb, **a} if a else {"bytes": nb}
            out.append((i, parent[i], cat[i], name[i], track[i],
                        t0[i], t1[i], a))
        return out

    # -- finalization --------------------------------------------------

    def close_open(self, at: Optional[float] = None) -> int:
        """Close any still-open spans (jobs in flight at drain time).

        Returns the number of spans closed.  Called once at end of
        run so exporters never see the ``_OPEN`` sentinel.
        """
        t = self.sim.now if at is None else at
        t1 = self._t1
        n = 0
        for sid in range(self._n):
            if t1[sid] == _OPEN:
                t1[sid] = t
                prev = self._args.get(sid)
                self._args[sid] = {**prev, "open_at_finalize": True} \
                    if prev else {"open_at_finalize": True}
                n += 1
        return n

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-category counts and busy seconds, sorted by category."""
        out: Dict[str, Dict[str, float]] = {}
        cats, t0s, t1s = self._cat, self._t0, self._t1
        for sid in range(self._n):
            row = out.setdefault(cats[sid], {"spans": 0, "marks": 0, "busy_seconds": 0.0})
            row["spans"] += 1
            if t1s[sid] != _OPEN:
                row["busy_seconds"] += t1s[sid] - t0s[sid]
        for mrec in self.marks:
            row = out.setdefault(mrec[0], {"spans": 0, "marks": 0, "busy_seconds": 0.0})
            row["marks"] += 1
        return {cat: out[cat] for cat in sorted(out)}


def attach_tracer(sim, categories: Optional[Sequence[str]] = None) -> Tracer:
    """Create a tracer for *sim* and install it as ``sim.tracer``."""
    tracer = Tracer(sim, categories=categories)
    sim.tracer = tracer
    return tracer
