"""The discrete-event simulation core: events, processes, the simulator.

Design
------
The kernel follows the SimPy execution model, reimplemented from scratch:

* A :class:`Simulator` owns an event calendar ordered by
  ``(time, priority, sequence)``.  The sequence number makes ordering a
  total order, so two runs of the same program are bit-identical.
* An :class:`Event` is a one-shot promise.  It is *triggered* with a
  value (:meth:`Event.succeed`) or an exception (:meth:`Event.fail`),
  which schedules it on the calendar; when the simulator pops it, all
  registered callbacks run at that virtual instant.
* A :class:`Process` wraps a generator.  The generator ``yield``\\ s
  events; when a yielded event fires, the process resumes with the
  event's value (or the exception is thrown into it).  A process is
  itself an event that fires when the generator returns, so processes
  compose (``yield child_process``).
* A :class:`TimeoutHandle` (from :meth:`Simulator.cancellable_timeout`)
  is a timeout that can be revoked after scheduling.  Cancellation is
  *lazy*: a cancelled timeout stays on the calendar but is skipped in
  O(1) when popped — it runs no callbacks and does not count as a
  processed event.  The flow engine uses this to supersede stale
  ``flow:wake`` events without growing the calendar on every
  reallocation.

Two kernels share those event/process semantics and differ only in the
calendar data structure:

* :class:`Simulator` (the default, also exported as ``FastSimulator``)
  keeps a **flat heap of distinct timestamps** over per-instant event
  slabs: scheduling an event is a dict lookup plus a deque append (no
  per-entry ``(time, priority, seq, Event)`` tuple is ever allocated),
  a whole run of same-timestamp events advances ``now`` once and
  dispatches in one tight loop, and lazily-deleted entries are
  **compacted** out of the calendar when they outnumber live ones (see
  ``COMPACT_MIN_DEFUNCT``).  The insertion order of the slabs *is* the
  sequence number, so the total order is identical to the reference
  kernel's.
* :class:`ReferenceSimulator` is the seed kernel — a single binary
  heap of ``(time, priority, seq, Event)`` tuples popped one at a
  time — retained as the parity oracle (the ``ReferenceFlowScheduler``
  pattern): randomized workloads must produce the identical event
  order, times and ``event_count`` on both kernels, and the replay
  golden file must be byte-identical.  Select it for debugging with
  ``REPRO_KERNEL=reference`` in the environment (read once at import).

The only observable difference is deliberate: the reference kernel
never discards a cancelled entry, so draining it always advances the
clock over every cancelled instant, while the fast kernel's compaction
may remove such entries (and their instants) entirely once they
outnumber live ones.  Calendars smaller than ``COMPACT_MIN_DEFUNCT``
never compact, so the clock trajectory of small programs is identical.

Virtual time is a float in **seconds**.  Nothing in the kernel sleeps on
the wall clock; a million simulated requests run in however long the
Python work takes.
"""

from __future__ import annotations

import heapq
import itertools
import os
from collections import deque
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from repro.errors import Interrupted, InvalidEventState, SimError, SimulationEnded

__all__ = ["Event", "Process", "Simulator", "FastSimulator",
           "ReferenceSimulator", "TimeoutHandle",
           "PENDING", "TRIGGERED", "PROCESSED"]

#: Event lifecycle states.
PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"

#: Priority band for interrupts — delivered before ordinary events that
#: were scheduled for the same instant, matching SimPy's URGENT.
URGENT = 0
NORMAL = 1

#: The fast kernel sweeps lazily-deleted entries out of the calendar
#: when they outnumber the live ones, but never below this floor:
#: tiny calendars keep every cancelled entry so the clock trajectory of
#: small programs is bit-identical to the reference kernel's, and a
#: steady cancel stream against a small live set compacts (an
#: O(calendar) sweep) at most once per thousand cancels.
COMPACT_MIN_DEFUNCT = 1024

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A one-shot occurrence with a value, scheduled on the calendar.

    Events move ``PENDING -> TRIGGERED -> PROCESSED``.  Callbacks may be
    attached while pending or triggered; attaching to a processed event
    invokes the callback immediately (this keeps "wait on an already
    finished task" race-free, which NORNS' completion queries rely on).

    ``callbacks`` is stored adaptively — ``None`` (no callbacks yet),
    a bare callable (exactly one, the overwhelmingly common case: the
    resume hook of the process that yielded the event), or a list.
    Removed list slots are tombstoned to ``None`` instead of shifted so
    a parked process can withdraw its resume hook without an O(n)
    ``list.remove`` and without reordering the remaining callbacks.
    Always go through :meth:`add_callback`/:meth:`remove_callback`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "name",
                 "_defunct")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.callbacks: Any = None
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._state = PENDING
        #: Lazily-deleted calendar entry: skipped at pop time.
        self._defunct = False

    # -- inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> Optional[bool]:
        """``True``/``False`` once triggered, ``None`` while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == PENDING:
            raise InvalidEventState(f"value of {self!r} not yet available")
        return self._value

    # -- triggering ---------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, firing after ``delay``."""
        self._trigger(True, value, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exc, BaseException):
            raise InvalidEventState(f"fail() needs an exception, got {exc!r}")
        self._trigger(False, exc, delay)
        return self

    def _trigger(self, ok: bool, value: Any, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        if self._state != PENDING:
            raise InvalidEventState(f"{self!r} already {self._state}")
        if delay < 0:
            raise SimError(f"negative delay {delay!r}")
        self._ok = ok
        self._value = value
        self._state = TRIGGERED
        self.sim._schedule(self, delay, priority)

    # -- callbacks ----------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._state == PROCESSED:
            fn(self)
            return
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = fn
        elif cbs.__class__ is list:
            cbs.append(fn)
        else:
            self.callbacks = [cbs, fn]

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Withdraw a registered callback (no-op if absent).

        The scan runs newest-first because the caller is almost always
        the most recent waiter (a process being interrupted out of its
        yield), making the common case O(1).  A match at the tail is
        popped; a match in the middle is tombstoned so the positions —
        and therefore the dispatch order — of the other callbacks never
        change.
        """
        cbs = self.callbacks
        if cbs is None:
            return
        if cbs.__class__ is not list:
            if cbs == fn:
                self.callbacks = None
            return
        for i in range(len(cbs) - 1, -1, -1):
            c = cbs[i]
            if c is not None and c == fn:
                if i == len(cbs) - 1:
                    cbs.pop()
                    while cbs and cbs[-1] is None:
                        cbs.pop()
                else:
                    cbs[i] = None
                return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{tag} {self._state}>"


#: Pre-bound allocator for the inlined event-construction fast paths
#: (``Simulator.timeout``/``cancellable_timeout``, ``Store.put``/``get``).
_new_event = Event.__new__


class Process(Event):
    """A coroutine driven by the simulator; also an event (its result).

    The wrapped generator yields :class:`Event` instances.  When a
    yielded event fires successfully the generator is resumed with the
    event's value; on failure the exception is thrown into it (so plain
    ``try/except`` works across virtual time).

    Resumes are the kernel's hottest callback: the generator's
    ``send``/``throw`` and the process's own ``_resume`` are bound once
    at construction and reused for every yield, so parking on an event
    and being woken allocates nothing beyond the calendar entry itself.

    The stored ``_resume`` makes a live process a reference cycle with
    itself.  :meth:`_finish` breaks it the moment the generator is done,
    so a finished process and its frame are freed by reference counting
    instead of waiting, by the million, for the cyclic collector.
    """

    __slots__ = ("_gen", "_waiting_on", "_send", "_throw", "_resume_cb")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise SimError(f"Process needs a generator, got {gen!r}")
        super().__init__(sim, name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._send = gen.send
        self._throw = gen.throw
        self._waiting_on: Optional[Event] = None
        self._resume_cb = resume = self._resume
        # Bootstrap: resume the generator at the current instant.  The
        # boot event reuses the process's name (no per-process label
        # formatting) and takes the resume hook directly — it is fresh,
        # so the single-callable representation is safe.
        boot = Event(sim, self.name)
        boot.callbacks = resume
        boot.succeed()

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at this instant.

        Interrupting a dead process is an error; interrupting a process
        that is about to be resumed queues the interrupt first (urgent
        priority), matching SimPy semantics.
        """
        if self._state != PENDING:
            raise SimError(f"cannot interrupt dead process {self.name!r}")
        target = self._waiting_on
        if target is not None:
            target.remove_callback(self._resume_cb)
            self._waiting_on = None
        kick = Event(self.sim, self.name)
        kick.callbacks = self._resume_cb
        kick._trigger(False, Interrupted(cause), 0.0, priority=URGENT)

    # -- engine -------------------------------------------------------
    def _finish(self, ok: bool, value: Any) -> None:
        """Trigger the process's own event and let go of the generator.

        A stale wake-up still queued holds its own bound ``_resume`` and
        bails on ``_state``, so nothing reads these slots again.
        """
        self.sim._active_process = None
        self._gen = self._send = self._throw = self._resume_cb = None
        self._trigger(ok, value)

    def _resume(self, trigger: Event) -> None:
        if self._state != PENDING:
            # Stale wake-up: a second interrupt was queued for the same
            # instant and the first one already ran the generator to
            # completion (e.g. a cancel racing a node-failure knockout).
            return
        self._waiting_on = None
        sim = self.sim
        sim._active_process = self
        event: Any = trigger
        while True:
            try:
                if event._ok:
                    target = self._send(event._value)
                else:
                    target = self._throw(event._value)
            except StopIteration as stop:
                self._finish(True, stop.value)
                return
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    sim._active_process = None
                    raise
                # Drop this frame from the traceback: it holds ``self``,
                # which is about to hold ``exc`` — a cycle otherwise.
                exc.__traceback__ = exc.__traceback__.tb_next
                self._finish(False, exc)
                return

            if target.__class__ is not Event and not isinstance(target, Event):
                self._finish(False, SimError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event instances"
                ))
                return
            if target.sim is not sim:
                self._finish(False, SimError(
                    "yielded event belongs to another simulator"))
                return

            if target._state == PROCESSED:
                # Already done — continue synchronously with its value.
                event = target
                continue
            self._waiting_on = target
            # Inlined add_callback (the PROCESSED case is excluded
            # above): parking is the per-yield hot path.
            cbs = target.callbacks
            if cbs is None:
                target.callbacks = self._resume_cb
            elif cbs.__class__ is list:
                cbs.append(self._resume_cb)
            else:
                target.callbacks = [cbs, self._resume_cb]
            sim._active_process = None
            return


class TimeoutHandle:
    """A scheduled timeout that can be revoked (lazy deletion).

    Returned by :meth:`Simulator.cancellable_timeout`.  ``cancel()``
    marks the underlying calendar entry defunct: the entry remains
    where it is but the simulator skips it in O(1) when it surfaces —
    no callbacks run and it does not count as a processed event.  The
    fast kernel additionally sweeps defunct entries out of the calendar
    once they outnumber live ones.  Cancelling an already-fired or
    already-cancelled timeout is a no-op returning ``False``.
    """

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event

    @property
    def active(self) -> bool:
        """True while the timeout is scheduled and not cancelled."""
        return self.event._state == TRIGGERED and not self.event._defunct

    def cancel(self) -> bool:
        ev = self.event
        if ev._state == PROCESSED or ev._defunct:
            return False
        # Invariant the dispatch loop relies on: a defunct entry never
        # has callbacks, so its skip check hides behind the (already
        # needed) no-callbacks branch.
        ev._defunct = True
        ev.callbacks = None
        sim = ev.sim
        sim._defunct_pending = d = sim._defunct_pending + 1
        if d >= sim._compact_at:
            sim._check_compact()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.event._defunct else self.event._state
        return f"<TimeoutHandle {self.event.name!r} {state}>"


class Simulator:
    """The fast event loop: a flat time-keyed calendar of event slabs.

    The calendar has four parts:

    * ``_times`` — a binary heap of **distinct** future timestamps
      (bare floats, so pushes and pops stay in C without per-entry
      tuple allocation).
    * ``_buckets`` — ``timestamp -> slab`` where a slab is a bare
      :class:`Event` (one entry at that instant) or a ``deque`` in
      insertion order.  Scheduling is one dict lookup plus an append;
      the heap is only touched for the *first* entry at a new instant.
    * ``_due`` / ``_due_urgent`` — the slab for the **current**
      instant.  Everything scheduled with zero delay lands here
      directly, and ``run()`` drains it in a tight loop: a run of
      same-timestamp events advances :attr:`now` once.
    * ``_urgent_buckets`` — future URGENT entries; practically always
      empty (interrupts are delivered at the current instant) but kept
      for strict ordering parity with the reference kernel.

    Insertion order within a slab is exactly the global sequence-number
    order the reference kernel's ``(time, priority, seq)`` tuples
    encode — an entry lands in a future bucket only while ``now`` is
    strictly earlier, so bucket entries always precede same-instant
    ``_due`` arrivals — which is what keeps replay output byte-identical
    across kernels.

    ``run()`` pops events in order, advancing :attr:`now` and invoking
    callbacks, until the calendar empties, a deadline passes, or an
    awaited event fires.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now: float = float(start)
        self._times: List[float] = []
        self._buckets: Dict[float, Any] = {}
        self._urgent_buckets: Dict[float, deque] = {}
        self._due: deque = deque()
        self._due_urgent: deque = deque()
        self._active_process: Optional[Process] = None
        self._event_count = 0
        #: calendar accounting (see :meth:`stats`): cancelled entries
        #: still parked, cancelled entries skipped at pop, compaction
        #: sweeps, and the defunct level of the next compaction check
        #: (grown geometrically after a declined check so a steady
        #: cancel stream never rescans the calendar per cancel).
        self._defunct_pending = 0
        self._defunct_skips = 0
        self._compactions = 0
        self._compact_at = COMPACT_MIN_DEFUNCT
        #: optional span tracer (:class:`repro.obs.Tracer`).  ``None``
        #: keeps every instrumentation site in the stack to a single
        #: attribute load + test; the tracer never schedules events.
        self.tracer = None

    # -- scheduling ---------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        now = self.now
        t = now + delay
        if t == now:
            # Zero effective delay: straight onto the current instant's
            # slab — no heap, no bucket, no key hashing.
            if priority == NORMAL:
                self._due.append(event)
            else:
                self._due_urgent.append(event)
            return
        if priority != NORMAL:
            self._schedule_future_urgent(event, t)
            return
        buckets = self._buckets
        slab = buckets.get(t)
        if slab is None:
            buckets[t] = event
            heapq.heappush(self._times, t)
        elif slab.__class__ is deque:
            slab.append(event)
        else:
            buckets[t] = deque((slab, event))

    def _schedule_future_urgent(self, event: Event, t: float) -> None:
        # URGENT entries are only ever produced at the current instant
        # (Process.interrupt, zero delay); this path keeps the general
        # case correct without taxing the hot one.  A timestamp may end
        # up in the heap twice (urgent first, normal later) — the
        # advance loop tolerates stale duplicates.
        ub = self._urgent_buckets.get(t)
        if ub is None:
            self._urgent_buckets[t] = deque((event,))
            heapq.heappush(self._times, t)
        else:
            ub.append(event)

    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Event:
        """An event that fires ``delay`` seconds from now.

        The default name is empty: timeouts are the hottest event kind
        (one per message hop), and formatting a debug label per call is
        measurable at replay scale.  The trigger is inlined — the event
        is fresh, so the ``succeed()`` state machinery is bypassed.
        """
        if delay < 0:
            raise SimError(f"negative timeout {delay!r}")
        # Fully inlined construction + schedule: this method runs once
        # per message hop at replay scale, and on CPython each function
        # call and __init__ layer is tens of nanoseconds.
        ev = _new_event(Event)
        ev.sim = self
        ev.name = name
        ev.callbacks = None
        ev._ok = True
        ev._value = value
        ev._state = TRIGGERED
        ev._defunct = False
        now = self.now
        t = now + delay
        if t == now:
            self._due.append(ev)
            return ev
        buckets = self._buckets
        slab = buckets.get(t)
        if slab is None:
            buckets[t] = ev
            _heappush(self._times, t)
        elif slab.__class__ is deque:
            slab.append(ev)
        else:
            buckets[t] = deque((slab, ev))
        return ev

    def cancellable_timeout(self, delay: Optional[float] = None, *,
                            at: Optional[float] = None, value: Any = None,
                            name: str = "") -> TimeoutHandle:
        """A timeout that can be revoked; returns a :class:`TimeoutHandle`.

        Exactly one of ``delay`` (relative) or ``at`` (absolute virtual
        time) must be given.  ``at`` schedules the entry at that exact
        float key — callers that derived a deadline as ``now + dt``
        earlier can hit it bit-exactly without re-deriving it through a
        second addition (which is also why this does not delegate to
        ``_schedule``: ``now + (at - now)`` need not equal ``at``).
        """
        if (delay is None) == (at is None):
            raise SimError("cancellable_timeout needs exactly one of "
                           "delay= or at=")
        now = self.now
        when = now + delay if at is None else float(at)
        if when < now:
            raise SimError(f"cancellable timeout at {when} lies in the past "
                           f"(now={now})")
        ev = _new_event(Event)
        ev.sim = self
        ev.name = name
        ev.callbacks = None
        ev._ok = True
        ev._value = value
        ev._state = TRIGGERED
        ev._defunct = False
        if when == now:
            self._due.append(ev)
        else:
            buckets = self._buckets
            slab = buckets.get(when)
            if slab is None:
                buckets[when] = ev
                heapq.heappush(self._times, when)
            elif slab.__class__ is deque:
                slab.append(ev)
            else:
                buckets[when] = deque((slab, ev))
        return TimeoutHandle(ev)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator at the current instant."""
        return Process(self, gen, name)

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- execution ----------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled entry, ``inf`` if none.

        Like the reference kernel, this includes lazily-deleted entries
        that have not been compacted away yet — use :meth:`stats` for
        the honest live count.
        """
        if self._due_urgent or self._due:
            return self.now
        return self._times[0] if self._times else float("inf")

    def _advance(self) -> bool:
        """Pop the earliest future instant onto the due slabs.

        Returns ``False`` for a stale duplicate timestamp (see
        :meth:`_schedule_future_urgent`), ``True`` otherwise.
        """
        t = heapq.heappop(self._times)
        slab = self._buckets.pop(t, None)
        ub = None
        if self._urgent_buckets:
            ub = self._urgent_buckets.pop(t, None)
        if slab is None and ub is None:
            return False
        self.now = t
        if ub is not None:
            self._due_urgent.extend(ub)
        if slab is not None:
            if slab.__class__ is deque:
                self._due.extend(slab)
            else:
                self._due.append(slab)
        return True

    def _dispatch_one(self, ev: Event) -> None:
        """Process a single popped calendar entry (shared slow path).

        The defunct check hides behind the no-callbacks branch: a
        cancelled entry always has ``callbacks is None`` (cancel clears
        them), so live events with callbacks — the overwhelming
        majority — never pay for it.
        """
        cbs = ev.callbacks
        ev._state = PROCESSED
        if cbs is None:
            if ev._defunct:
                self._defunct_skips += 1
                self._defunct_pending -= 1
                return
            self._event_count += 1
            if ev._ok is False and not isinstance(ev, Process):
                # An un-awaited failure would otherwise vanish silently.
                raise ev._value
            return
        ev.callbacks = None
        self._event_count += 1
        if cbs.__class__ is list:
            for fn in cbs:
                if fn is not None:
                    fn(ev)
        else:
            cbs(ev)

    def step(self) -> None:
        """Process exactly one calendar entry."""
        while not (self._due_urgent or self._due):
            if not self._times:
                raise SimulationEnded("event calendar is empty")
            self._advance()
        if self._due_urgent:
            ev = self._due_urgent.popleft()
        else:
            ev = self._due.popleft()
        self._dispatch_one(ev)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (drain the calendar), a number (run to
        that virtual time), or an :class:`Event` (run until it fires and
        return its value / raise its exception).
        """
        if until is None:
            self._run_core(None, ())
            return None
        if isinstance(until, Event):
            done: List[Event] = []
            until.add_callback(done.append)
            self._run_core(None, done)
            if not done:
                raise SimulationEnded(
                    f"calendar drained before {until!r} fired"
                )
            if until._ok:
                return until._value
            raise until._value
        deadline = float(until)
        if deadline < self.now:
            raise SimError(f"until={deadline} lies in the past (now={self.now})")
        self._run_core(deadline, ())
        self.now = deadline
        return None

    def _run_core(self, deadline: Optional[float], done: Any) -> None:
        """The dispatch loop, shared by every ``run()`` mode.

        ``done`` is an empty tuple (never stops) or a list that an
        awaited event's callback fills.  The loop body is deliberately
        inlined — this is the hottest code in the repository, and a
        per-event method call is measurable at replay scale.  Callbacks
        may mutate the calendar freely: compaction rewrites ``_times``
        and the slabs **in place**, so the local aliases stay valid.
        """
        urgent = self._due_urgent
        due = self._due
        times = self._times
        buckets = self._buckets
        heappop = _heappop
        processed = PROCESSED
        list_ = list
        # The processed-event tally is kept in a local and flushed at
        # every clock advance (and on exit): `event_count` is exact at
        # instant boundaries without paying an attribute store per event.
        count = 0
        try:
            while not done:
                if urgent:
                    ev = urgent.popleft()
                elif due:
                    ev = due.popleft()
                elif times:
                    if deadline is not None and times[0] > deadline:
                        break
                    self._event_count += count
                    count = 0
                    t = heappop(times)
                    slab = buckets.pop(t, None)
                    if self._urgent_buckets:
                        ub = self._urgent_buckets.pop(t, None)
                        if ub:
                            self.now = t
                            urgent.extend(ub)
                    if slab is not None:
                        self.now = t
                        if slab.__class__ is deque:
                            due.extend(slab)
                        else:
                            due.append(slab)
                    continue
                else:
                    break
                # Defunct entries hide behind the no-callbacks branch:
                # cancel() always clears callbacks, so live events with
                # callbacks never pay the extra check.
                cbs = ev.callbacks
                ev._state = processed
                if cbs is None:
                    if ev._defunct:
                        self._defunct_skips += 1
                        self._defunct_pending -= 1
                        continue
                    count += 1
                    if ev._ok is False and not isinstance(ev, Process):
                        # An un-awaited failure would otherwise vanish.
                        raise ev._value
                    continue
                ev.callbacks = None
                count += 1
                if cbs.__class__ is list_:
                    for fn in cbs:
                        if fn is not None:
                            fn(ev)
                else:
                    cbs(ev)
        finally:
            self._event_count += count

    # -- lazy-deletion bookkeeping ------------------------------------
    def _check_compact(self) -> None:
        """Called by ``TimeoutHandle.cancel`` once the defunct count
        reaches ``_compact_at``."""
        if 2 * self._defunct_pending > self._pending_total():
            self._compact()
        else:
            # Mostly-live calendar: measuring it again before the
            # defunct share could possibly have doubled is wasted
            # work, so back off geometrically.
            self._compact_at = 2 * self._defunct_pending

    def _pending_total(self) -> int:
        """Calendar entries not yet popped, defunct included.

        O(calendar) — walked only for compaction checks (amortized by
        the geometric back-off in :meth:`_note_cancel`) and diagnostics,
        keeping the schedule/dispatch hot paths free of bookkeeping.
        """
        n = len(self._due) + len(self._due_urgent)
        for slab in self._buckets.values():
            n += len(slab) if slab.__class__ is deque else 1
        for ub in self._urgent_buckets.values():
            n += len(ub)
        return n

    def _compact(self) -> None:
        """Sweep every defunct entry out of the calendar.

        All containers are rewritten **in place** so the aliases held by
        an in-flight ``_run_core`` loop stay valid (a cancel — and hence
        a compaction — can happen inside an event callback).
        """
        buckets = self._buckets
        for t in list(buckets):
            slab = buckets[t]
            if slab.__class__ is deque:
                live = [e for e in slab if not e._defunct]
                if not live:
                    del buckets[t]
                elif len(live) == 1:
                    buckets[t] = live[0]
                elif len(live) != len(slab):
                    slab.clear()
                    slab.extend(live)
            elif slab._defunct:
                del buckets[t]
        urgent_buckets = self._urgent_buckets
        for t in list(urgent_buckets):
            ub = urgent_buckets[t]
            live = [e for e in ub if not e._defunct]
            if not live:
                del urgent_buckets[t]
            elif len(live) != len(ub):
                ub.clear()
                ub.extend(live)
        keys = set(buckets)
        keys.update(urgent_buckets)
        self._times[:] = keys
        heapq.heapify(self._times)
        for q in (self._due, self._due_urgent):
            live = [e for e in q if not e._defunct]
            if len(live) != len(q):
                q.clear()
                q.extend(live)
        self._defunct_pending = 0
        self._compact_at = COMPACT_MIN_DEFUNCT
        self._compactions += 1

    # -- internal fast paths -------------------------------------------
    def _post_now(self, event: Event, value: Any) -> None:
        """Trigger a fresh event successfully at the current instant.

        The resource layers (``Store``/``Resource``/``Container``) post
        one of these per put/get/acquire/release; this skips the
        ``succeed()``/``_trigger`` state machinery, which is safe only
        because the caller just created the event.
        """
        event._ok = True
        event._value = value
        event._state = TRIGGERED
        self._due.append(event)

    # -- introspection -------------------------------------------------
    @property
    def event_count(self) -> int:
        """Total number of processed events (for perf accounting)."""
        return self._event_count

    @property
    def pending_count(self) -> int:
        """Live (non-cancelled) calendar entries not yet processed."""
        return self._pending_total() - self._defunct_pending

    def stats(self) -> Dict[str, Any]:
        """Kernel counters for perf reporting.

        ``events`` — processed events; ``pending`` — live calendar
        entries (honest: cancelled-but-unswept entries are *excluded*);
        ``defunct_pending`` — cancelled entries still parked on the
        calendar; ``defunct_skips`` — cancelled entries skipped at pop
        time; ``compactions`` — lazy-deletion sweeps performed.
        """
        return {
            "kernel": "fast",
            "events": self._event_count,
            "pending": self.pending_count,
            "defunct_pending": self._defunct_pending,
            "defunct_skips": self._defunct_skips,
            "compactions": self._compactions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now} pending={self.pending_count}>"


class ReferenceSimulator(Simulator):
    """The seed kernel: one binary heap of ``(time, priority, seq, Event)``.

    Retained verbatim as the parity oracle for the fast calendar —
    randomized workloads must produce the identical event order, times
    and ``event_count`` on both kernels.  It never compacts, so every
    cancelled entry still advances the clock when its instant is
    reached.  Select it as the default kernel with
    ``REPRO_KERNEL=reference``.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._active_process = None
        self._event_count = 0
        self._defunct_pending = 0
        self._defunct_skips = 0
        self._compactions = 0  # the oracle never compacts ...
        self._compact_at = float("inf")  # ... so the check never fires
        self.tracer = None

    # -- scheduling ---------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        heapq.heappush(self._heap,
                       (self.now + delay, priority, next(self._seq), event))

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Event:
        """An event that fires ``delay`` seconds from now."""
        if delay < 0:
            raise SimError(f"negative timeout {delay!r}")
        ev = Event(self, name)
        ev.succeed(value, delay=delay)
        return ev

    def cancellable_timeout(self, delay: Optional[float] = None, *,
                            at: Optional[float] = None, value: Any = None,
                            name: str = "") -> TimeoutHandle:
        """A timeout that can be revoked; returns a :class:`TimeoutHandle`."""
        if (delay is None) == (at is None):
            raise SimError("cancellable_timeout needs exactly one of "
                           "delay= or at=")
        when = self.now + delay if at is None else float(at)
        if when < self.now:
            raise SimError(f"cancellable timeout at {when} lies in the past "
                           f"(now={self.now})")
        ev = Event(self, name or f"cancellable({when})")
        ev._ok = True
        ev._value = value
        ev._state = TRIGGERED
        heapq.heappush(self._heap, (when, NORMAL, next(self._seq), ev))
        return TimeoutHandle(ev)

    # -- execution ----------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled entry, ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one calendar entry."""
        if not self._heap:
            raise SimulationEnded("event calendar is empty")
        when, _prio, _seq, event = heapq.heappop(self._heap)
        if when < self.now:  # pragma: no cover - defensive
            raise SimError("event scheduled in the past")
        self.now = when
        self._dispatch_one(event)

    def run(self, until: Any = None) -> Any:
        """Run the simulation (see :meth:`Simulator.run`)."""
        if until is None:
            while self._heap:
                self.step()
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = float(until)
        if deadline < self.now:
            raise SimError(f"until={deadline} lies in the past (now={self.now})")
        while self._heap and self._heap[0][0] <= deadline:
            self.step()
        self.now = deadline
        return None

    def _run_until_event(self, ev: Event) -> Any:
        done: List[Event] = []
        ev.add_callback(done.append)
        while not done:
            if not self._heap:
                raise SimulationEnded(
                    f"calendar drained before {ev!r} fired"
                )
            self.step()
        if ev._ok:
            return ev._value
        raise ev._value

    # -- lazy-deletion bookkeeping ------------------------------------
    def _pending_total(self) -> int:
        return len(self._heap)

    # -- internal fast paths -------------------------------------------
    def _post_now(self, event: Event, value: Any) -> None:
        """See :meth:`Simulator._post_now` (heap-entry flavour)."""
        event._ok = True
        event._value = value
        event._state = TRIGGERED
        heapq.heappush(self._heap, (self.now, NORMAL, next(self._seq), event))

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["kernel"] = "reference"
        out["compactions"] = 0
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReferenceSimulator now={self.now} pending={self.pending_count}>"


#: Explicit aliases: the default ``Simulator`` is the fast kernel unless
#: ``REPRO_KERNEL=reference`` is in the environment at import time.
FastSimulator = Simulator


def kernel_from_env(value: Optional[str]) -> type:
    """Map a ``REPRO_KERNEL`` setting to a kernel class."""
    return (ReferenceSimulator
            if (value or "").strip().lower() == "reference"
            else FastSimulator)


if kernel_from_env(os.environ.get("REPRO_KERNEL")) is ReferenceSimulator:
    Simulator = ReferenceSimulator  # type: ignore[misc]  # noqa: F811


def iter_processes(sim: Simulator, gens: Iterable[Generator]) -> list[Process]:
    """Convenience: start one process per generator, return them all."""
    return [sim.process(g) for g in gens]
