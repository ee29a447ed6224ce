"""The seed event kernel, retired from ``repro.sim.core``.

Test fixture only (oracles live under ``tests/``).
:class:`ReferenceSimulator` is the single binary heap of ``(time,
priority, seq, Event)`` tuples popped one at a time that the kernel was
before the flat calendar of :class:`~repro.sim.core.Simulator` replaced
it; the class body is that code verbatim, except that an interrupt's
URGENT entry arrives through ``_post_urgent`` rather than a priority
argument of ``_schedule``.  It shares ``Event``,
``Process`` and the dispatch code with the product kernel and differs
only in the calendar, so it is the oracle for the calendar:

* ``tests/test_kernel_parity.py`` and ``tests/test_sim_core.py`` drive
  both kernels through randomized and edge-case workloads (identical
  dispatch order, times and ``event_count``);
* ``tests/test_oracle_goldens.py`` replays both golden files on it;
* ``benchmarks/test_kernel_churn.py`` and
  ``benchmarks/test_obs_overhead.py`` compare it on the 1M-event churn
  and on the exported trace bytes.

It never compacts, so every cancelled entry still advances the clock
when its instant is reached; ``stats()["kernel"]`` is ``"reference"``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, List, Optional

from repro.errors import SimError, SimulationEnded
from repro.sim.core import TRIGGERED, Event, Simulator, TimeoutHandle

__all__ = ["ReferenceSimulator"]

#: Priority bands of the heap entries: an interrupt's kick sorts ahead
#: of every ordinary entry at its instant (SimPy's URGENT).
URGENT = 0
NORMAL = 1


class ReferenceSimulator(Simulator):
    """The seed kernel: one binary heap of ``(time, priority, seq, Event)``.

    Randomized workloads must produce the identical event order, times
    and ``event_count`` on this kernel and on :class:`Simulator`.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._event_count = 0
        self._defunct_pending = 0
        self._defunct_skips = 0
        self._compactions = 0  # the oracle never compacts ...
        self._compact_at = float("inf")  # ... so the check never fires
        self.tracer = None

    # -- scheduling ---------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        heapq.heappush(self._heap,
                       (self.now + delay, NORMAL, next(self._seq), event))

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

    def _post_urgent(self, event: Event, exc: BaseException) -> None:
        """See :meth:`Simulator._post_urgent` (heap-entry flavour)."""
        event._ok = False
        event._value = exc
        event._state = TRIGGERED
        heapq.heappush(self._heap, (self.now, URGENT, next(self._seq), event))

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["kernel"] = "reference"
        out["compactions"] = 0
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReferenceSimulator now={self.now} pending={self.pending_count}>"
