"""SimPy-style shared resources: ``Resource`` and ``Store``.

These model the *discrete* contention points of the system:

* :class:`Resource` — N interchangeable slots (e.g. the urd worker pool,
  CPU cores on a compute node).
* :class:`Store` — a FIFO (optionally bounded, optionally prioritised)
  queue of Python objects (e.g. the urd task queue, socket mailboxes).

*Continuous* contention (bandwidth) is handled by :mod:`repro.sim.flows`.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Optional

from repro.errors import SimError
from repro.sim.core import PENDING, Event, Simulator, _new_event

__all__ = ["Resource", "Store"]


class Resource:
    """A pool of ``capacity`` identical slots with FIFO waiters.

    ``request()`` returns an event that fires when a slot is granted;
    ``release()`` frees it.  The ``using()`` helper pairs them for use
    in a ``try/finally``.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._request_name = self.name + ":request"
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        self._cancelled = 0  # triggered entries still parked in _waiters

    def request(self) -> Event:
        ev = Event(self.sim, self._request_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            self.sim._post_now(ev, self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimError(f"release of idle resource {self.name!r}")
        # Hand the slot straight to the next waiter, if any.
        while self._waiters:
            ev = self._waiters.popleft()
            if ev.triggered:  # cancelled waiter
                self._cancelled -= 1
                continue
            self.sim._post_now(ev, self)
            return
        self._in_use -= 1

    def cancel(self, request_event: Event) -> None:
        """Withdraw a pending request (e.g. after an any_of timeout).

        Lazy, mirroring the kernel's cancellable timeouts: the entry
        stays parked in the wait queue (``release()`` skips triggered
        waiters in O(1)) instead of paying a ``deque.remove`` scan per
        cancel, and the queue is swept once cancelled entries outnumber
        live ones.
        """
        if not request_event.triggered:
            request_event.fail(SimError("request cancelled"))
            self._cancelled = c = self._cancelled + 1
            if c > 16 and 2 * c > len(self._waiters):
                live = [ev for ev in self._waiters if not ev.triggered]
                self._waiters.clear()
                self._waiters.extend(live)
                self._cancelled = 0


class Store:
    """A queue of objects with blocking ``put``/``get``.

    ``capacity=None`` means unbounded.  With ``priority=True``, items
    are ``(priority, item)`` pairs popped lowest-priority-first with FIFO
    tie-breaking — this is what the urd task queue uses so arbitration
    policies (Section IV-B: "task order in the queue is controlled by a
    task scheduler component") reduce to priority functions.

    An unbounded FIFO store (the defaults: every socket inbox, Mercury
    request queue and listener backlog) never blocks a putter, and it
    never holds an item while a live getter waits.  Its ``put`` hands
    the item to the oldest live getter, or queues it, and its ``get``
    takes the head item or parks, all inline.  The general
    ``_do_put``/``_wake_getter``/``_admit_putter`` machinery is only for
    bounded or priority stores.  Both paths post the same events in the
    same order: the put event first, then the getter it wakes.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 priority: bool = False, name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise SimError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "store"
        # Static labels: puts/gets are per-message-hop hot, and f-string
        # formatting per event shows up at replay scale.
        self._put_name = self.name + ":put"
        self._get_name = self.name + ":get"
        self._priority = priority
        #: unbounded FIFO: put/get take the inline path (class docstring).
        self._simple = capacity is None and not priority
        self._items: list[Any] = []  # heap when priority, else list-as-FIFO
        self._fifo: deque[Any] = deque()
        self._seq = itertools.count()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items) if self._priority else len(self._fifo)

    @property
    def items(self) -> list[Any]:
        """Snapshot of queued items (in pop order for FIFO stores)."""
        if self._priority:
            return [item for (_p, _s, item) in sorted(self._items)]
        return list(self._fifo)

    def _do_put(self, item: Any) -> None:
        if self._priority:
            prio, payload = item
            heapq.heappush(self._items, (prio, next(self._seq), payload))
        else:
            self._fifo.append(item)

    def _do_get(self) -> Any:
        if self._priority:
            _prio, _seq, payload = heapq.heappop(self._items)
            return payload
        return self._fifo.popleft()

    def put(self, item: Any) -> Event:
        """Insert ``item``; blocks (pending event) when full."""
        # Inlined Event construction: puts/gets run once per message
        # hop (urd task queues, socket mailboxes) — hot at replay scale.
        ev = _new_event(Event)
        ev.sim = self.sim
        ev.name = self._put_name
        ev.callbacks = None
        ev._value = None
        ev._ok = None
        ev._state = PENDING
        ev._defunct = False
        if self._simple:
            sim = self.sim
            getters = self._getters
            while getters:
                getter = getters.popleft()
                if getter._state == PENDING:
                    sim._post_now(ev, None)
                    sim._post_now(getter, item)
                    return ev
            self._fifo.append(item)
            sim._post_now(ev, None)
            return ev
        if self.capacity is not None and len(self) >= self.capacity:
            self._putters.append((ev, item))
            return ev
        self._do_put(item)
        self.sim._post_now(ev, None)
        self._wake_getter()
        return ev

    def get(self) -> Event:
        """Remove and return the next item; blocks when empty."""
        ev = _new_event(Event)
        ev.sim = self.sim
        ev.name = self._get_name
        ev.callbacks = None
        ev._value = None
        ev._ok = None
        ev._state = PENDING
        ev._defunct = False
        if self._simple:
            fifo = self._fifo
            if fifo:
                self.sim._post_now(ev, fifo.popleft())
            else:
                self._getters.append(ev)
            return ev
        if len(self):
            self.sim._post_now(ev, self._do_get())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking pop: ``(True, item)`` or ``(False, None)``."""
        if len(self):
            item = self._do_get()
            self._admit_putter()
            return True, item
        return False, None

    def drain(self) -> list[Any]:
        """Remove and return every queued item (in pop order).

        Blocked getters stay parked; blocked putters are admitted up to
        capacity afterwards.  Used by failure injection to model a
        daemon losing its queued work on restart.
        """
        out = []
        while len(self):
            out.append(self._do_get())
        self._admit_putter()
        return out

    def _wake_getter(self) -> None:
        while self._getters and len(self):
            ev = self._getters.popleft()
            if ev.triggered:
                continue
            self.sim._post_now(ev, self._do_get())
            self._admit_putter()

    def _admit_putter(self) -> None:
        while self._putters and (
            self.capacity is None or len(self) < self.capacity
        ):
            ev, item = self._putters.popleft()
            if ev.triggered:
                continue
            self._do_put(item)
            self.sim._post_now(ev, None)
            self._wake_getter()
