"""Conservative backfill: every blocked job gets a reservation.

Where EASY protects only the head of the queue, conservative backfill
hands *each* blocked job (up to a reservation-depth cap) a start-time
guarantee: a lower-priority job may start now only if it takes no
reserved node, or finishes before every reservation whose nodes it
would borrow.  Later reservations stack behind earlier ones — each
reserved job contributes a synthetic completion event (reservation
start + its time limit) to the availability timeline the next shadow
computation consumes.

The node timeline is the same single-resource model the rest of the
stack uses (whole nodes, expected completions from time limits and
staging E.T.A.s), not a full per-processor availability profile — the
point is the *policy contrast* with EASY: no job is ever delayed past
its first promised start, at the cost of fewer backfill opportunities.

A pass costs what it decides, not what is queued.  Once the reservation
depth is used up a blocked job changes nothing, so the rest of the queue
matters only if it holds a job that fits *now*.  The fit test for a
non-pinned job (``nodes <=`` the free nodes promised no earlier than
``now + time_limit``) is monotone in the time limit, so putting it to
the shortest pending job of each width (the state's shape index)
settles it for the whole queue; when none passes, the pass stops.  That
is exact, not a heuristic: free set and promises change only when the
pass itself places or reserves, and the question is put again after
every placement.  Pinned jobs are outside the index: while one is
pending the pass stops only when no node is free at all.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import itemgetter
from typing import List

from repro.slurm.policies.base import (
    ScheduleDecision, SchedulingPolicy, register_policy,
)

__all__ = ["ConservativeBackfillPolicy"]

_time = itemgetter(0)


@register_policy
class ConservativeBackfillPolicy(SchedulingPolicy):
    """Per-job reservations; backfill may not delay any of them."""

    name = "conservative"
    summary = "per-job reservations; backfill may not delay any of them"

    def __init__(self, max_reservations: int = 8) -> None:
        #: Reservation-depth cap, as in production conservative
        #: implementations: beyond it, further blocked jobs simply wait
        #: (and the pass stops as soon as nothing still queued can
        #: start — see :meth:`_nothing_fits`).
        self.max_reservations = max_reservations

    def schedule(self, state, now: float) -> List[ScheduleDecision]:
        free = state.free.copy()
        decisions: List[ScheduleDecision] = []
        # Promise state, carried through the pass and refreshed only
        # when a reservation is made or a placement takes nodes — a
        # candidate that does neither costs a length test and a bisect.
        ordered = free.sorted()     # working free nodes, name order
        deadline: dict = {}         # promised node -> earliest start
        safe = ordered              # free nodes nobody was promised
        borrow: List[float] = []    # sorted deadlines of the other free
        reservations = 0
        # Availability timeline, built at the first reservation and
        # carried from there: ``[end, nodes]`` per running job, soonest
        # first, then one ``(release, nodes)`` per reservation made.
        timeline = None
        holder: dict = {}       # unpromised busy node -> its timeline entry
        may_fit = False     # the exit was asked, and something may fit

        for job in state.iter_eligible(now):
            spec = job.spec
            # A job may start on unpromised nodes, or borrow promised
            # ones it vacates (``end``) before their earliest promise;
            # ``deadline.get(n, end) >= end`` is true of both kinds.
            end = now + spec.time_limit
            pool = None
            if spec.nodelist:
                if all(n in free and deadline.get(n, end) >= end
                       for n in spec.nodelist):
                    pool = ordered      # pick() takes the nodelist as is
            elif spec.nodes <= len(safe):
                pool = safe
            elif spec.nodes <= len(ordered) - bisect_left(borrow, end):
                pool = [n for n in ordered if deadline.get(n, end) >= end]
            if pool is not None:
                nodes = self.pick(job, pool, state.selector)
                free.discard_many(nodes)
                decisions.append(ScheduleDecision(
                    job, tuple(nodes), backfilled=bool(reservations)))
                ordered = free.sorted()
            elif reservations < self.max_reservations:
                # Blocked (or placement would break a promise): reserve.
                if timeline is None:
                    # Drained/down nodes never come back on their own,
                    # so they must not underwrite a start-time promise.
                    timeline = [[t, list(held)] for t, held in
                                self.completion_events(
                                    now, state.running_jobs(),
                                    exclude=state.unavailable)]
                    holder = {n: e for e in timeline for n in e[1]}
                start, reserved = self.shadow(job, now, safe, timeline)
                reserved = tuple(sorted(reserved))
                reservations += 1
                # Nodes promised to a reservation are consumed the
                # moment their running job releases them, so (a) they
                # leave later shadows' starting set (``safe``) and
                # completion events, and (b) come back via a synthetic
                # release event when the promised job's time limit
                # expires; equal times read completions first, then
                # releases in priority order.  (Overlapping promises
                # can still release optimistically early; an early
                # reservation start only makes backfill *stricter*, so
                # no promised job is ever delayed by the approximation.)
                insort(timeline, (start + spec.time_limit, reserved),
                       key=_time)
                for n in reserved:
                    # A node promised before is back through a release
                    # event, after its first promise: that one stands.
                    if n not in deadline:
                        deadline[n] = start
                        entry = holder.pop(n, None)
                        if entry is not None:
                            entry[1].remove(n)
                            if not entry[1]:
                                timeline.remove(entry)
            else:
                # Blocked with the reservation depth used up: the job
                # waits, and so does the rest of the queue unless it
                # holds something that fits.
                if not may_fit:
                    if self._nothing_fits(state, now, len(ordered), borrow):
                        break
                    may_fit = True
                continue
            safe = [n for n in ordered if n not in deadline]
            borrow = sorted(deadline[n] for n in ordered if n in deadline)
            may_fit = False     # the pass changed its state: ask again
        return decisions

    @staticmethod
    def _nothing_fits(state, now: float, n_free: int,
                      borrow: List[float]) -> bool:
        """True when no pending job can start on the ``n_free`` working
        free nodes, ``borrow`` being the sorted promises on them."""
        if not n_free:
            return True     # a job needs >= 1 node, pinned or not
        if state.pinned_pending:
            return False
        for nodes, limit in state.shortest_by_width(n_free):
            if nodes <= n_free - bisect_left(borrow, now + limit):
                return False
        return True
