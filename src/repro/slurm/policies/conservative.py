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
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List

from repro.slurm.policies.base import (
    ScheduleDecision, SchedulingPolicy, register_policy,
)

__all__ = ["ConservativeBackfillPolicy"]


@register_policy
class ConservativeBackfillPolicy(SchedulingPolicy):
    """Per-job reservations; backfill may not delay any of them."""

    name = "conservative"
    summary = "per-job reservations; backfill may not delay any of them"

    def __init__(self, max_reservations: int = 8) -> None:
        #: Reservation-depth cap, as in production conservative
        #: implementations: beyond it, further blocked jobs simply wait
        #: (and, once the cap is hit with no free node left, the pass
        #: stops — see :meth:`schedule`).
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
        #: (start + holder's time limit, nodes) per blocked job, in
        #: priority order: the synthetic release events later
        #: reservations stack behind.
        releases: List[tuple] = []
        events = None   # completion timeline, lazily built once

        for job in state.eligible(now):
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
                    job, tuple(nodes), backfilled=bool(releases)))
                ordered = free.sorted()
            elif len(releases) < self.max_reservations:
                # Blocked (or placement would break a promise): reserve.
                if events is None:
                    # Drained/down nodes never come back on their own,
                    # so they must not underwrite a start-time promise.
                    events = self.completion_events(
                        now, state.running_jobs(), exclude=state.unavailable)
                # Nodes promised to earlier reservations are consumed
                # the moment their running job releases them, so (a)
                # drop them from this shadow's starting set (``safe``)
                # and completion events, and (b) hand them back via a
                # synthetic release event when the promised job's time
                # limit expires.  (Overlapping promises can still
                # release optimistically early; an early reservation
                # start only makes backfill *stricter*, so no promised
                # job is ever delayed by the approximation.)
                timeline = []
                for t, held in events:
                    keep = [n for n in held if n not in deadline]
                    if keep:
                        timeline.append((t, keep))
                timeline += releases
                timeline.sort(key=lambda e: e[0])
                start, reserved = self.shadow(job, now, safe, timeline)
                reserved = tuple(sorted(reserved))
                releases.append((start + spec.time_limit, reserved))
                for n in reserved:
                    deadline[n] = min(start, deadline.get(n, start))
            elif ordered:
                continue
            else:
                # Blocked, the reservation depth used up and no free
                # node left: every later job is in the same position (a
                # job needs >= 1 node, pinned or not), so the rest of
                # the queue cannot change the outcome.
                break
            safe = [n for n in ordered if n not in deadline]
            borrow = sorted(deadline[n] for n in ordered if n in deadline)
        return decisions
