"""Frozen copy of the conservative pass as of commit e3e1c0d.

Test fixture only (ROADMAP item 3a: oracles live under ``tests/``):
``schedule`` and ``_try_place`` below are the parent commit's code
verbatim — every candidate re-derives ``promised``/``safe``/``usable``
from the reservation list.  ``tests/test_conservative_parity.py`` holds
the incremental pass in ``repro.slurm.policies.conservative`` to the
decisions this one makes.  Not registered as a policy.
"""

from __future__ import annotations

from typing import List

from repro.slurm.policies.base import ScheduleDecision, SchedulingPolicy

__all__ = ["ReferenceConservativePolicy"]


class ReferenceConservativePolicy(SchedulingPolicy):
    """The pre-incremental conservative pass (decision oracle)."""

    name = "conservative-reference"
    summary = "oracle: the conservative pass before promise state was carried"

    def __init__(self, max_reservations: int = 8) -> None:
        #: Reservation-depth cap, as in production conservative
        #: implementations: beyond it, further blocked jobs simply wait
        #: (bounding pass cost at O(eligible × depth)).
        self.max_reservations = max_reservations

    def schedule(self, state, now: float) -> List[ScheduleDecision]:
        free = state.free.copy()
        decisions: List[ScheduleDecision] = []
        #: (start, nodes, holder_time_limit) per blocked job, priority
        #: order; the limit feeds the synthetic release event later
        #: reservations stack behind.
        reservations: List[tuple[float, frozenset, float]] = []
        events = None   # completion timeline, lazily built once

        for job in state.eligible(now):
            if self.fits(job, free):
                placed = self._try_place(job, now, free, reservations,
                                         state.selector, decisions,
                                         backfilled=bool(reservations))
                if placed:
                    continue
            # Blocked (or placement would break a promise): reserve.
            if len(reservations) >= self.max_reservations:
                continue
            if events is None:
                # Drained/down nodes never come back on their own, so
                # they must not underwrite a start-time promise.
                events = self.completion_events(now, state.running_jobs(),
                                                exclude=state.unavailable)
            # Nodes promised to earlier reservations are consumed the
            # moment their running job releases them, so (a) drop them
            # from this shadow's starting set and completion events,
            # and (b) hand them back via a synthetic release event when
            # the promised job's time limit expires.  (Overlapping
            # promises can still release optimistically early; an
            # early reservation start only makes backfill *stricter*,
            # so no promised job is ever delayed by the approximation.)
            promised = set()
            for _t, nodes, _limit in reservations:
                promised |= nodes
            base = [n for n in free.sorted() if n not in promised]
            timeline = []
            for end, nodes in events:
                keep = tuple(n for n in nodes if n not in promised)
                if keep:
                    timeline.append((end, keep))
            for start, nodes, limit in reservations:
                timeline.append((start + limit, tuple(sorted(nodes))))
            timeline.sort(key=lambda e: e[0])
            start, nodes = self.shadow(job, now, base, timeline)
            reservations.append((start, frozenset(nodes),
                                 job.spec.time_limit))
        return decisions

    def _try_place(self, job, now, free, reservations, selector,
                   decisions, backfilled: bool) -> bool:
        """Start ``job`` now if that delays no existing reservation."""
        ordered = free.sorted()
        promised = set()
        for _t, nodes, _limit in reservations:
            promised |= nodes
        safe = [n for n in ordered if n not in promised]
        if self.fits(job, safe):
            nodes = self.pick(job, safe, selector)
        else:
            # May borrow reserved nodes it vacates before their promise.
            end = now + job.spec.time_limit
            usable = [n for n in ordered
                      if all(end <= start
                             for start, rnodes, _limit in reservations
                             if n in rnodes)]
            if not self.fits(job, usable):
                return False
            nodes = self.pick(job, usable, selector)
        # (Pinned jobs need no extra promise re-check: fits() already
        # required the whole nodelist inside safe/usable, both of which
        # encode the no-delayed-reservation condition.)
        free.discard_many(nodes)
        decisions.append(ScheduleDecision(job, tuple(nodes),
                                          backfilled=backfilled))
        return True
