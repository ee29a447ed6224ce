"""EASY backfill — the engine's default policy.

The highest-priority blocked job gets a reservation (its *shadow time*
computed from running jobs' expected completions, which include staging
E.T.A.s); lower-priority jobs may start only if they fit on
non-reserved nodes or finish before the shadow time.  Decision-for-
decision identical to the pre-engine scheduler, which survives as the
test oracle ``tests/oracles/backfill_reference.py``
(``tests/test_easy_parity.py`` holds this pass to it).

The pass exposes three override hooks (queue order, reservation start,
backfill completion estimate) so variants like the staging-aware
policy reuse this loop instead of copying it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.slurm.job import Job
from repro.slurm.policies.base import (
    ScheduleDecision, SchedulingPolicy, register_policy,
)

__all__ = ["EasyBackfillPolicy"]


@register_policy
class EasyBackfillPolicy(SchedulingPolicy):
    """EASY: one reservation for the highest-priority blocked job."""

    name = "backfill"
    summary = "EASY backfill: one reservation for the blocked head job"

    # -- subclass hooks ----------------------------------------------------
    def order(self, state, now: float) -> List[Job]:
        """The queue order the pass walks (best job first)."""
        return state.eligible(now)

    def reservation_start(self, state, job: Job, now: float,
                          start: float) -> float:
        """Adjust the blocked head job's reservation start time."""
        return start

    def backfill_completion(self, state, job: Job, now: float) -> float:
        """When a backfill candidate would release its nodes."""
        return now + job.spec.time_limit

    # -- the pass ----------------------------------------------------------
    def schedule(self, state, now: float) -> List[ScheduleDecision]:
        free = state.free.copy()
        decisions: List[ScheduleDecision] = []
        reserved_until: Optional[float] = None
        reserved_nodes: set[str] = set()
        # Sorted views of the working free set, refreshed only when a
        # placement takes nodes: a candidate that does not start costs
        # no sort.
        ordered = free.sorted()
        outside = ordered       # the free nodes outside the reservation

        for job in self.order(state, now):
            if not self.fits(job, free):
                if reserved_until is None:
                    # Head job blocked: compute its reservation
                    # (drained/down nodes never become available).
                    completions = self.completion_events(
                        now, state.running_jobs(), exclude=state.unavailable)
                    reserved_until, reserved_nodes = self.shadow(
                        job, now, ordered, completions)
                    reserved_until = self.reservation_start(
                        state, job, now, reserved_until)
                    outside = [n for n in ordered if n not in reserved_nodes]
                continue
            pool = ordered
            if reserved_until is not None:
                # Backfill: must not delay the reservation.
                fits_outside = self.fits(job, outside)
                finishes_in_time = (
                    self.backfill_completion(state, job, now)
                    <= reserved_until)
                if fits_outside:
                    pool = outside
                elif not finishes_in_time:
                    continue
            nodes = self.pick(job, pool, state.selector)
            free.discard_many(nodes)
            decisions.append(ScheduleDecision(
                job, tuple(nodes), backfilled=reserved_until is not None))
            ordered = free.sorted()
            outside = [n for n in ordered if n not in reserved_nodes]
        return decisions
