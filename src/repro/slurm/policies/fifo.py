"""Strict FIFO-by-priority: the no-backfill ablation baseline."""

from __future__ import annotations

from typing import List

from repro.slurm.policies.base import (
    ScheduleDecision, SchedulingPolicy, register_policy,
)

__all__ = ["FifoPolicy"]


@register_policy
class FifoPolicy(SchedulingPolicy):
    """Start jobs strictly in priority order; the first job that does
    not fit stops the pass — nothing may overtake it.  This is the
    paper's ``backfill=False`` ablation baseline."""

    name = "fifo"
    summary = "strict priority order; first blocked job stops the pass"

    def schedule(self, state, now: float) -> List[ScheduleDecision]:
        free = state.free.copy()
        decisions: List[ScheduleDecision] = []
        for job in state.iter_eligible(now):     # lazy: stops at the break
            if not self.fits(job, free):
                break
            nodes = self.pick(job, free.sorted(), state.selector)
            free.discard_many(nodes)
            decisions.append(ScheduleDecision(job, tuple(nodes)))
        return decisions
