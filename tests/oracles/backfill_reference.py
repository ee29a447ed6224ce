"""The pre-engine EASY/FIFO scheduler, retired from ``repro.slurm``.

Test fixture only (ROADMAP item 3a: oracles live under ``tests/``).
:class:`BackfillScheduler` is the self-contained, sequence-in/
decisions-out pass slurmctld drove before the pluggable engine in
:mod:`repro.slurm.policies` replaced it; the class body is that code
verbatim.  It re-sorts the whole pending list by live priority and
re-sorts the free set for every candidate, which is what makes it a
useful oracle: ``tests/test_easy_parity.py`` holds the ``backfill`` and
``fifo`` policies (static queue index, lazy walk, sorted views carried
through the pass) to the decisions this one makes.  It knows nothing of
drained nodes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.slurm.job import Job
from repro.slurm.policies.base import ScheduleDecision, SchedulingPolicy
from repro.slurm.scheduler import PriorityCalculator
from repro.slurm.workflow import WorkflowManager
from repro.util.ordered_set import OrderedNodeSet

__all__ = ["BackfillScheduler"]


class BackfillScheduler:
    """Pure decision logic — no clocks, no I/O; the caller drives it."""

    def __init__(self, priorities: Optional[PriorityCalculator] = None,
                 backfill: bool = True) -> None:
        self.priorities = priorities or PriorityCalculator()
        #: With backfill off the scheduler is strict FIFO-by-priority:
        #: the first blocked job stops the pass (the ablation baseline).
        self.backfill = backfill

    def schedule(self, now: float, pending: Sequence[Job],
                 free_nodes: Sequence[str],
                 running: Sequence[Job],
                 workflows: Optional[WorkflowManager] = None,
                 selector=None) -> List[ScheduleDecision]:
        """Pick the set of jobs to start right now.

        ``pending`` must already be filtered to dependency-satisfied
        jobs.  ``selector`` orders candidate nodes for each job
        (data-aware placement); default is name order.
        """
        free = OrderedNodeSet(free_nodes)
        decisions: List[ScheduleDecision] = []
        order = sorted(
            pending,
            key=lambda j: (-self.priorities.priority(j, now, workflows),
                           j.job_id))
        reserved_until: Optional[float] = None
        reserved_nodes: set[str] = set()
        # Running-job completion times, presorted lazily on the first
        # blocked job and reused for the rest of the pass.  EASY takes
        # a single reservation so today this is computed at most once;
        # keeping the sort out of the shadow step means policies that
        # reserve for several blocked jobs stay O(running log running)
        # per pass instead of per blocked job.
        completions: Optional[list] = None

        for job in order:
            if reserved_until is None:
                if self._fits(job, free):
                    nodes = self._pick(job, free.sorted(), selector)
                    free.discard_many(nodes)
                    decisions.append(ScheduleDecision(job, tuple(nodes)))
                else:
                    if not self.backfill:
                        break  # strict FIFO: nothing may overtake
                    # Head job blocked: compute its reservation.
                    if completions is None:
                        completions = self._completion_events(now, running)
                    reserved_until, reserved_nodes = self._shadow(
                        job, now, free.sorted(), completions)
            else:
                # Backfill: must not delay the reservation.
                if not self._fits(job, free):
                    continue
                candidate = [n for n in free.sorted()
                             if n not in reserved_nodes]
                fits_outside = self._fits(job, candidate)
                finishes_in_time = (now + job.spec.time_limit
                                    <= reserved_until)
                if fits_outside:
                    nodes = self._pick(job, candidate, selector)
                elif finishes_in_time:
                    nodes = self._pick(job, free.sorted(), selector)
                else:
                    continue
                free.discard_many(nodes)
                decisions.append(ScheduleDecision(job, tuple(nodes),
                                                  backfilled=True))
        return decisions

    # The geometry helpers live on SchedulingPolicy so the legacy
    # facade and every registered policy share one implementation.
    _fits = staticmethod(SchedulingPolicy.fits)

    @staticmethod
    def _pick(job: Job, available: Sequence[str], selector) -> list[str]:
        return SchedulingPolicy.pick(job, available, selector)

    _completion_events = staticmethod(SchedulingPolicy.completion_events)
    _shadow = staticmethod(SchedulingPolicy.shadow)
