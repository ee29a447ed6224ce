"""Incremental scheduler state shared by every policy.

Pre-engine, each schedule pass rebuilt its world from scratch: scan
*every* job ever submitted to find the pending and running sets, resort
the whole pending list by priority, and copy the free-node set into a
list whose per-node ``remove`` made allocation O(n²).  At trace-replay
scale (5k–50k jobs, one pass per submission/completion) those scans
dominate the simulation.

:class:`SchedulerState` keeps the same information *incrementally*:

* a **priority-indexed pending queue** — kept sorted at enqueue time
  (one bisect insertion per submission).  Priorities age uniformly
  (``base + age_weight * (now - ref)``), so the relative order of two
  jobs never changes as time advances and a static sort key
  (``base - age_weight * ref``) indexes the queue once, for good.
* a **shape index** beside it — the sorted ``(nodes, time_limit,
  job_id)`` of every non-pinned pending job, so "the shortest pending
  job of each width" is a bisect, and a pass that has run out of
  reservation depth can prove that nothing left in the queue fits and
  stop (:meth:`shortest_by_width`).
* an **O(1) free-node set** (:class:`~repro.util.ordered_set
  .OrderedNodeSet`) with deterministic ordered views for placement.
* a **running map** maintained at allocate/release instead of scanning
  all jobs for active states.
* a **dirty flag** so a kicked pass that follows no actual state change
  returns immediately, and per-job memoization (data-aware hints,
  staging E.T.A.s) so a pass only re-examines what changed.

Policies receive the state read-mostly: they may consume the ordered
views (:meth:`iter_eligible` or its list :meth:`eligible`,
:meth:`running_jobs`, :attr:`free`) but only slurmctld mutates it (via
:meth:`enqueue` / :meth:`allocate` / :meth:`release` / :meth:`dequeue`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional

from repro.slurm.job import Job, JobState
from repro.util.ordered_set import OrderedNodeSet

__all__ = ["SchedulerState"]


class SchedulerState:
    """The controller's scheduling view, maintained event by event."""

    def __init__(self, priorities, workflows=None, selector=None,
                 free_nodes=(),
                 stage_in_estimator: Optional[Callable[[Job], float]] = None
                 ) -> None:
        #: :class:`~repro.slurm.scheduler.PriorityCalculator` (shared
        #: aging model; policies may still call it for absolute values).
        self.priorities = priorities
        self.workflows = workflows
        self.selector = selector
        self.free = OrderedNodeSet(free_nodes)
        #: sorted (static key, job) pairs — the priority-indexed queue.
        self._pending: List[tuple] = []
        #: sorted (nodes, time_limit, job_id) of the non-pinned pending
        #: jobs: the shortest job of a width is the first of its run.
        self._shapes: List[tuple] = []
        #: job_id -> (queue key, shape or None when pinned) as used at
        #: enqueue time (stable for removal even if the workflow graph
        #: changes afterwards).
        self._keys: Dict[int, tuple] = {}
        self._running: Dict[int, Job] = {}
        #: workflow jobs whose data-aware hints are already computed.
        self._hinted: set[int] = set()
        #: memoized stage-in E.T.A.s (bytes are fixed once runnable).
        self._etas: Dict[int, float] = {}
        self._stage_in_estimator = stage_in_estimator
        #: nodes withdrawn from scheduling (drained or down); a node in
        #: here is never in :attr:`free` and is withheld at release.
        self._unavailable: set[str] = set()
        self._dirty = True

    # ------------------------------------------------------------------
    # Priority indexing
    # ------------------------------------------------------------------
    def sort_key(self, job: Job) -> tuple:
        """Static, time-invariant ordering key (best job first).

        ``priority(now) = base + age_weight * (now - ref)`` grows at the
        same rate for every job, so ordering by priority at any instant
        equals ordering by ``base - age_weight * ref`` — which needs no
        re-sorting as the clock advances.
        """
        ref = job.submit_time
        if self.workflows is not None and job.workflow_id is not None:
            wf = self.workflows.workflow(job.workflow_id)
            ref = min(ref, wf.created_at)
        static = job.spec.base_priority - self.priorities.age_weight * ref
        return (-static, job.job_id)

    # ------------------------------------------------------------------
    # Mutation (slurmctld only)
    # ------------------------------------------------------------------
    def enqueue(self, job: Job) -> None:
        """Add a newly submitted job to the pending queue."""
        key = self.sort_key(job)
        spec = job.spec
        shape = None
        if not spec.nodelist:
            shape = (spec.nodes, spec.time_limit, job.job_id)
            insort(self._shapes, shape)
        self._keys[job.job_id] = (key, shape)
        insort(self._pending, (key, job))
        self._dirty = True

    def dequeue(self, job: Job) -> None:
        """Drop a job from the pending queue (cancel / allocation)."""
        if job.job_id in self._keys:
            self._remove(job)
            self._dirty = True

    def _remove(self, job: Job) -> int:
        """Drop a queued job's entry, key and shape together; returns
        the queue position it held."""
        key, shape = self._keys.pop(job.job_id)
        i = bisect_left(self._pending, (key,))      # keys are unique
        del self._pending[i]
        if shape is not None:
            del self._shapes[bisect_left(self._shapes, shape)]
        return i

    def allocate(self, job: Job, nodes: tuple[str, ...]) -> None:
        """Apply one schedule decision: queue -> running, nodes taken."""
        self.dequeue(job)
        self.free.discard_many(nodes)
        self._running[job.job_id] = job
        self._dirty = True

    def release(self, job: Job) -> None:
        """Return a finished job's nodes and forget its bookkeeping.

        Nodes meanwhile marked unavailable (drained/down) are withheld;
        :meth:`set_available` hands them back when they recover.
        """
        self._running.pop(job.job_id, None)
        if self._unavailable:
            self.free.update(n for n in job.allocated_nodes
                             if n not in self._unavailable)
        else:
            self.free.update(job.allocated_nodes)
        self._hinted.discard(job.job_id)
        self._etas.pop(job.job_id, None)
        self._dirty = True

    # ------------------------------------------------------------------
    # Node availability (drain / failure, slurmctld only)
    # ------------------------------------------------------------------
    def set_unavailable(self, node: str) -> None:
        """Withdraw a node from scheduling (drain or failure)."""
        self._unavailable.add(node)
        self.free.discard(node)
        self._dirty = True

    def set_available(self, node: str, free: bool = True) -> None:
        """Return a recovered node; ``free=False`` when a job still
        occupies it (its release will free it normally)."""
        self._unavailable.discard(node)
        if free:
            self.free.add(node)
        self._dirty = True

    @property
    def unavailable(self) -> frozenset[str]:
        """Nodes currently withdrawn from scheduling (ordered views of
        the free set already exclude them; policies use this to keep
        reservations off drained/down nodes too)."""
        return frozenset(self._unavailable)

    def mark_dirty(self) -> None:
        self._dirty = True

    def consume_dirty(self) -> bool:
        """True when something changed since the last pass (and reset)."""
        was = self._dirty
        self._dirty = False
        return was

    # ------------------------------------------------------------------
    # Policy-facing views
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def iter_eligible(self, now: float) -> Iterator[Job]:
        """Dependency-satisfied pending jobs, best-priority first, lazily.

        A policy that stops early (``break``) does not pay for the rest
        of the queue.  Entries whose job left the PENDING state behind
        our back (e.g. workflow cancel-on-failure) are pruned as the
        walk meets them — queue entry, key and shape together — so the
        queue self-heals without every cancellation path having to know
        about the scheduler.  The state must not be mutated while a walk
        is being consumed.
        """
        pending = self._pending
        # Only workflow jobs have dependencies or data hints to look at.
        workflows = self.workflows
        start = 0
        while True:
            for _key, job in islice(pending, start, None):
                if job.state is not JobState.PENDING:
                    break
                if workflows is not None and job.workflow_id is not None:
                    if not self._runnable(job):
                        continue
                    self._refresh_hints(job)
                yield job
            else:
                return
            start = self._remove(job)   # stale: prune, resume there

    def eligible(self, now: float) -> List[Job]:
        """:meth:`iter_eligible` as a list, for passes that read it all."""
        return list(self.iter_eligible(now))

    @property
    def pinned_pending(self) -> int:
        """Pending jobs with a ``nodelist`` (outside the shape index)."""
        return len(self._keys) - len(self._shapes)

    def shortest_by_width(self, widest: int) -> Iterator[tuple]:
        """``(nodes, time_limit)`` of the shortest non-pinned pending job
        of each width up to ``widest``, narrowest first.

        The witness may be stale or not yet runnable: good enough to
        prove that *no* pending job of a width passes a test that is
        monotone in the time limit, not that one does.
        """
        shapes = self._shapes
        i = 0
        while i < len(shapes) and shapes[i][0] <= widest:
            nodes, limit, _job_id = shapes[i]
            yield nodes, limit
            i = bisect_left(shapes, (nodes + 1,), i)

    def running_jobs(self) -> List[Job]:
        """Active jobs (submission order) for shadow-time computation."""
        return [self._running[k] for k in sorted(self._running)
                if self._running[k].state.is_active]

    def stage_in_eta(self, job: Job) -> float:
        """Estimated stage-in seconds for a job (0 when unknowable).

        Memoized per job: a job only becomes eligible once its
        producers completed, so the staged byte volume is stable.
        """
        if self._stage_in_estimator is None or not job.spec.stage_in:
            return 0.0
        eta = self._etas.get(job.job_id)
        if eta is None:
            eta = self._stage_in_estimator(job)
            self._etas[job.job_id] = eta
        return eta

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    # Both helpers are for workflow jobs only; iter_eligible() filters.
    def _runnable(self, job: Job) -> bool:
        return self.workflows.workflow(job.workflow_id) \
            .is_runnable(job.job_id)

    def _refresh_hints(self, job: Job) -> None:
        """Data-aware hints: a workflow job prefers its producers' nodes.

        Computed once per job, the first time it is runnable — its
        producers have completed by then, so their allocations are
        final.
        """
        if job.job_id in self._hinted:
            return
        wf = self.workflows.workflow(job.workflow_id)
        hints: list[str] = []
        for producer in wf.producers_of(job.job_id):
            hints.extend(producer.allocated_nodes)
        job.data_hints = tuple(dict.fromkeys(hints))
        self._hinted.add(job.job_id)
