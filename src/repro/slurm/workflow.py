"""Workflow support: IDs, dependency tracking, unit status, cancellation.

Section III: "scheduling algorithms ... consider all jobs that are part
of a workflow as a unit.  Each intermediate job gets updated priorities
and resource allocations as the different phases progress ... a
dependant job cannot start before all its dependencies are satisfied.
Each workflow is assigned a unique Workflow ID enabling users to ...
obtain a list of all jobs and their status ... If a workflow job fails;
then all subsequent jobs are cancelled."
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Union

from repro.errors import InvalidDependency, UnknownWorkflow
from repro.slurm.job import Job, JobState

__all__ = ["WorkflowStatus", "Workflow", "WorkflowManager"]


class WorkflowStatus(enum.Enum):
    RUNNING = "running"          # at least one job pending/active
    COMPLETED = "completed"      # all jobs completed
    FAILED = "failed"            # some job failed/timed out
    CANCELLED = "cancelled"


class Workflow:
    """A DAG of jobs sharing one Workflow ID.

    Ids always come from the owning :class:`WorkflowManager`'s
    per-instance counter, so workflow ids are a pure function of the
    controller's submission history, never of process history.
    """

    def __init__(self, first_job: Job, workflow_id: int) -> None:
        self.workflow_id = workflow_id
        self.created_at = first_job.submit_time
        self._jobs: Dict[int, Job] = {}
        #: job_id -> set of prerequisite job_ids
        self._deps: Dict[int, set[int]] = {}
        self.add_job(first_job)

    @property
    def jobs(self) -> list[Job]:
        return [self._jobs[k] for k in sorted(self._jobs)]

    def job(self, job_id: int) -> Job:
        return self._jobs[job_id]

    def add_job(self, job: Job,
                prior: Optional[Union[int, Iterable[int]]] = None) -> None:
        """Attach a job; ``prior`` names its prerequisite job id(s).

        A single int keeps the historical linear-chain signature; an
        iterable of ids declares fan-in (the job waits for *all* of
        them).  Every prerequisite must already be part of this
        workflow, and the resulting graph must stay acyclic.
        """
        if prior is None:
            prior_ids: tuple[int, ...] = ()
        elif isinstance(prior, int):
            prior_ids = (prior,)
        else:
            prior_ids = tuple(prior)
        deps: set[int] = set()
        for dep in prior_ids:
            if dep == job.job_id:
                raise InvalidDependency(
                    f"job {job.job_id} cannot depend on itself")
            if dep not in self._jobs:
                raise InvalidDependency(
                    f"job {dep} is not part of workflow {self.workflow_id}")
            deps.add(dep)
        self._jobs[job.job_id] = job
        self._deps[job.job_id] = deps
        job.workflow_id = self.workflow_id
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # Explicit-stack DFS: a recursive inner function would refer to
        # itself through its own cell and leave one reference cycle per
        # call for the collector.
        deps = self._deps
        seen: set[int] = set()
        for root in self._jobs:
            if root in seen:
                continue
            path = {root}
            stack = [(root, iter(deps.get(root, ())))]
            while stack:
                jid, pending = stack[-1]
                for dep in pending:
                    if dep in path:
                        raise InvalidDependency(
                            f"workflow {self.workflow_id} has a "
                            "dependency cycle")
                    if dep not in seen:
                        path.add(dep)
                        stack.append((dep, iter(deps.get(dep, ()))))
                        break
                else:
                    stack.pop()
                    path.discard(jid)
                    seen.add(jid)

    def dependents_of(self, job_id: int) -> list[Job]:
        """Jobs that (transitively) depend on ``job_id``."""
        direct = {jid for jid, deps in self._deps.items() if job_id in deps}
        out: set[int] = set()
        frontier = list(direct)
        while frontier:
            jid = frontier.pop()
            if jid in out:
                continue
            out.add(jid)
            frontier.extend(j for j, deps in self._deps.items() if jid in deps)
        return [self._jobs[j] for j in sorted(out)]

    def is_runnable(self, job_id: int) -> bool:
        """All prerequisites completed?"""
        return all(self._jobs[d].state == JobState.COMPLETED
                   for d in self._deps.get(job_id, ()))

    def producers_of(self, job_id: int) -> list[Job]:
        """Direct prerequisite jobs (for data-aware placement hints)."""
        return [self._jobs[d] for d in sorted(self._deps.get(job_id, ()))]

    @property
    def status(self) -> WorkflowStatus:
        states = [j.state for j in self.jobs]
        if any(s in (JobState.FAILED, JobState.TIMEOUT) for s in states):
            return WorkflowStatus.FAILED
        if all(s == JobState.CANCELLED for s in states):
            return WorkflowStatus.CANCELLED
        if all(s == JobState.COMPLETED for s in states):
            return WorkflowStatus.COMPLETED
        return WorkflowStatus.RUNNING

    def job_status_list(self) -> list[tuple[int, str, str]]:
        """(job_id, name, state) rows — the user-facing status query."""
        return [(j.job_id, j.spec.name, j.state.value) for j in self.jobs]

    def cancel_dependents(self, failed_job_id: int) -> list[Job]:
        """Cancel every job downstream of a failure; returns them."""
        cancelled = []
        for job in self.dependents_of(failed_job_id):
            if not job.state.is_terminal:
                job.set_state(JobState.CANCELLED,
                              reason=f"workflow dependency {failed_job_id} failed")
                cancelled.append(job)
        return cancelled


class WorkflowManager:
    """slurmctld-side registry of workflows."""

    def __init__(self) -> None:
        self._workflows: Dict[int, Workflow] = {}
        #: job_id -> workflow, for dependency resolution at submit time.
        self._job_to_wf: Dict[int, Workflow] = {}
        #: per-manager workflow-id allocator (process-history-free).
        self._ids = itertools.count(1)

    def workflow(self, workflow_id: int) -> Workflow:
        wf = self._workflows.get(workflow_id)
        if wf is None:
            raise UnknownWorkflow(str(workflow_id))
        return wf

    def workflows(self) -> list[Workflow]:
        return [self._workflows[k] for k in sorted(self._workflows)]

    def place_job(self, job: Job) -> Optional[Workflow]:
        """Route a submitted job into the right workflow (or none).

        ``workflow-start`` opens a new workflow; declared dependencies
        (the legacy single ``workflow_prior_dependency`` and/or the
        fan-in ``workflow_dependencies`` tuple) attach the job to the
        dependencies' workflow; ``workflow_join`` attaches a
        dependency-free job (an extra DAG root) to the workflow of an
        already-placed sibling; plain jobs stay outside.
        """
        spec = job.spec
        deps = tuple(spec.workflow_dependencies)
        if spec.workflow_prior_dependency is not None \
                and spec.workflow_prior_dependency not in deps:
            deps += (spec.workflow_prior_dependency,)
        if spec.workflow_start:
            wf = Workflow(job, workflow_id=next(self._ids))
            self._workflows[wf.workflow_id] = wf
            self._job_to_wf[job.job_id] = wf
            return wf
        if deps:
            owners = []
            for dep in deps:
                wf = self._job_to_wf.get(dep)
                if wf is None:
                    raise InvalidDependency(
                        f"dependency job {dep} is not part of any workflow")
                if wf not in owners:
                    owners.append(wf)
            if len(owners) > 1:
                ids = ", ".join(str(w.workflow_id) for w in owners)
                raise InvalidDependency(
                    f"job {job.job_id}: fan-in dependencies span "
                    f"workflows {ids}")
            wf = owners[0]
            wf.add_job(job, prior=deps)
            self._job_to_wf[job.job_id] = wf
            return wf
        if spec.workflow_join is not None:
            wf = self._job_to_wf.get(spec.workflow_join)
            if wf is None:
                raise InvalidDependency(
                    f"join target job {spec.workflow_join} is not part "
                    "of any workflow")
            wf.add_job(job)
            self._job_to_wf[job.job_id] = wf
            return wf
        if spec.workflow_end:
            raise InvalidDependency(
                "workflow-end requires a workflow-prior-dependency")
        return None
