"""Workload-trace record model shared by every trace format.

A :class:`TraceJob` carries the 18 fields of the Standard Workload
Format (SWF, the lingua franca of batch-scheduler evaluation) plus the
native extensions this reproduction adds on top: NORNS staging volumes
(stage-in/stage-out bytes and file counts), persist intent, and
workflow structure (an SWF "preceding job" dependency promoted to the
paper's workflow semantics).  A :class:`Trace` is an ordered collection
of such records with header comments.

Records stay format-neutral: :mod:`repro.traces.swf` and
:mod:`repro.traces.jsonl` serialise them, :mod:`repro.traces.synth`
generates them, and :mod:`repro.traces.replay` turns them into live
``slurmctld`` submissions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = ["TraceError", "TraceJob", "Trace",
           "STATUS_FAILED", "STATUS_COMPLETED", "STATUS_CANCELLED"]

#: SWF status codes (field 11).
STATUS_FAILED = 0
STATUS_COMPLETED = 1
STATUS_CANCELLED = 5


class TraceError(ReproError):
    """Malformed trace data (bad record, unknown dependency, ...)."""


@dataclass(frozen=True)
class TraceJob:
    """One job record: the SWF fields + staging/workflow extensions.

    SWF conventions are kept verbatim: ``-1`` means "unknown/absent"
    for every optional numeric field, and ``dep`` mirrors SWF field 17
    ("preceding job number", ``-1`` = none).
    """

    # -- the 18 SWF fields, in field order -----------------------------
    job_id: int
    submit_time: float
    wait_time: float = -1.0
    run_time: float = -1.0
    procs: int = 1                    # allocated processors
    cpu_time: float = -1.0
    mem: float = -1.0
    requested_procs: int = -1
    requested_time: float = -1.0
    requested_mem: float = -1.0
    status: int = STATUS_COMPLETED
    user: int = 1
    group: int = -1
    executable: int = -1
    queue: int = -1
    partition: int = -1
    dep: int = -1                     # preceding job number
    think_time: float = -1.0
    # -- native extensions (absent from pure SWF records) ----------------
    #: opens a new workflow (the paper's ``--workflow-start``); set
    #: automatically by :meth:`Trace.normalized` for dependency roots.
    workflow_start: bool = False
    #: fan-in prerequisites (job ids): general-DAG workflow edges on top
    #: of the single SWF ``dep``.  Combined with ``dep`` when both are
    #: present; empty for linear-chain (pure SWF) records.
    deps: Tuple[int, ...] = ()
    #: the job checkpoints its compute (replay wraps it in
    #: checkpoint epochs when a checkpoint interval is configured).
    checkpoint: bool = False
    stage_in_bytes: int = 0
    stage_in_files: int = 0
    stage_out_bytes: int = 0
    stage_out_files: int = 0
    #: keep the job's node-local output persisted (``#NORNS persist``).
    persist: bool = False
    #: per-job requeue budget after node failures (-1 = the cluster's
    #: :attr:`~repro.slurm.slurmctld.SlurmConfig.max_requeues` default).
    max_requeues: int = -1

    # -- derived views ---------------------------------------------------
    @property
    def nodes(self) -> int:
        """Effective node count (requested wins over allocated)."""
        if self.requested_procs > 0:
            return self.requested_procs
        return max(1, self.procs)

    @property
    def runtime(self) -> float:
        """Effective runtime (0 when the trace does not know it)."""
        return max(0.0, self.run_time)

    def time_limit(self, factor: float = 2.0, floor: float = 60.0) -> float:
        """Requested time if present, else ``factor`` × runtime."""
        if self.requested_time > 0:
            return float(self.requested_time)
        return max(floor, self.runtime * factor)

    @property
    def dependency(self) -> Optional[int]:
        return self.dep if self.dep >= 0 else None

    @property
    def dependencies(self) -> Tuple[int, ...]:
        """All prerequisite job ids: ``dep`` plus the fan-in ``deps``,
        deduplicated, in ascending order."""
        out = set(self.deps)
        if self.dep >= 0:
            out.add(self.dep)
        return tuple(sorted(out))

    @property
    def in_workflow(self) -> bool:
        return self.workflow_start or bool(self.dependencies)

    @property
    def is_staged(self) -> bool:
        return self.stage_in_bytes > 0 or self.stage_out_bytes > 0


@dataclass(frozen=True)
class Trace:
    """An ordered workload trace plus its header commentary.

    ``faults`` carries an embedded fault schedule
    (:class:`~repro.faults.plan.FaultRecord`, times relative to the
    replay start): a trace file can name not just the workload but the
    failures it was studied under, so a resilience scenario is one
    self-contained artifact.  Pure SWF cannot carry them; the JSONL
    format round-trips them losslessly.
    """

    name: str = "trace"
    jobs: Tuple[TraceJob, ...] = ()
    comments: Tuple[str, ...] = ()
    faults: Tuple = ()                    # FaultRecord entries

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def duration(self) -> float:
        """Span of the arrival process (last minus first submit)."""
        if not self.jobs:
            return 0.0
        submits = [j.submit_time for j in self.jobs]
        return max(submits) - min(submits)

    @property
    def staged_fraction(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(1 for j in self.jobs if j.is_staged) / len(self.jobs)

    def sorted_jobs(self) -> List[TraceJob]:
        """Replay order: by submit time, job id breaking ties."""
        return sorted(self.jobs, key=lambda j: (j.submit_time, j.job_id))

    def job(self, job_id: int) -> TraceJob:
        for j in self.jobs:
            if j.job_id == job_id:
                return j
        raise TraceError(f"no job {job_id} in trace {self.name!r}")

    # -- validation / normalisation --------------------------------------
    def validate(self) -> None:
        """Raise :class:`TraceError` on structural problems."""
        by_id: Dict[int, TraceJob] = {}
        for j in self.jobs:
            if j.job_id in by_id:
                raise TraceError(f"duplicate job id {j.job_id}")
            # SWF processor fields are -1 (unknown) or positive; zero
            # or other negatives would silently replay as 1 node.
            for label, procs in (("procs", j.procs),
                                 ("requested procs", j.requested_procs)):
                if procs != -1 and procs < 1:
                    raise TraceError(
                        f"job {j.job_id}: bad {label} {procs}")
            if j.submit_time < 0:
                raise TraceError(f"job {j.job_id}: negative submit time")
            if min(j.stage_in_bytes, j.stage_in_files,
                   j.stage_out_bytes, j.stage_out_files) < 0:
                raise TraceError(f"job {j.job_id}: negative staging field")
            by_id[j.job_id] = j
        for j in self.jobs:
            for dep in j.dependencies:
                if dep == j.job_id:
                    raise TraceError(f"job {j.job_id} depends on itself")
                prior = by_id.get(dep)
                if prior is None:
                    raise TraceError(
                        f"job {j.job_id} depends on unknown job {dep}")
                # Replay submits in (submit_time, job_id) order, and a
                # dependency must be submitted before its dependents —
                # which also keeps every dependency DAG acyclic.
                if (prior.submit_time, prior.job_id) >= (j.submit_time,
                                                         j.job_id):
                    raise TraceError(
                        f"job {j.job_id} does not sort after its "
                        f"dependency {dep}")

    def normalized(self) -> "Trace":
        """Validate and mark dependency roots as workflow starts.

        SWF only records the *edge* (field 17); the paper's workflow
        model additionally needs the root job flagged so slurmctld opens
        a workflow for the chain.  Returns a new trace with
        ``workflow_start`` set on every job that is depended upon
        (transitively) but has no dependency itself.
        """
        self.validate()
        referenced = {dep for j in self.jobs for dep in j.dependencies}
        jobs = tuple(
            dataclasses.replace(j, workflow_start=True)
            if (j.job_id in referenced and not j.dependencies
                and not j.workflow_start) else j
            for j in self.jobs)
        return dataclasses.replace(self, jobs=jobs)
