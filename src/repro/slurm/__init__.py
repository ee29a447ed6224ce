"""Slurm extensions for data-driven workflows (Section III).

A simulated Slurm with the paper's additions:

* :mod:`repro.slurm.job` — job descriptors, states, ``#NORNS``
  directives (stage_in / stage_out / persist).
* :mod:`repro.slurm.script` — batch-script parser for ``#SBATCH`` and
  ``#NORNS`` options, including ``workflow-start`` / ``workflow-end`` /
  ``workflow-prior-dependency``.
* :mod:`repro.slurm.workflow` — workflow IDs, unit-level status,
  cancel-on-failure semantics.
* :mod:`repro.slurm.scheduler` — priority aging (workflow-aware).
* :mod:`repro.slurm.policies` — the pluggable scheduling engine:
  policy interface + registry (fifo / backfill / conservative /
  staging-aware) and the incremental :class:`SchedulerState` that
  slurmctld maintains event by event.
* :mod:`repro.slurm.selector` — node selection with data-aware
  placement (run the consumer where the producer's data lives).
* :mod:`repro.slurm.staging` — stage-in/out orchestration through the
  NORNS control API, with E.T.A.-informed waiting, timeouts and cleanup.
* :mod:`repro.slurm.slurmd` — the per-node daemon registering
  dataspaces/jobs with the local urd and launching job steps.
* :mod:`repro.slurm.slurmctld` — the controller tying it all together.
* :mod:`repro.slurm.accounting` — per-job phase accounting records.
"""

from repro.slurm.job import (
    Job, JobSpec, JobState, PersistDirective, StageDirective, StepContext,
)
from repro.slurm.script import parse_batch_script
from repro.slurm.workflow import Workflow, WorkflowManager, WorkflowStatus
from repro.slurm.scheduler import PriorityCalculator
from repro.slurm.policies import (
    ScheduleDecision, SchedulerState, SchedulingPolicy,
    available_policies, create_policy, register_policy,
)
from repro.slurm.selector import NodeSelector
from repro.slurm.staging import StagingCoordinator, PersistRegistry
from repro.slurm.slurmd import Slurmd
from repro.slurm.slurmctld import Slurmctld, SlurmConfig
from repro.slurm.accounting import AccountingLog, JobRecord

__all__ = [
    "Job", "JobSpec", "JobState", "StageDirective", "PersistDirective",
    "StepContext",
    "parse_batch_script",
    "Workflow", "WorkflowManager", "WorkflowStatus",
    "PriorityCalculator",
    "SchedulingPolicy", "SchedulerState", "ScheduleDecision",
    "register_policy", "create_policy", "available_policies",
    "NodeSelector",
    "StagingCoordinator", "PersistRegistry",
    "Slurmd",
    "Slurmctld", "SlurmConfig",
    "AccountingLog", "JobRecord",
]
