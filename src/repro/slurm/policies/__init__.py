"""Pluggable scheduling policies for slurmctld.

The engine splits what used to be one hard-wired scheduler class (kept
as the test oracle ``tests/oracles/backfill_reference.py``) into three
pieces:

* :mod:`repro.slurm.policies.base` — the :class:`SchedulingPolicy`
  interface, :class:`ScheduleDecision`, and the name registry
  (:func:`register_policy` / :func:`create_policy` /
  :func:`available_policies`);
* :mod:`repro.slurm.policies.state` — :class:`SchedulerState`, the
  incremental, event-maintained view (priority-indexed pending queue,
  O(1) free-node set, dirty flags) every policy schedules against;
* one module per policy: strict :mod:`~repro.slurm.policies.fifo`,
  the default EASY :mod:`~repro.slurm.policies.easy` backfill,
  :mod:`~repro.slurm.policies.conservative` backfill with per-job
  reservations, and the NORNS-E.T.A./locality-driven
  :mod:`~repro.slurm.policies.staging_aware` policy.

Selection is wired end to end: ``SlurmConfig(policy=...)``, the
``scheduler_policy`` field of cluster presets, ``--scheduler`` on the
CLI ``run``/``replay`` commands, and ``ReplayConfig(scheduler=...)``
for trace replay all resolve through the same registry.
"""

from repro.slurm.policies.base import (
    DEFAULT_POLICY, ScheduleDecision, SchedulingPolicy,
    available_policies, create_policy, register_policy,
)
from repro.slurm.policies.state import SchedulerState

# Importing the modules registers the built-in policies.
from repro.slurm.policies.fifo import FifoPolicy
from repro.slurm.policies.easy import EasyBackfillPolicy
from repro.slurm.policies.conservative import ConservativeBackfillPolicy
from repro.slurm.policies.staging_aware import StagingAwarePolicy

__all__ = [
    "DEFAULT_POLICY",
    "SchedulingPolicy", "ScheduleDecision", "SchedulerState",
    "register_policy", "create_policy", "available_policies",
    "FifoPolicy", "EasyBackfillPolicy", "ConservativeBackfillPolicy",
    "StagingAwarePolicy",
]
