"""Deterministic fault injection & resilience (`repro.faults`).

Turns any experiment, trace replay, or policy A/B into a resilience
study: a declarative :class:`FaultPlan` (node crashes with reboots,
drain windows, urd daemon restarts with in-flight task loss, NIC
degradation/partition, storage-device brownouts, corrupted transfers
forcing retries) is compiled by the :class:`FaultInjector` into
cancellable timeouts on the DES calendar, so the same plan + seed
reproduces the same failures — and the same recoveries — run after run.

* :mod:`repro.faults.plan` — the record model and its JSONL format.
* :mod:`repro.faults.profiles` — named, seeded plan generators
  ("node-churn", "flaky-network", "chaos", ...).
* :mod:`repro.faults.engine` — the injector and the
  :class:`ResilienceStats` it observes (fault mix, requeues, downtime,
  MTTR, goodput); :func:`resilience_table` renders them beside the lost /
  retried staging work and RPC counters of the run's metrics registry.
  :func:`arm_plan` / :func:`end_plan` are how every run (replay,
  ``run``, ``workflows``) starts a plan and ends it.

A zero-fault plan schedules nothing and leaves every byte of every
report unchanged — injection is free when idle.
"""

from repro.faults.plan import (
    FAULT_KINDS, FaultPlan, FaultRecord,
    dump_plan, format_plan, load_plan, parse_plan,
)
from repro.faults.profiles import (
    available_profiles, fault_profile, register_profile,
)
from repro.faults.engine import (
    FaultInjector, ResilienceStats, arm_plan, end_plan, resilience_table,
)

__all__ = [
    "FAULT_KINDS", "FaultRecord", "FaultPlan",
    "parse_plan", "format_plan", "load_plan", "dump_plan",
    "available_profiles", "fault_profile", "register_profile",
    "FaultInjector", "ResilienceStats",
    "arm_plan", "end_plan", "resilience_table",
]
