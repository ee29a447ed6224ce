"""Sharded parallel sweep fleet (`repro.experiments.fleet`).

The subsystem that turns the repo from "a simulator" into a simulation
service backend: a declarative :class:`SweepMatrix` (cartesian product
over scheduling policy, fault profile, workload preset, seed ensemble,
and arbitrary ``ClusterSpec`` overrides) expands into position-
independent :class:`RunSpec`\\ s with deterministic per-shard seeding
(``(sweep_seed, axis values) → child seed``, stable under reordering
and subsetting), executed by :func:`run_sweep` — serially in the
caller, or on one local process pool with worker warm-up, bounded
in-flight submissions, per-run timeout and retry-on-worker-crash.

Each shard lands in a self-describing artifact directory (config echo,
per-job metrics JSONL, replay report, wall/RSS run stats) and a
:class:`FleetReport` merges the shards into one cross-run table keyed
by the sweep axes — byte-reproducible for a fixed matrix + seed
whatever the worker count, because every run is a pure function of
its spec and the merge order is canonical.
"""

from repro.experiments.fleet.matrix import (
    WORKLOAD_PRESETS, SweepMatrix, child_seed, parse_axis,
)
from repro.experiments.fleet.runspec import (
    RunResult, RunSpec, execute_run, measured_run,
)
from repro.experiments.fleet.report import FleetReport
from repro.experiments.fleet.runner import FleetError, run_sweep
from repro.experiments.fleet import artifacts

__all__ = [
    "SweepMatrix", "child_seed", "parse_axis", "WORKLOAD_PRESETS",
    "RunSpec", "RunResult", "execute_run", "measured_run",
    "FleetError", "FleetReport", "run_sweep", "artifacts",
]
