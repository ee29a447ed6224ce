"""Scheduling-policy A/B study: one trace, every registered policy.

Not a paper figure: this is the ablation architecture the policy
engine exists for.  One synthesized staged workload is replayed through
identical clusters that differ *only* in scheduling policy (strict
FIFO, EASY backfill, conservative backfill, staging-aware), and the
population-level outcomes — mean/p95 wait, median bounded slowdown,
node utilization, makespan — are tabulated side by side.

The replays execute through the sweep fleet
(:mod:`repro.experiments.fleet`): a one-axis matrix over the policy
registry, run serially by default or over worker processes with
``workers > 1``.  The matrix carries no seed axis, so every arm derives
the *same* child seed — identical trace, identical cluster, policy the
only difference — and the comparison report is deterministic: same
seed ⇒ byte-identical table whatever the worker count.

``quick`` replays 120 jobs on 8 nodes per policy; ``--full`` replays
2,000 jobs on the 64-node ``replay_scale`` preset.
"""

from __future__ import annotations

from repro.experiments.fleet import SweepMatrix, run_sweep
from repro.experiments.harness import ExperimentResult
from repro.slurm.policies import available_policies

__all__ = ["run"]


def run(quick: bool = True, seed: int = 0,
        workers: int = 1) -> ExperimentResult:
    n_jobs = 120 if quick else 2000
    n_nodes = 8 if quick else 64
    matrix = SweepMatrix.from_axes(
        {"policy": [name for name, _ in available_policies()]},
        sweep_seed=seed, name="policy-ab",
        preset="replay_scale", n_nodes=n_nodes,
        # The "ab-staged" workload preset: heavy staged fraction and
        # volumes so E.T.A.-informed decisions have something to bite
        # on (tens of seconds per stage-in).
        workload=dict(
            n_jobs=n_jobs,
            arrival="poisson",
            mean_interarrival=6.0 if quick else 10.0,
            max_nodes=max(2, n_nodes // 2),
            mean_runtime=180.0,
            staged_fraction=0.4,
            stage_bytes_mean=8e9,
            stage_files=2,
        ))
    fleet = run_sweep(matrix, workers=workers)

    result = ExperimentResult(
        exp_id="policies",
        title=f"Scheduling-policy A/B: {n_jobs} jobs on {n_nodes} nodes, "
              f"one replay per registered policy",
        headers=("policy", "done", "makespan s", "mean wait s",
                 "p95 wait s", "med slowdown", "util"))

    for res in fleet.results:
        name = dict(res.axes)["policy"]
        m = res.metrics
        result.add_row(
            name, int(m["completed"]), m["makespan_seconds"],
            m["mean_wait_seconds"], m["p95_wait_seconds"],
            m["median_slowdown"], m["node_utilization"])
        result.metrics[f"{name}_completed"] = m["completed"]
        result.metrics[f"{name}_mean_wait_seconds"] = \
            m["mean_wait_seconds"]
        result.metrics[f"{name}_median_slowdown"] = m["median_slowdown"]
        result.metrics[f"{name}_node_utilization"] = \
            m["node_utilization"]

    result.notes.append(
        "identical trace + cluster per row; only the scheduling policy "
        "differs (repro.slurm.policies registry)")
    result.notes.append(
        "executed via repro.experiments.fleet "
        f"({'serial' if workers <= 1 else f'{workers} workers'})")
    return result
