"""Checkpoint-interval sweep: replay cost vs. overhead under chaos.

Not a paper figure: this is the experiment the checkpointed-workflow
subsystem (:mod:`repro.workflows`) exists for.  A synthesized staged
workload whose workflow jobs are flagged ``checkpoint`` is replayed
through identical clusters under the seeded ``chaos`` fault profile,
once per checkpoint interval (interval 0 = no checkpointing, the
full-recompute baseline), each epoch additionally paying a PFS payload
write — the classic dump-cost/recompute-cost trade-off.  The table
shows, per interval, the MTTR, goodput, makespan, epochs resumed
(recompute avoided) and epochs marked (overhead paid).

Every arm executes through the sweep fleet (:mod:`repro.experiments
.fleet`) as a one-axis ``replay.checkpoint_interval`` matrix with no
seed axis: every arm derives the same child seed, so trace, cluster and
fault schedule are identical across arms and the curve is
deterministic — same seed ⇒ byte-identical table, whatever the
worker count (``workers > 1`` fans the arms out over processes).

``quick`` replays 60 jobs on 8 nodes per arm; ``--full`` replays 1,000
jobs on the 48-node ``replay_scale`` preset.
"""

from __future__ import annotations

from repro.experiments.fleet import SweepMatrix, run_sweep
from repro.experiments.harness import ExperimentResult

__all__ = ["run", "INTERVALS"]

#: swept checkpoint epoch lengths (seconds); 0 = checkpointing off.
INTERVALS = (0.0, 30.0, 60.0, 120.0)


def run(quick: bool = True, seed: int = 0,
        workers: int = 1) -> ExperimentResult:
    n_jobs = 60 if quick else 1000
    n_nodes = 8 if quick else 48
    matrix = SweepMatrix.from_axes(
        {"replay.checkpoint_interval": list(INTERVALS),
         "fault_profile": ["chaos"]},
        sweep_seed=seed, name="checkpoint_sweep",
        preset="replay_scale", n_nodes=n_nodes,
        workload=dict(
            n_jobs=n_jobs,
            arrival="poisson",
            mean_interarrival=8.0 if quick else 10.0,
            max_nodes=max(2, n_nodes // 4),
            mean_runtime=240.0,
            staged_fraction=0.4,
            stage_bytes_mean=4e9,
            stage_files=2,
            checkpoint_workflows=True,
        ),
        replay=dict(checkpoint_bytes=256_000_000))
    fleet = run_sweep(matrix, workers=workers)

    result = ExperimentResult(
        exp_id="checkpoint_sweep",
        title=f"Checkpoint interval vs. recovery: {n_jobs} jobs on "
              f"{n_nodes} nodes under the 'chaos' profile",
        headers=("interval s", "done", "makespan s", "MTTR s",
                 "goodput", "requeues", "epochs marked",
                 "epochs resumed", "invalidated"))

    def arm(interval):
        for r in fleet.results:
            ax = dict(r.axes)
            if float(ax["replay.checkpoint_interval"]) == interval:
                return r
        raise KeyError(f"no arm for interval {interval}")

    for interval in INTERVALS:
        m = arm(interval).metrics
        goodput = m.get("resilience_goodput", m["goodput"])
        result.add_row(
            f"{interval:g}", int(m["completed"]),
            m["makespan_seconds"],
            f"{m.get('mttr_seconds', 0.0):.1f}",
            f"{goodput:.4f}",
            int(m.get("jobs_requeued", 0)),
            int(m.get("ckpt_epochs_marked", 0)),
            int(m.get("ckpt_epochs_resumed", 0)),
            int(m.get("ckpt_invalidated", 0)))
        key = f"{interval:g}"
        result.metrics[f"makespan_s_interval_{key}"] = \
            m["makespan_seconds"]
        result.metrics[f"goodput_interval_{key}"] = goodput
        result.metrics[f"mttr_s_interval_{key}"] = \
            m.get("mttr_seconds", 0.0)
        result.metrics[f"epochs_resumed_interval_{key}"] = \
            m.get("ckpt_epochs_resumed", 0.0)

    result.notes.append(
        "interval 0 = no checkpointing (full recompute on requeue); "
        "smaller intervals resume more epochs but pay more "
        "256 MB payload writes")
    result.notes.append(
        "identical trace + cluster + seed + fault schedule per arm; "
        "only the checkpoint interval differs (repro.workflows, "
        "executed via repro.experiments.fleet)")
    return result
