"""Resilience study: one trace, no faults vs. the chaos fault profile.

Not a paper figure: this is the experiment the fault-injection
subsystem (:mod:`repro.faults`) exists for.  A synthesized staged
workload is replayed twice through identical clusters — once under the
armed-but-empty ``none`` profile (provably byte-identical to no
injector at all), once under the seeded ``chaos`` profile (a node
crash with reboot, a urd restart losing in-flight staging tasks, a
congested link, a node-local device brownout, corrupted transfers
forcing retries, and a maintenance drain) — and the population
outcomes are tabulated side by side: goodput vs. the baseline, requeue
count, lost/retried staging work, node downtime and MTTR.

Both arms execute through the sweep fleet (:mod:`repro.experiments
.fleet`) as a one-axis ``fault_profile`` matrix with no seed axis:
every arm derives the same child seed, so the comparison is
deterministic — same seed ⇒ byte-identical table, run after run,
whatever the worker count (``workers > 1`` fans the arms out over
processes).

``quick`` replays 80 jobs on 8 nodes per arm; ``--full`` replays 1,500
jobs on the 48-node ``replay_scale`` preset.
"""

from __future__ import annotations

from repro.experiments.fleet import SweepMatrix, run_sweep
from repro.experiments.harness import ExperimentResult

__all__ = ["run"]


def run(quick: bool = True, seed: int = 0,
        workers: int = 1) -> ExperimentResult:
    n_jobs = 80 if quick else 1500
    n_nodes = 8 if quick else 48
    matrix = SweepMatrix.from_axes(
        {"fault_profile": ["none", "chaos"]},
        sweep_seed=seed, name="resilience",
        preset="replay_scale", n_nodes=n_nodes,
        # The "fault-mix" workload preset at experiment scale.
        workload=dict(
            n_jobs=n_jobs,
            arrival="poisson",
            mean_interarrival=8.0 if quick else 10.0,
            max_nodes=max(2, n_nodes // 4),
            mean_runtime=180.0,
            staged_fraction=0.35,
            stage_bytes_mean=4e9,
            stage_files=2,
        ))
    fleet = run_sweep(matrix, workers=workers)
    baseline = fleet.run("fault_profile=none")
    faulted = fleet.run("fault_profile=chaos")
    base, chaos = baseline.metrics, faulted.metrics

    result = ExperimentResult(
        exp_id="resilience",
        title=f"Fault injection: {n_jobs} jobs on {n_nodes} nodes, "
              "clean vs. the seeded 'chaos' profile",
        headers=("arm", "done", "makespan s", "mean wait s",
                 "requeues", "util", "goodput"))

    def row(label, m, requeues, goodput):
        result.add_row(label, int(m["completed"]), m["makespan_seconds"],
                       m["mean_wait_seconds"], requeues,
                       f"{m['node_utilization']:.3f}",
                       f"{goodput:.4f}")

    base_goodput = base["goodput"]
    chaos_goodput = chaos.get("resilience_goodput", chaos["goodput"])
    row("baseline", base, 0, base_goodput)
    row("chaos", chaos, int(chaos.get("jobs_requeued", 0)),
        chaos_goodput)

    result.metrics["baseline_completed"] = base["completed"]
    result.metrics["chaos_completed"] = chaos["completed"]
    result.metrics["chaos_goodput"] = chaos_goodput
    result.metrics["goodput_vs_baseline"] = (
        chaos_goodput / base_goodput if base_goodput else 0.0)
    result.metrics["jobs_requeued"] = chaos.get("jobs_requeued", 0.0)
    result.metrics["tasks_retried"] = chaos.get("tasks_retried", 0.0)
    result.metrics["node_downtime_seconds"] = \
        chaos.get("node_downtime_seconds", 0.0)
    result.metrics["mttr_seconds"] = chaos.get("mttr_seconds", 0.0)
    result.metrics["makespan_stretch"] = (
        chaos["makespan_seconds"] / base["makespan_seconds"]
        if base["makespan_seconds"] else 0.0)
    # RPC resilience layer (deadline/retry/breaker/heartbeat/shedding).
    result.metrics["rpc_retries"] = chaos.get("rpc_retries", 0.0)
    result.metrics["breaker_opens"] = chaos.get("breaker_opens", 0.0)
    result.metrics["requests_shed"] = chaos.get("requests_shed", 0.0)
    result.metrics["heartbeat_misses"] = \
        chaos.get("heartbeat_misses", 0.0)

    result.notes.append(
        f"chaos arm: {int(chaos.get('faults_injected', 0))} faults "
        f"({faulted.info.get('fault_mix', '-')}); "
        f"MTTR {chaos.get('mttr_seconds', 0.0):.1f}s, "
        f"downtime {chaos.get('node_downtime_seconds', 0.0):.0f} "
        "node-seconds")
    result.notes.append(
        "rpc layer under chaos: "
        f"{int(chaos.get('rpc_retries', 0))} retries, "
        f"{int(chaos.get('breaker_opens', 0))} breaker opens, "
        f"{int(chaos.get('requests_shed', 0))} requests shed, "
        f"{int(chaos.get('heartbeat_misses', 0))} heartbeat misses")
    result.notes.append(
        "identical trace + cluster + seed per arm; only the fault plan "
        "differs (repro.faults, executed via repro.experiments.fleet)")
    return result
