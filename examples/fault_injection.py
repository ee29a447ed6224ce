#!/usr/bin/env python3
"""Deterministic fault injection: replay a workload under chaos.

Synthesizes a 100-job staged workload, generates the seeded ``chaos``
fault profile (node crash + reboot, urd restart with in-flight task
loss, congested link, device brownout, corrupted transfers, a
maintenance drain), and replays the trace twice — clean, then faulted —
printing the resilience metrics the second run adds to the report:
requeue counts, lost/retried staging work, node downtime, MTTR and
goodput vs. the clean run.

The same flow is available from the command line::

    PYTHONPATH=src python -m repro.slurm.cli replay --synth 100 \
        --preset small_test --compression 2 --fault-profile chaos

    # or with an explicit, editable plan file:
    PYTHONPATH=src python -m repro.slurm.cli faults --emit chaos \
        --horizon 3000 --nodes 4 --out chaos.jsonl
    PYTHONPATH=src python -m repro.slurm.cli replay --synth 100 \
        --preset small_test --compression 2 --faults chaos.jsonl

Run:  python examples/fault_injection.py
"""

from repro.cluster import build, small_test
from repro.faults import fault_profile, format_plan
from repro.traces import (
    ReplayConfig, SynthesisConfig, TraceReplayer, synthesize,
)
from repro.util import GB


def replay(trace, plan=None):
    handle = build(small_test(n_nodes=4), seed=11)
    cfg = ReplayConfig(time_compression=2.0, fault_plan=plan)
    return TraceReplayer(handle, trace, cfg).run(), handle


def main() -> None:
    cfg = SynthesisConfig(
        n_jobs=100,
        arrival="poisson",
        mean_interarrival=10.0,
        max_nodes=2,
        mean_runtime=120.0,
        staged_fraction=0.3,
        stage_bytes_mean=2 * GB,
    )
    trace = synthesize(cfg, seed=11)
    plan = fault_profile("chaos", horizon=trace.duration / 2.0,
                         nodes=[f"cn{i}" for i in range(4)], seed=11)
    print(f"fault plan ({plan.n_faults} records):")
    for line in format_plan(plan).splitlines()[1:]:
        print(f"  {line}")
    print()

    clean, _ = replay(trace)
    faulted, handle = replay(trace, plan)

    print(faulted.to_text())
    res = faulted.resilience
    print("clean vs. chaos:")
    print(f"  completed      {clean.completed:4d} -> {faulted.completed}")
    print(f"  makespan       {clean.makespan:9.0f}s -> "
          f"{faulted.makespan:.0f}s")
    print(f"  jobs requeued  {res.jobs_requeued}")
    reg = faulted.registry
    print(f"  tasks retried  {reg.total('urd.tasks_retried')} "
          f"(lost {reg.total('urd.tasks_lost')})")
    print(f"  node downtime  {res.node_downtime:.0f} node-seconds "
          f"(MTTR {res.mttr:.1f}s)")
    print(f"  goodput        {res.goodput:.4f}")
    print()
    requeued = [r for r in handle.ctld.accounting.records() if r.requeues]
    for rec in requeued[:5]:
        print(f"  job {rec.job_id} {rec.name}: requeued {rec.requeues}x "
              f"-> {rec.state}")


if __name__ == "__main__":
    main()
