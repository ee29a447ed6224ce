#!/usr/bin/env python3
"""A checkpointed 6-stage diamond DAG surviving the 'chaos' profile.

The pipeline engine (:mod:`repro.workflows`) runs a fan-out/fan-in DAG
— ingest splits into two filter branches that merge, analyze, publish —
as slurm workflow submissions.  Each stage computes in 16-second
checkpoint epochs whose markers persist on the PFS through the staging
dataspace layer, so a fault-driven requeue resumes after the last
completed epoch, and a terminal stage failure costs only the **lost
frontier** on the next round instead of the whole DAG.

The same run is repeated without checkpointing for contrast: any lost
stage then recomputes from scratch.

Run:  python examples/workflow_checkpoint.py
"""

from repro.cluster import build, small_test
from repro.faults import arm_plan, fault_profile
from repro.workflows import PipelineConfig, PipelineEngine, diamond

SEED = 3
INTERVAL = 16.0


def run_diamond(checkpoint_interval: float):
    pipeline = diamond()
    handle = build(small_test(4), seed=SEED)
    plan = fault_profile("chaos", horizon=4 * pipeline.total_runtime,
                         nodes=handle.node_names, seed=SEED)
    injector = arm_plan(handle, plan)
    engine = PipelineEngine(
        handle, pipeline,
        PipelineConfig(checkpoint_interval=checkpoint_interval))
    report = engine.run()
    injector.stop()
    return report


def main() -> None:
    print("=== checkpointed (16 s epochs) under 'chaos' ===\n")
    ckpt = run_diamond(INTERVAL)
    print(ckpt.to_text())

    print("=== no checkpointing, same faults ===\n")
    plain = run_diamond(0.0)
    print(plain.to_text())

    saved = plain.replayed_seconds - ckpt.replayed_seconds
    print(f"recovery: checkpointing recomputed "
          f"{ckpt.replayed_seconds:g}s of lost work vs "
          f"{plain.replayed_seconds:g}s without "
          f"({saved:g} compute-seconds saved), makespan "
          f"{ckpt.makespan:.1f}s vs {plain.makespan:.1f}s")


if __name__ == "__main__":
    main()
