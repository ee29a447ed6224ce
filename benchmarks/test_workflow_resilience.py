"""Workflow checkpoint/restart recovery gate.

The guarantee the checkpointed DAG engine (:mod:`repro.workflows`)
makes: when a deep pipeline loses a stage to a terminal fault, recovery
resubmits only the **lost frontier** — the stages without a valid
completion checkpoint — instead of replaying the whole DAG.  This gate
runs the same deep linear chain twice under an identical mid-pipeline
crash with the requeue budget exhausted (terminal stage failure):

* **baseline** — no checkpointing: nothing is persisted, so the second
  round replays every stage from scratch;
* **checkpointed** — per-stage completion markers on the PFS: the
  second round resubmits only the failed stage's suffix.

Gate: the checkpointed run's recovery cost (stage resubmissions *and*
recomputed stage-seconds) is at least 2x smaller.  Both runs are pure
simulation, so the gate is deterministic; the recorded wall time
(``BENCH_workflows.json``) is the checkpointed run's execution and
``extra_info`` carries the savings ratios.

``WORKFLOW_BENCH_QUICK=1`` (CI) trims the chain depth.
"""

from __future__ import annotations

import os

from repro.cluster import build, small_test
from repro.faults import FaultPlan, FaultRecord, arm_plan
from repro.workflows import PipelineConfig, PipelineEngine, deep_chain

QUICK = bool(os.environ.get("WORKFLOW_BENCH_QUICK"))

DEPTH = 8 if QUICK else 16
RUNTIME = 64.0
#: crash cn0 while a late stage is running; budget 0 makes it terminal.
CRASH_AT = (DEPTH - 2) * RUNTIME + 40.0


def run_chain(checkpointed: bool):
    handle = build(small_test(4), seed=0)
    injector = arm_plan(handle, FaultPlan(
        name="bench", records=(
            FaultRecord(time=CRASH_AT, kind="node_crash", target="cn0",
                        duration=60.0),)))
    engine = PipelineEngine(
        handle, deep_chain(DEPTH, runtime=RUNTIME),
        PipelineConfig(
            checkpoint_interval=16.0 if checkpointed else 0.0,
            stage_max_requeues=0))
    report = engine.run()
    injector.stop()
    return report


def test_frontier_replay_savings(benchmark):
    """Checkpointed recovery beats full-DAG replay by >= 2x."""
    baseline = run_chain(checkpointed=False)

    result = {}

    def once():
        result["report"] = run_chain(checkpointed=True)
        return result["report"]

    benchmark.pedantic(once, rounds=1, iterations=1)
    ckpt = result["report"]

    for report, label in ((baseline, "baseline"), (ckpt, "ckpt")):
        assert report.completed, f"{label} chain did not complete"
        assert report.n_rounds == 2, (
            f"{label}: expected one recovery round, got "
            f"{report.n_rounds}")

    # The baseline's recovery round replays all DEPTH stages; the
    # checkpointed one only the lost frontier.
    assert baseline.recovery_submissions == DEPTH
    resub_ratio = (baseline.recovery_submissions
                   / max(1, ckpt.recovery_submissions))
    replay_ratio = (baseline.replayed_seconds
                    / max(1.0, ckpt.replayed_seconds))

    benchmark.extra_info["depth"] = DEPTH
    benchmark.extra_info["baseline_resubmissions"] = \
        baseline.recovery_submissions
    benchmark.extra_info["ckpt_resubmissions"] = \
        ckpt.recovery_submissions
    benchmark.extra_info["baseline_replayed_seconds"] = \
        round(baseline.replayed_seconds, 3)
    benchmark.extra_info["ckpt_replayed_seconds"] = \
        round(ckpt.replayed_seconds, 3)
    benchmark.extra_info["replay_savings"] = round(replay_ratio, 3)
    benchmark.extra_info["speedup"] = round(resub_ratio, 3)
    print(f"\nworkflow recovery: depth {DEPTH}, resubmissions "
          f"{baseline.recovery_submissions} -> "
          f"{ckpt.recovery_submissions} ({resub_ratio:.1f}x), "
          f"replayed {baseline.replayed_seconds:.0f}s -> "
          f"{ckpt.replayed_seconds:.0f}s ({replay_ratio:.1f}x)")

    assert resub_ratio >= 2.0, (
        f"frontier resubmission savings {resub_ratio:.2f}x < 2x")
    assert replay_ratio >= 2.0, (
        f"recomputed-seconds savings {replay_ratio:.2f}x < 2x")
