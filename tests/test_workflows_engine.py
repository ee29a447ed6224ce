"""End-to-end DAG pipeline engine tests: zero-fault byte identity,
crash/resume recovery, terminal-failure frontier resubmission, and the
randomized effectively-once property."""

import os
import random

import pytest

from repro.cluster import build, small_test
from repro.faults import FaultPlan, FaultRecord, arm_plan
from repro.traces import ReplayConfig, Trace, TraceJob, TraceReplayer
from repro.traces.records import STATUS_COMPLETED
from repro.workflows import (
    PipelineConfig, PipelineEngine, deep_chain, diamond,
)
from tests.conftest import downstream_of

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "workflow_replay_golden.txt")


def fresh(n_nodes=4, seed=0):
    return build(small_test(n_nodes), seed=seed)


def run_pipeline(pipeline, interval=0.0, handle=None, faults=(),
                 **cfg_kw):
    handle = handle or fresh()
    injector = None
    if faults:
        injector = arm_plan(
            handle, FaultPlan(name="test", records=tuple(faults)))
    engine = PipelineEngine(
        handle, pipeline,
        PipelineConfig(checkpoint_interval=interval, **cfg_kw))
    report = engine.run()
    if injector is not None:
        injector.stop()
    return report, engine


class TestZeroFaultIdentity:
    """Arming checkpointing on a fault-free run perturbs no timings."""

    def test_diamond_timings_identical(self):
        plain, _ = run_pipeline(diamond())
        ckpt, _ = run_pipeline(diamond(), interval=16.0)
        assert ckpt.makespan == plain.makespan
        assert [r.elapsed for r in ckpt.rounds] == \
            [r.elapsed for r in plain.rounds]
        assert ckpt.n_rounds == 1 and ckpt.completed
        assert ckpt.replayed_seconds == 0.0
        # The checkpointed run did persist: 4 epochs for the 64 s
        # ingest stage alone, and every stage completed durably.
        store = ckpt.checkpoints
        assert store.epochs_marked > 0
        assert store.stages_completed == 6
        for s in diamond().stages:
            assert store.is_complete(f"diamond/{s.name}")
            assert store.manifest(f"diamond/{s.name}")

    def test_report_structure(self):
        report, _ = run_pipeline(diamond(), interval=16.0)
        text = report.to_text()
        assert "pipeline run" in text
        assert "per-stage recovery cost" in text
        assert "checkpoints" in text
        plain, _ = run_pipeline(diamond())
        assert "checkpoints" not in plain.to_text()


def dag_trace():
    """A 4-job fan-out/fan-in DAG with checkpoint-flagged staged jobs."""
    mb = 10 ** 6
    jobs = (
        TraceJob(job_id=1, submit_time=0.0, run_time=64.0, procs=1,
                 requested_time=600.0, status=STATUS_COMPLETED, user=1,
                 workflow_start=True, checkpoint=True,
                 stage_out_bytes=200 * mb, stage_out_files=2),
        TraceJob(job_id=2, submit_time=5.0, run_time=96.0, procs=1,
                 requested_time=600.0, status=STATUS_COMPLETED, user=1,
                 dep=1, checkpoint=True,
                 stage_in_bytes=200 * mb, stage_in_files=2,
                 stage_out_bytes=100 * mb, stage_out_files=2),
        TraceJob(job_id=3, submit_time=6.0, run_time=128.0, procs=1,
                 requested_time=600.0, status=STATUS_COMPLETED, user=1,
                 dep=1, checkpoint=True,
                 stage_in_bytes=200 * mb, stage_in_files=2,
                 stage_out_bytes=100 * mb, stage_out_files=2),
        TraceJob(job_id=4, submit_time=8.0, run_time=80.0, procs=1,
                 requested_time=600.0, status=STATUS_COMPLETED, user=1,
                 deps=(2, 3), checkpoint=True,
                 stage_in_bytes=100 * mb, stage_in_files=2,
                 stage_out_bytes=50 * mb, stage_out_files=1),
    )
    return Trace(name="dag", jobs=jobs).normalized()


class TestReplayGolden:
    """The ISSUE's golden gate: a zero-fault checkpointed DAG replay is
    byte-identical to the non-checkpointed equivalent."""

    def replay(self, interval):
        report = TraceReplayer(
            fresh(), dag_trace(),
            ReplayConfig(checkpoint_interval=interval)).run()
        return report

    def test_checkpointed_replay_is_byte_identical(self):
        base = self.replay(0.0).to_text()
        assert self.replay(16.0).to_text() == base
        assert self.replay(64.0).to_text() == base

    def test_matches_golden_file(self):
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            golden = fh.read()
        assert self.replay(16.0).to_text() == golden

    def test_fan_in_waits_for_all_deps(self):
        report = self.replay(16.0)
        assert report.completed == 4
        starts = {m.trace_id: m.submitted + m.wait
                  for m in report.metrics}
        ends = {m.trace_id: m.submitted + m.response
                for m in report.metrics}
        assert starts[4] >= max(ends[2], ends[3])


class TestCrashRecovery:
    def test_resume_skips_marked_epochs(self):
        crash = FaultRecord(time=300.0, kind="node_crash", target="cn0",
                            duration=60.0)
        ckpt, engine = run_pipeline(diamond(), interval=16.0,
                                    faults=(crash,))
        assert ckpt.completed
        store = ckpt.checkpoints
        assert store.epochs_resumed > 0
        # Effectively-once: only the epoch in flight at the crash
        # re-executed; everything marked stayed marked.
        reexec = {k: n for k, n in store.epoch_executions.items()
                  if n > 1}
        assert sum(n - 1 for n in reexec.values()) == 1
        plain, _ = run_pipeline(diamond(), faults=(crash,))
        assert plain.completed
        # The non-checkpointed run recomputes the whole lost stage.
        assert plain.replayed_seconds > ckpt.replayed_seconds
        assert ckpt.makespan < plain.makespan

    def test_requeue_warning_names_resume_epoch(self):
        crash = FaultRecord(time=300.0, kind="node_crash", target="cn0",
                            duration=60.0)
        _, engine = run_pipeline(diamond(), interval=16.0,
                                 faults=(crash,))
        warnings = [w for rec in engine.ctld.accounting.records()
                    for w in rec.warnings]
        assert any("will resume at epoch" in w for w in warnings)


class TestTerminalFailure:
    """Satellite: requeue-budget exhaustion mid-DAG cancels downstream
    exactly once, cleans partial artifacts, and the next round
    resubmits only the lost frontier."""

    CRASH = FaultRecord(time=300.0, kind="node_crash", target="cn0",
                        duration=60.0)

    def test_downstream_cancelled_once_and_frontier_resubmitted(self):
        report, engine = run_pipeline(
            diamond(), interval=16.0, faults=(self.CRASH,),
            stage_max_requeues=0)
        assert report.completed
        assert report.n_rounds == 2
        first, second = report.rounds
        failed = [s for s, o in first.outcomes.items() if o == "failed"]
        assert len(failed) == 1
        cancelled = sorted(s for s, o in first.outcomes.items()
                           if o == "cancelled")
        assert cancelled == downstream_of(engine.pipeline, failed[0])
        # Round 2 is exactly the lost frontier, in topo order, and the
        # stages that completed in round 1 were never resubmitted.
        assert second.submitted == sorted(
            first.lost, key=[s.name for s in
                             engine.pipeline.topological()].index)
        for name in first.completed:
            assert report.submissions[name] == 1
        for name in first.lost:
            assert report.submissions[name] == 2

    def test_partial_artifacts_cleaned(self):
        report, engine = run_pipeline(
            diamond(), interval=16.0, faults=(self.CRASH,),
            stage_max_requeues=0)
        store = report.checkpoints
        assert store.stages_cleaned >= 1
        # Every stage ends complete (round 2 recovered the DAG) with a
        # durable manifest; no orphaned epoch markers survive.
        for s in engine.pipeline.stages:
            key = engine.stage_key(s.name)
            assert store.is_complete(key)
            assert not store.ns.exists(store.epoch_marker(key, 0))

    def test_without_store_failure_replays_whole_dag(self):
        report, engine = run_pipeline(
            diamond(), faults=(self.CRASH,), stage_max_requeues=0)
        assert report.completed
        assert report.n_rounds == 2
        everything = [s.name for s in engine.pipeline.topological()]
        assert report.rounds[1].submitted == everything
        ckpt, _ = run_pipeline(
            diamond(), interval=16.0, faults=(self.CRASH,),
            stage_max_requeues=0)
        assert report.recovery_submissions > ckpt.recovery_submissions


class TestEffectivelyOnceProperty:
    """Randomized crash schedules: every DAG completes and each stage
    epoch executes effectively once (re-execution only for the epoch a
    crash caught in flight — never for a marked one)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_crashes(self, seed):
        rng = random.Random(seed)
        n_crashes = rng.randint(1, 3)
        records = []
        t = 0.0
        for _ in range(n_crashes):
            t += rng.uniform(60.0, 260.0)
            records.append(FaultRecord(
                time=round(t, 3), kind="node_crash",
                target=f"cn{rng.randrange(4)}",
                duration=round(rng.uniform(30.0, 90.0), 3)))
        pipeline = diamond()
        report, engine = run_pipeline(pipeline, interval=16.0,
                                      handle=fresh(seed=seed),
                                      faults=records)
        assert report.completed, f"seed {seed}: DAG did not complete"
        store = report.checkpoints
        from repro.workflows import epoch_plan
        for s in pipeline.stages:
            key = engine.stage_key(s.name)
            assert store.is_complete(key)
            # Every epoch of the stage ran at least once...
            n_epochs = len(epoch_plan(s.runtime, 16.0))
            for epoch in range(n_epochs):
                assert store.epoch_executions.get((key, epoch), 0) >= 1
        # ...and total re-execution is bounded by the crash count: a
        # crash can catch at most one unmarked epoch in flight.
        reexecutions = sum(n - 1 for n in
                           store.epoch_executions.values() if n > 1)
        assert reexecutions <= len(records), (
            f"seed {seed}: {reexecutions} re-executions for "
            f"{len(records)} crashes")
