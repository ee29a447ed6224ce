"""End-to-end observability: full-stack traces and the registry.

The tentpole contracts: spans cover the whole job lifecycle with
causality, trace context crosses the RPC boundary, the replay report
renders its perf footer from the metrics registry, and — the big one —
tracing changes *nothing* about the simulation (same report, same
event count) whether enabled or disabled.
"""

import pytest

from repro.cluster import build, small_test
from repro.obs.trace import CAT, NAME, PARENT, SID, TRACK
from repro.traces import (
    ReplayConfig, SynthesisConfig, TraceReplayer, synthesize,
)
from repro.util.units import GB


def small_trace(n_jobs=14, seed=3):
    cfg = SynthesisConfig(
        n_jobs=n_jobs, arrival="poisson", mean_interarrival=6.0,
        max_nodes=2, mean_runtime=60.0, staged_fraction=0.3,
        stage_bytes_mean=1 * GB, stage_files=2)
    return synthesize(cfg, seed=seed)


def traced_replay(**kwargs):
    trace = small_trace()
    handle = build(small_test(n_nodes=4), seed=7)
    tracer = handle.enable_tracing(kwargs.pop("categories", None))
    report = TraceReplayer(
        handle, trace,
        ReplayConfig(time_compression=4.0, **kwargs)).run()
    tracer.close_open()
    return report, tracer


@pytest.fixture(scope="module")
def traced():
    return traced_replay()


class TestLifecycleCoverage:
    def test_all_core_categories_recorded(self, traced):
        _, tracer = traced
        cats = {rec[CAT] for rec in tracer.spans}
        assert {"job", "task", "urd", "rpc", "flow"} <= cats
        assert any(m[0] == "sched" for m in tracer.marks)

    def test_job_root_spans_have_phase_children(self, traced):
        _, tracer = traced
        roots = {rec[SID] for rec in tracer.spans
                 if rec[CAT] == "job" and rec[PARENT] == -1}
        child_names = {rec[NAME] for rec in tracer.spans
                       if rec[CAT] == "job" and rec[PARENT] in roots}
        assert "wait" in child_names
        assert "run" in child_names
        assert "stage_in" in child_names

    def test_rpc_context_propagates_to_urd_spans(self, traced):
        _, tracer = traced
        urd_spans = [rec for rec in tracer.spans if rec[CAT] == "urd"]
        assert urd_spans
        with_parent = [rec for rec in urd_spans if rec[PARENT] >= 0]
        assert with_parent, "no urd span linked to its client rpc span"
        for rec in with_parent:
            assert tracer.spans[rec[PARENT]][CAT] == "rpc"

    def test_task_spans_on_node_tracks(self, traced):
        _, tracer = traced
        tracks = {rec[TRACK] for rec in tracer.spans
                  if rec[CAT] == "task"}
        assert tracks and all(t.startswith("cn") for t in tracks)


class TestZeroPerturbation:
    def test_tracing_changes_nothing(self):
        enabled, _ = traced_replay()
        trace = small_trace()
        handle = build(small_test(n_nodes=4), seed=7)
        disabled = TraceReplayer(
            handle, trace, ReplayConfig(time_compression=4.0)).run()
        assert enabled.to_text() == disabled.to_text()
        assert enabled.registry.total("kernel.events") == \
            disabled.registry.total("kernel.events")

    def test_trace_is_reproducible(self):
        from repro.obs import chrome_trace, spans_jsonl
        _, t1 = traced_replay()
        _, t2 = traced_replay()
        assert chrome_trace(t1) == chrome_trace(t2)
        assert spans_jsonl(t1) == spans_jsonl(t2)


class TestRegistryMigration:
    def test_report_carries_registry(self, traced):
        report, _ = traced
        assert report.registry is not None
        names = {inst.name for inst in report.registry}
        assert "kernel.events" in names
        assert "sched.passes" in names
        assert "replay.jobs" in names

    def test_perf_footer_renders_from_registry(self, traced):
        report, _ = traced
        text = report.to_text(perf=True)
        assert "event kernel" in text
        assert "kernel.defunct_skips" in text


class TestFaultAndWorkflowSpans:
    def test_fault_windows_recorded(self):
        from repro.faults import fault_profile
        trace = small_trace()
        handle = build(small_test(n_nodes=4), seed=7)
        tracer = handle.enable_tracing()
        plan = fault_profile("chaos", horizon=600.0,
                             nodes=handle.node_names, seed=5)
        TraceReplayer(handle, trace,
                      ReplayConfig(time_compression=4.0,
                                   fault_plan=plan)).run()
        tracer.close_open()
        faults = [rec for rec in tracer.spans if rec[CAT] == "fault"]
        assert faults
        kinds = {rec[NAME] for rec in faults}
        assert kinds <= {r.kind for r in plan.sorted_records()}

    def test_workflow_round_spans(self):
        from repro.workflows import (
            PipelineConfig, PipelineEngine, diamond,
        )
        handle = build(small_test(n_nodes=4), seed=7)
        tracer = handle.enable_tracing()
        engine = PipelineEngine(handle, diamond(runtime=16.0),
                                PipelineConfig())
        report = engine.run()
        assert report.completed
        wf = [rec for rec in tracer.spans if rec[CAT] == "workflow"]
        names = {rec[NAME] for rec in wf}
        assert "diamond" in names
        assert any(n.startswith("round") for n in names)


class TestFleetObsArtifacts:
    def test_obs_run_exports_streams(self, tmp_path):
        from repro.experiments.fleet import artifacts
        from repro.experiments.fleet.runspec import RunSpec, execute_run

        spec = RunSpec(
            run_id="obs-run", axes=(("seed", "1"),), seed=1,
            preset="small_test", n_nodes=4,
            workload=(("mean_interarrival", 10.0), ("n_jobs", 6)),
            replay=(("time_compression", 4.0),), obs=True)
        result = execute_run(spec)
        assert result.spans_jsonl
        assert result.obs_metrics_jsonl
        d = artifacts.write_run(tmp_path, spec, result)
        assert (d / "spans.jsonl").exists()
        assert (d / "obs_metrics.jsonl").exists()
        loaded = artifacts.load_run(tmp_path, "obs-run")
        assert loaded.spans_jsonl == result.spans_jsonl
        assert loaded.obs_metrics_jsonl == result.obs_metrics_jsonl

    def test_non_obs_run_exports_nothing(self, tmp_path):
        from repro.experiments.fleet import artifacts
        from repro.experiments.fleet.runspec import RunSpec, execute_run

        spec = RunSpec(
            run_id="plain-run", axes=(("seed", "1"),), seed=1,
            preset="small_test", n_nodes=4,
            workload=(("mean_interarrival", 10.0), ("n_jobs", 6)),
            replay=(("time_compression", 4.0),))
        result = execute_run(spec)
        assert result.spans_jsonl == ""
        d = artifacts.write_run(tmp_path, spec, result)
        assert not (d / "spans.jsonl").exists()
