"""Unit tests: checkpoint store, epoch planning, pipeline DAG specs,
and the fan-in workflow plumbing they ride on."""

import pytest

from repro.errors import InvalidDependency, ReproError
from repro.slurm import JobSpec
from repro.slurm.job import Job
from repro.slurm.workflow import WorkflowManager
from repro.storage.filesystem import Namespace
from repro.workflows import (
    CheckpointStore, PipelineSpec, StageSpec, deep_chain, diamond,
    epoch_plan,
)
from tests.conftest import dependencies_of, downstream_of, has_artifacts


class TestEpochPlan:
    def test_no_interval_is_one_chunk(self):
        assert epoch_plan(100.0, 0.0) == [100.0]

    def test_interval_covering_duration_is_one_chunk(self):
        assert epoch_plan(100.0, 100.0) == [100.0]
        assert epoch_plan(100.0, 500.0) == [100.0]

    def test_chunks_sum_exactly(self):
        plan = epoch_plan(100.0, 30.0)
        assert plan == [30.0, 30.0, 30.0, 10.0]
        assert sum(plan) == 100.0

    def test_exact_multiple_has_no_sliver(self):
        assert epoch_plan(64.0, 16.0) == [16.0, 16.0, 16.0, 16.0]

    def test_zero_duration_is_empty(self):
        assert epoch_plan(0.0, 10.0) == []


class TestCheckpointStore:
    @pytest.fixture
    def store(self):
        return CheckpointStore(Namespace())

    def test_resume_counts_consecutive_markers(self, store):
        key = "pipe/stage"
        assert store.resume_epoch(key) == 0
        store.mark_epoch(key, 0)
        store.mark_epoch(key, 1)
        assert store.resume_epoch(key) == 2
        # A gap stops the scan: epoch 3's marker alone resumes nothing.
        store.mark_epoch(key, 3)
        assert store.resume_epoch(key) == 2

    def test_mark_complete_compacts_epochs(self, store):
        key = "pipe/stage"
        store.mark_epoch(key, 0)
        store.mark_epoch(key, 1)
        store.mark_complete(key, ("lustre:/pipe/stage/",))
        assert store.is_complete(key)
        assert store.manifest(key) == ("lustre:/pipe/stage/",)
        # Superseded epoch markers are gone.
        assert not store.ns.exists(store.epoch_marker(key, 0))
        assert not store.ns.exists(store.epoch_marker(key, 1))

    def test_completion_requires_marker_and_manifest(self, store):
        key = "pipe/stage"
        store.mark_complete(key)
        store.ns.unlink(store.manifest_path(key))
        assert not store.is_complete(key)

    def test_invalidate_latest_hits_newest_surviving(self, store):
        store.mark_epoch("p/a", 0)
        store.mark_epoch("p/b", 0)
        assert store.invalidate_latest() == "p/b"
        assert store.invalidate_latest() == "p/a"
        assert store.invalidate_latest() is None
        assert store.invalidated == 2

    def test_invalidate_reopens_completed_stage(self, store):
        store.mark_complete("p/a", ("x",))
        assert store.is_complete("p/a")
        assert store.invalidate_latest() == "p/a"
        assert not store.is_complete("p/a")

    def test_clear_partial_spares_completed_stages(self, store):
        store.mark_epoch("p/a", 0)
        store.mark_complete("p/b", ("x",))
        assert store.clear_partial("p/a") is True
        assert store.clear_partial("p/b") is False
        assert not has_artifacts(store, "p/a")
        assert store.is_complete("p/b")
        assert store.stages_cleaned == 1

    def test_execution_audit_counts(self, store):
        store.record_execution("p/a", 0)
        store.record_execution("p/a", 0)
        store.record_execution("p/a", 1)
        reexec = dict(store.rows())["epochs re-executed"]
        assert reexec == 1


class TestPipelineSpec:
    def test_topological_respects_deps(self):
        pipe = diamond()
        order = [s.name for s in pipe.topological()]
        for s in pipe.stages:
            for d in s.deps:
                assert order.index(d) < order.index(s.name)

    def test_cycle_detected(self):
        stages = (StageSpec("a", deps=("b",)), StageSpec("b", deps=("a",)))
        with pytest.raises(ReproError, match="cycle"):
            PipelineSpec("bad", stages).topological()

    def test_unknown_dep_rejected(self):
        with pytest.raises(ReproError):
            PipelineSpec("bad", (StageSpec("a", deps=("ghost",)),))

    def test_self_dep_rejected(self):
        with pytest.raises(ReproError):
            PipelineSpec("bad", (StageSpec("a", deps=("a",)),))

    def test_duplicate_stage_rejected(self):
        with pytest.raises(ReproError):
            PipelineSpec("bad", (StageSpec("a"), StageSpec("a")))

    def test_diamond_shape(self):
        pipe = diamond()
        assert pipe.n_stages == 6
        merge = pipe.stage("merge")
        assert set(merge.deps) == {"filter_a", "filter_b"}
        assert set(downstream_of(pipe, "merge")) == {"analyze", "publish"}

    def test_deep_chain_shape(self):
        pipe = deep_chain(5)
        names = [s.name for s in pipe.topological()]
        assert len(names) == 5
        for prev, cur in zip(names, names[1:]):
            assert pipe.stage(cur).deps == (prev,)
        with pytest.raises(ReproError):
            deep_chain(1)


def _job(job_id, **kw):
    return Job(job_id=job_id, spec=JobSpec(**kw), submit_time=0.0)


class TestWorkflowFanIn:
    def test_add_job_accepts_iterable_prior(self):
        wf_mgr = WorkflowManager()
        a = _job(1, workflow_start=True)
        wf = wf_mgr.place_job(a)
        b = _job(2)
        c = _job(3)
        wf.add_job(b, prior=1)
        wf.add_job(c, prior=[1, 2])
        assert dependencies_of(wf, 3) == frozenset({1, 2})
        assert [j.job_id for j in wf.producers_of(3)] == [1, 2]

    def test_readding_with_cycle_rejected(self):
        wf_mgr = WorkflowManager()
        wf = wf_mgr.place_job(_job(1, workflow_start=True))
        wf.add_job(_job(2), prior=1)
        with pytest.raises(InvalidDependency, match="cycle"):
            wf.add_job(_job(1), prior=2)

    def test_unknown_prior_rejected(self):
        wf_mgr = WorkflowManager()
        wf = wf_mgr.place_job(_job(1, workflow_start=True))
        with pytest.raises(InvalidDependency):
            wf.add_job(_job(2), prior=(1, 99))

    def test_manager_ids_are_per_instance(self):
        first = WorkflowManager().place_job(_job(1, workflow_start=True))
        second = WorkflowManager().place_job(_job(1, workflow_start=True))
        assert first.workflow_id == 1
        assert second.workflow_id == 1

    def test_place_job_fan_in_routes_to_owner(self):
        mgr = WorkflowManager()
        wf = mgr.place_job(_job(1, workflow_start=True))
        mgr.place_job(_job(2, workflow_prior_dependency=1))
        joined = mgr.place_job(_job(3, workflow_dependencies=(1, 2)))
        assert joined is wf
        assert dependencies_of(wf, 3) == frozenset({1, 2})

    def test_fan_in_across_workflows_rejected(self):
        mgr = WorkflowManager()
        mgr.place_job(_job(1, workflow_start=True))
        mgr.place_job(_job(2, workflow_start=True))
        with pytest.raises(InvalidDependency, match="span"):
            mgr.place_job(_job(3, workflow_dependencies=(1, 2)))

    def test_workflow_join_attaches_extra_root(self):
        mgr = WorkflowManager()
        wf = mgr.place_job(_job(1, workflow_start=True))
        joined = mgr.place_job(_job(2, workflow_join=1))
        assert joined is wf
        assert dependencies_of(wf, 2) == frozenset()
        with pytest.raises(InvalidDependency):
            mgr.place_job(_job(3, workflow_join=99))
