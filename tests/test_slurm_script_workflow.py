"""Tests for batch-script parsing and workflow semantics (no scheduler)."""

import gc

import pytest

from repro.errors import InvalidDependency, ScriptParseError
from repro.slurm import (
    Job, JobSpec, JobState, PersistDirective, StageDirective, Workflow,
    WorkflowManager, WorkflowStatus, parse_batch_script,
)
from repro.slurm.job import split_locator


class TestLocators:
    def test_split_locator(self):
        assert split_locator("nvme0://data/in.dat") == ("nvme0://", "/data/in.dat")
        assert split_locator("lustre://") == ("lustre://", "/")

    def test_bad_locator(self):
        with pytest.raises(ScriptParseError):
            split_locator("no-scheme")
        with pytest.raises(ScriptParseError):
            split_locator("://x")


class TestDirectives:
    def test_stage_directive_validation(self):
        d = StageDirective("stage_in", "lustre://in/", "nvme0://in/",
                           "replicate")
        assert d.mapping == "replicate"
        with pytest.raises(ScriptParseError):
            StageDirective("sideways", "a://", "b://")
        with pytest.raises(ScriptParseError):
            StageDirective("stage_in", "lustre://a", "nvme0://b",
                           "diagonal")

    def test_persist_directive_validation(self):
        PersistDirective("store", "nvme0://keep/")
        with pytest.raises(ScriptParseError):
            PersistDirective("hoard", "nvme0://keep/")
        with pytest.raises(ScriptParseError):
            PersistDirective("share", "nvme0://keep/")  # needs user
        PersistDirective("share", "nvme0://keep/", "bob")


SCRIPT = """#!/bin/bash
#SBATCH --job-name=solver
#SBATCH --nodes=16
#SBATCH --time=02:30:00
#SBATCH --workflow-prior-dependency=1001
#NORNS stage_in lustre://proj/mesh/ nvme0://mesh/ replicate
#NORNS stage_out nvme0://out/ lustre://proj/results/ gather
#NORNS persist store nvme0://mesh/ alice

srun ./picoFoam -parallel
"""


class TestScriptParsing:
    def test_full_script(self):
        spec = parse_batch_script(SCRIPT)
        assert spec.name == "solver"
        assert spec.nodes == 16
        assert spec.time_limit == 2.5 * 3600
        assert spec.workflow_prior_dependency == 1001
        assert len(spec.stage_in) == 1 and len(spec.stage_out) == 1
        assert spec.stage_in[0].mapping == "replicate"
        assert spec.persist[0].operation == "store"
        assert spec.persist[0].user == "alice"

    def test_workflow_flags(self):
        spec = parse_batch_script("#SBATCH --workflow-start\n")
        assert spec.workflow_start and spec.in_workflow
        spec = parse_batch_script(
            "#SBATCH --workflow-end\n"
            "#SBATCH --workflow-prior-dependency=5\n")
        assert spec.workflow_end and spec.workflow_prior_dependency == 5

    @pytest.mark.parametrize("text,seconds", [
        ("30", 1800.0),
        ("01:30", 5400.0),
        ("01:30:30", 5430.0),
        ("1-00:00", 86400.0),
        ("2-01:00:00", 2 * 86400 + 3600.0),
    ])
    def test_time_formats(self, text, seconds):
        spec = parse_batch_script(f"#SBATCH --time={text}\n")
        assert spec.time_limit == seconds

    def test_bad_time(self):
        with pytest.raises(ScriptParseError):
            parse_batch_script("#SBATCH --time=eleven\n")

    def test_bad_nodes(self):
        with pytest.raises(ScriptParseError):
            parse_batch_script("#SBATCH --nodes=many\n")

    def test_bad_norns_verb(self):
        with pytest.raises(ScriptParseError):
            parse_batch_script("#NORNS teleport a:// b://\n")

    def test_stage_in_missing_args(self):
        with pytest.raises(ScriptParseError):
            parse_batch_script("#NORNS stage_in lustre://only\n")

    def test_default_mappings(self):
        spec = parse_batch_script(
            "#NORNS stage_in lustre://a/ nvme0://a/\n"
            "#NORNS stage_out nvme0://b/ lustre://b/\n")
        assert spec.stage_in[0].mapping == "scatter"
        assert spec.stage_out[0].mapping == "gather"

    def test_shell_body_ignored(self):
        spec = parse_batch_script("#!/bin/sh\nmpirun ./app --nodes=9\n")
        assert spec.nodes == 1

    def test_unknown_sbatch_options_ignored(self):
        spec = parse_batch_script("#SBATCH --exclusive --mem=64G\n")
        assert spec.nodes == 1


def make_job(name="j", **kw):
    return Job(JobSpec(name=name, **kw), submit_time=0.0)


class TestWorkflow:
    def test_place_jobs_and_status(self):
        wm = WorkflowManager()
        a = make_job("a", workflow_start=True)
        wf = wm.place_job(a)
        assert wf is not None and a.workflow_id == wf.workflow_id
        b = make_job("b", workflow_prior_dependency=a.job_id)
        wm.place_job(b)
        assert wf.job_status_list() == [
            (a.job_id, "a", "pending"), (b.job_id, "b", "pending")]
        assert wf.status is WorkflowStatus.RUNNING

    def test_non_workflow_job_unplaced(self):
        wm = WorkflowManager()
        assert wm.place_job(make_job("solo")) is None

    def test_dependency_on_unknown_job(self):
        wm = WorkflowManager()
        with pytest.raises(InvalidDependency):
            wm.place_job(make_job("b", workflow_prior_dependency=424242))

    def test_workflow_end_requires_dependency(self):
        wm = WorkflowManager()
        with pytest.raises(InvalidDependency):
            wm.place_job(make_job("z", workflow_end=True))

    def test_runnability_follows_dependencies(self):
        wm = WorkflowManager()
        a = make_job("a", workflow_start=True)
        wf = wm.place_job(a)
        b = make_job("b", workflow_prior_dependency=a.job_id)
        wm.place_job(b)
        assert wf.is_runnable(a.job_id)
        assert not wf.is_runnable(b.job_id)
        a.set_state(JobState.COMPLETED)
        assert wf.is_runnable(b.job_id)

    def test_readding_a_job_behind_its_dependent_is_a_cycle(self):
        """The one way the acyclicity check is reachable: prerequisites
        must already be members, so only re-adding a member can close a
        loop."""
        a, b, c = make_job("a"), make_job("b"), make_job("c")
        wf = Workflow(a, workflow_id=1)
        wf.add_job(b, prior=a.job_id)
        wf.add_job(c, prior=[a.job_id, b.job_id])      # a diamond is fine
        again = Job(JobSpec(name="a2"), submit_time=0.0, job_id=a.job_id)
        with pytest.raises(InvalidDependency, match="dependency cycle"):
            wf.add_job(again, prior=c.job_id)

    def test_long_chain_builds_without_feeding_the_collector(
            self, no_collector):
        """500 ``add_job`` calls: no recursion (a chain this long is
        half the default recursion limit) and no reference cycle left
        behind per call."""
        jobs = [make_job(f"j{i}") for i in range(500)]
        wf = Workflow(jobs[0], workflow_id=1)
        for prev, job in zip(jobs, jobs[1:]):
            wf.add_job(job, prior=prev.job_id)
        assert gc.collect() == 0
        assert len(wf.jobs) == 500
        assert [j.job_id for j in wf.dependents_of(jobs[0].job_id)] \
            == [j.job_id for j in jobs[1:]]

    def test_failure_cancels_dependents_transitively(self):
        wm = WorkflowManager()
        a = make_job("a", workflow_start=True)
        wf = wm.place_job(a)
        b = make_job("b", workflow_prior_dependency=a.job_id)
        wm.place_job(b)
        c = make_job("c", workflow_prior_dependency=b.job_id,
                     workflow_end=True)
        wm.place_job(c)
        a.set_state(JobState.FAILED)
        cancelled = wf.cancel_dependents(a.job_id)
        assert {j.spec.name for j in cancelled} == {"b", "c"}
        assert wf.status is WorkflowStatus.FAILED

    def test_completed_workflow_status(self):
        wm = WorkflowManager()
        a = make_job("a", workflow_start=True)
        wf = wm.place_job(a)
        b = make_job("b", workflow_prior_dependency=a.job_id,
                     workflow_end=True)
        wm.place_job(b)
        a.set_state(JobState.COMPLETED)
        b.set_state(JobState.COMPLETED)
        assert wf.status is WorkflowStatus.COMPLETED

    def test_producers_of(self):
        wm = WorkflowManager()
        a = make_job("a", workflow_start=True)
        wf = wm.place_job(a)
        b = make_job("b", workflow_prior_dependency=a.job_id)
        wm.place_job(b)
        assert wf.producers_of(b.job_id) == [a]
        assert wf.producers_of(a.job_id) == []
