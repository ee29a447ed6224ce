"""Cross-subsystem integration tests: full workflows over the built
cluster, exercising every layer at once."""

import pytest

from repro.cluster import build, nextgenio, small_test
from repro.slurm import JobState, WorkflowStatus
from repro.slurm.job import JobSpec, PersistDirective, StageDirective
from repro.util import GB, MB
from tests.conftest import total_bytes_staged


BATCH_SCRIPT_PHASE1 = """#!/bin/bash
#SBATCH --job-name=phase1
#SBATCH --nodes=2
#SBATCH --time=01:00:00
#SBATCH --workflow-start
#NORNS stage_in lustre://proj/input/ nvme0://input/ replicate
#NORNS persist store nvme0://mid/ alice
srun ./phase1
"""

BATCH_SCRIPT_PHASE2 = """#!/bin/bash
#SBATCH --job-name=phase2
#SBATCH --nodes=2
#SBATCH --time=01:00:00
#SBATCH --workflow-prior-dependency={dep}
#SBATCH --workflow-end
#NORNS stage_out nvme0://out/ lustre://proj/results/ gather
#NORNS persist delete nvme0://mid/ alice
srun ./phase2
"""


def _gen(make_event):
    """Wrap a single-event program as a proper generator function."""

    def program(ctx):
        yield make_event(ctx)

    return program


class TestBatchScriptWorkflow:
    def test_two_phase_script_workflow_end_to_end(self):
        handle = build(small_test(n_nodes=4))
        sim = handle.sim
        # Seed the PFS with input data.
        sim.run(handle.pfs.write("cn0", "/proj/input/config.dat", 50 * MB,
                                 token="cfg"))

        def phase1(ctx):
            # Consumes the staged-in input, leaves intermediate data.
            yield ctx.read("nvme0://", "/input/config.dat")
            yield ctx.compute(5.0)
            yield ctx.write("nvme0://", f"/mid/part{ctx.rank}.dat",
                            100 * MB)

        def phase2(ctx):
            yield ctx.read("nvme0://", f"/mid/part{ctx.rank}.dat")
            yield ctx.compute(3.0)
            yield ctx.write("nvme0://", f"/out/result{ctx.rank}.dat",
                            80 * MB)

        ctld = handle.ctld
        j1 = ctld.submit_script(BATCH_SCRIPT_PHASE1, program=phase1)
        sim.run(j1.done)
        assert j1.state is JobState.COMPLETED, j1.reason

        j2 = ctld.submit_script(
            BATCH_SCRIPT_PHASE2.format(dep=j1.job_id), program=phase2)
        sim.run(j2.done)
        assert j2.state is JobState.COMPLETED, j2.reason

        # Data-aware placement: phase2 reused phase1's nodes so the
        # persisted /mid partitions were local.
        assert set(j2.allocated_nodes) == set(j1.allocated_nodes)
        # Results staged out to the PFS.
        assert handle.pfs.ns.exists("/proj/results/result0.dat")
        assert handle.pfs.ns.exists("/proj/results/result1.dat")
        # persist delete cleaned the intermediate data.
        for name in j1.allocated_nodes:
            assert handle.nodes[name].mounts["nvme0"].is_empty()
        status, _jobs = ctld.workflow_status(j1.workflow_id)
        assert status is WorkflowStatus.COMPLETED

    def test_workflow_failure_cascade_with_staging(self):
        handle = build(small_test(n_nodes=2))
        sim = handle.sim
        ctld = handle.ctld
        # Phase 1 stages in data that does not exist -> fails.
        j1 = ctld.submit(JobSpec(
            name="doomed", nodes=1, workflow_start=True,
            program=_gen(lambda ctx: ctx.compute(1)),
            stage_in=(StageDirective("stage_in", "lustre://missing/",
                                     "nvme0://in/", "single"),)))
        j2 = ctld.submit(JobSpec(
            name="orphan", nodes=1, workflow_prior_dependency=j1.job_id,
            workflow_end=True,
            program=_gen(lambda ctx: ctx.compute(1))))
        sim.run(j2.done)
        assert j1.state is JobState.FAILED
        assert j2.state is JobState.CANCELLED
        # Nodes back in the pool despite the failure.
        assert ctld.free_nodes == frozenset(handle.node_names)


class TestConcurrentWorkflows:
    def test_two_workflows_share_the_cluster(self):
        handle = build(small_test(n_nodes=4))
        sim = handle.sim
        ctld = handle.ctld

        def io_program(tag):
            def program(ctx):
                yield ctx.compute(2.0)
                yield ctx.write("nvme0://", f"/{tag}/r{ctx.rank}.dat",
                                500 * MB)
            return program

        jobs = []
        for tag in ("wf-a", "wf-b"):
            first = ctld.submit(JobSpec(
                name=f"{tag}-1", nodes=2, workflow_start=True,
                program=io_program(tag),
                stage_out=(StageDirective(
                    "stage_out", f"nvme0://{tag}/",
                    f"lustre://results/{tag}/", "gather"),)))
            second = ctld.submit(JobSpec(
                name=f"{tag}-2", nodes=2,
                workflow_prior_dependency=first.job_id, workflow_end=True,
                program=_gen(lambda ctx: ctx.compute(1.0))))
            jobs.extend([first, second])
        for j in jobs:
            sim.run(j.done)
            assert j.state is JobState.COMPLETED, (j.spec.name, j.reason)
        # Both workflows' results coexist on the PFS.
        assert handle.pfs.ns.file_count("/results/wf-a") == 2
        assert handle.pfs.ns.file_count("/results/wf-b") == 2

    def test_accounting_totals(self):
        handle = build(small_test(n_nodes=2))
        ctld = handle.ctld
        job = ctld.submit(JobSpec(
            name="counted", nodes=1,
            program=_gen(lambda ctx: ctx.write("nvme0://", "/o/x.dat",
                                               1 * GB)),
            stage_out=(StageDirective("stage_out", "nvme0://o/",
                                      "lustre://res/", "gather"),)))
        handle.sim.run(job.done)
        rec = ctld.accounting.get(job.job_id)
        assert rec.bytes_staged_out == 1 * GB
        assert rec.state == "completed"
        assert rec.wait_seconds is not None
        assert total_bytes_staged(ctld.accounting) == 1 * GB


class TestUserTasksInsideJobs:
    def test_step_program_uses_norns_api_under_validation(self):
        handle = build(small_test(n_nodes=2))
        from repro.norns import TaskStatus, TaskType
        from repro.norns.resources import memory_region, posix_path
        from repro.errors import NornsAccessDenied
        outcomes = {}

        def program(ctx):
            # Allowed dataspace -> succeeds.
            ok = ctx.norns.iotask_init(
                TaskType.COPY, memory_region(64 * MB),
                posix_path("tmp0://", "/ok.bin"))
            yield from ctx.norns.submit(ok)
            stats = yield from ctx.norns.wait(ok)
            outcomes["ok"] = stats.status
            # Dataspace outside the job's grant -> denied at submit.
            bad = ctx.norns.iotask_init(
                TaskType.COPY, memory_region(64),
                posix_path("nvme0://", "/no.bin"))
            try:
                yield from ctx.norns.submit(bad)
                outcomes["bad"] = "accepted"
            except NornsAccessDenied:
                outcomes["bad"] = "denied"

        job = handle.ctld.submit(JobSpec(
            name="api-user", nodes=1, program=program,
            dataspaces=("tmp0://", "lustre://")))  # no nvme0://
        handle.sim.run(job.done)
        assert job.state is JobState.COMPLETED, job.reason
        assert outcomes == {"ok": TaskStatus.FINISHED, "bad": "denied"}
