"""Tests for the squeue/sacct/sworkflow/sinfo front ends + replay CLI."""

import pathlib

import pytest

from repro.slurm import JobSpec
from repro.slurm.cli import main, sacct, sinfo, squeue, sworkflow

from tests.conftest import build_slurm_cluster, stage_in_through_urd_restart

DATA = pathlib.Path(__file__).resolve().parent / "data"


def compute(seconds):
    def program(ctx):
        yield ctx.compute(seconds)
    return program


@pytest.fixture
def busy_cluster():
    c, ctld = build_slurm_cluster(2)
    a = ctld.submit(JobSpec(name="alpha", nodes=2, workflow_start=True,
                            program=compute(30)))
    b = ctld.submit(JobSpec(name="beta", nodes=1,
                            workflow_prior_dependency=a.job_id,
                            workflow_end=True, program=compute(5)))
    c.sim.run(until=1.0)
    return c, ctld, a, b


class TestCli:
    def test_squeue_shows_active_jobs(self, busy_cluster):
        c, ctld, a, b = busy_cluster
        out = squeue(ctld)
        assert "alpha" in out and "running" in out
        assert "beta" in out and "pending" in out
        assert str(a.workflow_id) in out

    def test_squeue_hides_terminal_jobs(self, busy_cluster):
        c, ctld, a, b = busy_cluster
        c.sim.run(b.done)
        out = squeue(ctld)
        assert "alpha" not in out and "beta" not in out

    def test_sacct_reports_phases(self, busy_cluster):
        c, ctld, a, b = busy_cluster
        c.sim.run(b.done)
        out = sacct(ctld)
        assert "alpha" in out and "completed" in out
        single = sacct(ctld, job_id=a.job_id)
        assert "alpha" in single and "beta" not in single

    def test_sworkflow_status(self, busy_cluster):
        c, ctld, a, b = busy_cluster
        out = sworkflow(ctld, a.workflow_id)
        assert f"workflow {a.workflow_id}" in out
        assert "alpha" in out and "beta" in out
        c.sim.run(b.done)
        assert "completed" in sworkflow(ctld, a.workflow_id)

    def test_sinfo_states(self, busy_cluster):
        c, ctld, a, b = busy_cluster
        out = sinfo(ctld)
        assert out.count("alloc") == 2  # alpha holds both nodes
        c.sim.run(b.done)
        assert sinfo(ctld).count("idle") == 2


class TestReplayCommand:
    def test_replay_synth_prints_report(self, capsys):
        rc = main(["replay", "--synth", "12", "--preset", "small_test",
                   "--interarrival", "5", "--compression", "4",
                   "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace replay" in out and "outcomes" in out
        assert "completed" in out

    def test_replay_trace_file_roundtrip(self, tmp_path, capsys):
        from repro.traces import SynthesisConfig, dump_jsonl, synthesize
        path = str(tmp_path / "t.jsonl")
        dump_jsonl(synthesize(SynthesisConfig(
            n_jobs=8, staged_fraction=0.0, mean_interarrival=5.0,
            mean_runtime=30.0, max_nodes=2), seed=1), path)
        rc = main(["replay", "--trace", path, "--preset", "small_test",
                   "--compression", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "JOBS" in out

    def test_replay_save_trace(self, tmp_path, capsys):
        saved = str(tmp_path / "out.swf")
        rc = main(["replay", "--synth", "5", "--preset", "small_test",
                   "--interarrival", "2", "--save-trace", saved])
        assert rc == 0
        from repro.traces import load_swf
        assert load_swf(saved).n_jobs == 5
        capsys.readouterr()

    def test_replay_with_scheduler_flag(self, capsys):
        rc = main(["replay", "--synth", "8", "--preset", "small_test",
                   "--interarrival", "5", "--compression", "4",
                   "--scheduler", "fifo"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "POLICY" in out and "fifo" in out


class TestPoliciesCommand:
    def test_lists_all_registered_policies(self, capsys):
        rc = main(["policies"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("fifo", "backfill", "conservative", "staging-aware"):
            assert name in out


class TestRunCommand:
    def test_runs_batch_scripts_and_prints_accounting(self, tmp_path,
                                                      capsys):
        script = tmp_path / "job.sbatch"
        script.write_text("#!/bin/bash\n"
                          "#SBATCH --job-name=hello\n"
                          "#SBATCH --nodes=2\n"
                          "#SBATCH --time=00:10\n")
        rc = main(["run", str(script), "--preset", "small_test",
                   "--scheduler", "conservative"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hello" in out and "completed" in out

    def test_workflow_scripts_run_in_dependency_order(self, tmp_path,
                                                      capsys):
        first = tmp_path / "first.sbatch"
        first.write_text("#SBATCH --job-name=phase1\n"
                         "#SBATCH --workflow-start\n")
        rc = main(["run", str(first), "--preset", "small_test"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "phase1" in out


#: Batch scripts for the pinned ``run`` outputs: a full-width job, a
#: one-node job and a two-job workflow, two of them with stage-out.
SCRIPTS = {
    "a.sbatch": "#SBATCH --job-name=wide\n#SBATCH --nodes=4\n"
                "#SBATCH --time=00:30:00\n"
                "#NORNS stage_out nvme0://out/ lustre://res/wide/ gather\n",
    "b.sbatch": "#SBATCH --job-name=small\n#SBATCH --nodes=1\n"
                "#SBATCH --time=00:05:00\n",
    "c.sbatch": "#SBATCH --job-name=pipe0\n#SBATCH --nodes=2\n"
                "#SBATCH --workflow-start\n"
                "#NORNS stage_out nvme0://o/ lustre://res/p/ gather\n",
    "d.sbatch": "#SBATCH --job-name=pipe1\n#SBATCH --nodes=2\n"
                "#SBATCH --workflow-prior-dependency=1002\n"
                "#SBATCH --workflow-end\n",
}

#: A crash, a drain and a daemon restart while the scripts above run.
PLAN = (
    '{"t": 0.00001, "kind": "node_crash", "node": "cn3", "duration": 5.0}\n'
    '{"t": 0.00002, "kind": "node_drain", "node": "cn1", "duration": 10.0}\n'
    '{"t": 0.00003, "kind": "urd_restart", "node": "cn0", "duration": 2.0}\n')


class TestPinnedOutput:
    """The stdout of ``run`` and ``workflows``, byte for byte: the
    scheduling policy and the fault plan reach the cluster the same
    way whichever command sets them up."""

    def scripts(self, tmp_path):
        for name, text in SCRIPTS.items():
            (tmp_path / name).write_text(text)
        return [str(tmp_path / name) for name in sorted(SCRIPTS)]

    def pinned(self, argv, golden, capsys):
        rc = main(argv)
        assert capsys.readouterr().out == (DATA / golden).read_text()
        return rc

    def test_run_with_scheduler(self, tmp_path, capsys):
        argv = ["run", *self.scripts(tmp_path), "--preset", "small_test",
                "--scheduler", "fifo"]
        assert self.pinned(argv, "cli_run_fifo.txt", capsys) == 0

    def test_run_with_fault_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.jsonl"
        plan.write_text(PLAN)
        argv = ["run", *self.scripts(tmp_path), "--preset", "small_test",
                "--faults", str(plan)]
        assert self.pinned(argv, "cli_run_faults.txt", capsys) == 0

    def test_workflows_with_fault_profile(self, capsys):
        argv = ["workflows", "--pipeline", "diamond",
                "--fault-profile", "chaos", "--seed", "0"]
        assert self.pinned(argv, "cli_workflows_chaos.txt", capsys) == 0

    def test_workflows_with_empty_plan_prints_no_resilience(self, capsys):
        # A plan with no records changes nothing, as for replay: no
        # requeue-on-failure, no resilience table.
        rc = main(["workflows", "--preset", "small_test",
                   "--fault-profile", "none"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resilience" not in out
        assert out.startswith("pipeline run\n")


class TestStagingRequeue:
    """Under an armed plan a stage-in that no retry can mend fails its
    job at once; one lost to a daemon restart is still requeued."""

    def test_missing_source_fails_without_requeue(self):
        from repro.cluster import build, small_test
        from repro.faults import arm_plan, parse_plan
        handle = build(small_test(), seed=0)
        arm_plan(handle, parse_plan(PLAN))
        scripts = [SCRIPTS[name] for name in sorted(SCRIPTS)]
        # pipe0 never writes nvme0://o/, so lustre://res/p/ is absent.
        scripts[-1] += "#NORNS stage_in lustre://res/p/ nvme0://i/ " \
                       "replicate\n"
        jobs = [handle.ctld.submit_script(text) for text in scripts]
        handle.sim.run(handle.ctld.drain())
        pipe1 = jobs[-1]
        rec = handle.ctld.accounting.get(pipe1.job_id)
        assert pipe1.state.value == "failed"
        assert "no such file or directory" in pipe1.reason
        assert pipe1.requeues == rec.requeues == 0
        assert len(rec.warnings) == 1

    def test_stage_in_lost_to_urd_restart_requeues(self):
        handle, job = stage_in_through_urd_restart()
        rec = handle.ctld.accounting.get(job.job_id)
        assert job.state.value == "completed"
        assert job.requeues == rec.requeues == 1
        assert rec.warnings[0].startswith("stage_in failed: ")


class TestErrorBoundary:
    """Bad input ends in ``repro-slurm: <message>`` on stderr and exit
    status 2 — never a traceback (ROADMAP F2)."""

    REPLAY = ["replay", "--preset", "small_test"]

    def failing(self, argv, capsys):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("repro-slurm: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        return captured.err

    def test_meta_line_that_is_not_an_object(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"meta": 1}\n')
        err = self.failing(self.REPLAY + ["--trace", str(trace)], capsys)
        assert "line 1" in err and "meta" in err

    @pytest.mark.parametrize("option", ["--trace", "--faults"])
    def test_missing_file(self, option, tmp_path, capsys):
        argv = self.REPLAY + [option, str(tmp_path / "absent.jsonl")]
        if option == "--faults":
            argv += ["--synth", "3"]
        assert "absent.jsonl" in self.failing(argv, capsys)

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(b"\xff\xfe\x00{")
        assert "utf-8" in self.failing(
            self.REPLAY + ["--trace", str(trace)], capsys)

    def test_malformed_swf_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.swf"
        trace.write_text("; comment\n; another\n1 2\n")
        err = self.failing(self.REPLAY + ["--trace", str(trace)], capsys)
        assert "line 3" in err and "SWF needs 18" in err

    def test_malformed_fault_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.jsonl"
        plan.write_text('{"kind": "node_crash"}\n')
        err = self.failing(
            self.REPLAY + ["--synth", "3", "--faults", str(plan)], capsys)
        assert "line 1" in err and "'t'" in err

    SWF_TAIL = " 0 3 60 1 -1 -1 1 120 -1 1 3 -1 -1 -1 -1 -1 -1\n"

    @pytest.mark.parametrize("name, text, key", [
        ("t.swf", "nan" + SWF_TAIL, "job_id"),
        ("t.swf", "inf" + SWF_TAIL, "job_id"),
        ("t.jsonl", '{"meta": {"comments": 5}}\n', "'comments'"),
        ("t.jsonl", '{"fault": 5}\n', "'fault'"),
        ("t.jsonl", '{"id": 1, "submit": "nan"}\n', "'submit'"),
        ("t.jsonl", '{"id": 1, "submit": 1e400}\n', "'submit'"),
        ("t.jsonl", '{"id": 1.7, "submit": 0}\n', "'id'"),
        ("t.jsonl", '{"id": 1, "submit": 0, "persist": "no"}\n',
         "'persist'"),
    ])
    def test_malformed_trace_value(self, name, text, key, tmp_path,
                                   capsys):
        trace = tmp_path / name
        trace.write_text(text)
        err = self.failing(self.REPLAY + ["--trace", str(trace)], capsys)
        assert "line 1" in err and key in err

    @pytest.mark.parametrize("text, key", [
        ('{"meta": 5}\n', "'meta'"),
        ('{"meta": {"comments": 5}}\n', "'comments'"),
        ('{"t": 1, "kind": "node_crash", "node": "cn0", '
         '"duration": "nan"}\n', "'duration'"),
        ('{"t": 1, "kind": "urd_restart", "node": 7}\n', "'node'"),
    ])
    def test_malformed_plan_value(self, text, key, tmp_path, capsys):
        plan = tmp_path / "plan.jsonl"
        plan.write_text(text)
        err = self.failing(["faults", "--show", str(plan)], capsys)
        assert "line 1" in err and key in err

    SYNTH = REPLAY + ["--synth", "10"]

    @pytest.mark.parametrize("argv, name", [
        # zero compression once divided for the fault horizon
        (SYNTH + ["--compression", "0"], "time_compression"),
        (SYNTH + ["--compression", "nan"], "time_compression"),
        (SYNTH + ["--compression", "inf"], "time_compression"),
        (SYNTH + ["--stage-bytes", "0"], "stage-bytes"),
        (SYNTH + ["--stage-bytes", "-1"], "stage-bytes"),
        (SYNTH + ["--stage-bytes", "nan"], "stage-bytes"),
        (SYNTH + ["--interarrival", "nan"], "interarrival"),
        (SYNTH + ["--interarrival", "inf"], "interarrival"),
        (SYNTH + ["--batch-window", "nan"], "batch_window"),
        (SYNTH + ["--runtime-scale", "nan"], "runtime_scale"),
        (SYNTH + ["--checkpoint-interval", "nan"], "checkpoint"),
        (["faults", "--emit", "chaos", "--horizon", "nan"], "horizon"),
        (["faults", "--emit", "chaos", "--horizon", "inf"], "horizon"),
        (["workflows", "--runtime", "nan"], "runtime"),
        (["workflows", "--checkpoint-interval", "nan"], "checkpoint"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_bad_numeric_option(self, argv, name, capsys):
        """Zero, negative and non-finite numbers are rejected before
        anything runs, by the config that owns the value."""
        assert name in self.failing(argv, capsys)

    def test_bad_sbatch_priority(self, tmp_path, capsys):
        script = tmp_path / "job.sbatch"
        script.write_text("#SBATCH --nodes=1\n#SBATCH --priority=abc\n")
        err = self.failing(["run", str(script), "--preset", "small_test"],
                           capsys)
        assert "line 2: bad --priority value 'abc'" in err

    @pytest.mark.parametrize("nodes", ["0", "-3"])
    def test_sbatch_nodes_below_one(self, nodes, tmp_path, capsys):
        script = tmp_path / "job.sbatch"
        script.write_text(f"#SBATCH --job-name=x\n#SBATCH --nodes={nodes}\n")
        err = self.failing(["run", str(script), "--preset", "small_test"],
                           capsys)
        assert "line 2: a job needs at least one node" in err

    def test_malformed_batch_script(self, tmp_path, capsys):
        script = tmp_path / "job.sbatch"
        script.write_text("#SBATCH --nodes=abc\n")
        err = self.failing(["run", str(script), "--preset", "small_test"],
                           capsys)
        assert "bad --nodes value 'abc'" in err
