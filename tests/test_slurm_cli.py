"""Tests for the squeue/sacct/sworkflow/sinfo front ends + replay CLI."""

import pytest

from repro.slurm import JobSpec
from repro.slurm.cli import main, sacct, sinfo, squeue, sworkflow

from tests.conftest import build_slurm_cluster


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

    def test_malformed_batch_script(self, tmp_path, capsys):
        script = tmp_path / "job.sbatch"
        script.write_text("#SBATCH --nodes=abc\n")
        err = self.failing(["run", str(script), "--preset", "small_test"],
                           capsys)
        assert "bad --nodes value 'abc'" in err
