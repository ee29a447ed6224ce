"""CLI surface of the observability layer: trace / top / --perf."""

import json

import pytest

from repro.slurm.cli import main


def _synth(*extra):
    return ["--synth", "8", "--preset", "small_test", "--nodes", "4",
            "--compression", "4", *extra]


class TestTraceCommand:
    def test_exports_and_summary(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        spans = tmp_path / "spans.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        rc = main(["trace", *_synth("--out", str(out),
                                    "--spans", str(spans),
                                    "--metrics", str(metrics))])
        text = capsys.readouterr().out
        assert rc == 0
        assert "trace summary" in text
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert spans.read_text().splitlines()
        assert metrics.read_text().splitlines()

    def test_exported_bytes_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["trace", *_synth("--out", str(a))]) == 0
        assert main(["trace", *_synth("--out", str(b))]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_only_filters_categories(self, capsys):
        rc = main(["trace", *_synth("--only", "job,sched")])
        text = capsys.readouterr().out
        assert rc == 0
        assert "job" in text
        assert "rpc" not in text

    def test_unknown_category_rejected(self, capsys):
        assert main(["trace", *_synth("--only", "nope")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-slurm: unknown span category 'nope'")
        assert len(err.splitlines()) == 1


class TestTopCommand:
    def test_prints_hotspot_tables(self, capsys):
        rc = main(["top", *_synth()])
        text = capsys.readouterr().out
        assert rc == 0
        assert "busiest urds" in text
        assert "deepest queues" in text


class TestPerfFlags:
    def test_run_perf_renders_registry_table(self, tmp_path, capsys):
        script = tmp_path / "job.sbatch"
        script.write_text("#!/bin/bash\n"
                          "#SBATCH --job-name=hello\n"
                          "#SBATCH --nodes=2\n"
                          "#SBATCH --time=00:10\n")
        rc = main(["run", str(script), "--preset", "small_test",
                   "--perf"])
        text = capsys.readouterr().out
        assert rc == 0
        assert "event kernel" in text
        assert "kernel.events" in text

    def test_run_without_perf_has_no_kernel_table(self, tmp_path,
                                                  capsys):
        script = tmp_path / "job.sbatch"
        script.write_text("#SBATCH --job-name=x\n#SBATCH --nodes=1\n"
                          "#SBATCH --time=00:10\n")
        rc = main(["run", str(script), "--preset", "small_test"])
        text = capsys.readouterr().out
        assert rc == 0
        assert "event kernel" not in text

    def test_sweep_perf_and_obs_artifacts(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--axis", "policy=fifo,backfill",
                   "--jobs", "8", "--nodes", "4",
                   "--preset", "small_test", "--perf", "--obs",
                   "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "event kernel: policy=backfill" in text
        assert "event kernel: policy=fifo" in text
        for run_id in ("policy=fifo", "policy=backfill"):
            d = out / "runs" / run_id
            assert (d / "spans.jsonl").exists()
            assert (d / "obs_metrics.jsonl").exists()
