"""The sweep fleet: seeding, expansion, execution, artifacts, CLI.

The contract under test is byte-reproducibility: a fixed matrix + seed
produces the identical merged :class:`FleetReport` — and identical
per-run replay reports — whether the shards execute serially, over a
process pool, over a pool in shuffled submission order, or resumed
from a half-finished artifact directory.  Worker crashes mid-sweep
must retry and converge to the same bytes; the crash is injected from
the test by patching ``runspec.execute_run`` before the fork-started
pool exists, so every worker inherits it.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import random

import pytest

from repro.errors import ReproError
from repro.experiments.fleet import (
    FleetError, FleetReport, RunSpec, SweepMatrix, artifacts, child_seed, execute_run,
    measured_run, parse_axis, run_sweep, runspec,
)
from repro.slurm.cli import main as cli_main

#: small enough that the whole module stays in tier-1 budget; the
#: pool tests re-execute it a few times.
TINY = dict(n_jobs=16, arrival="poisson", mean_interarrival=10.0,
            max_nodes=2, mean_runtime=120.0, staged_fraction=0.25,
            stage_bytes_mean=1e9, stage_files=1)


def tiny_matrix(**kw):
    base = dict(sweep_seed=5, name="t", preset="small_test", n_nodes=4,
                workload=TINY)
    base.update(kw)
    axes = base.pop("axes", {"policy": ["fifo", "backfill"],
                             "fault_profile": ["none", "chaos"]})
    return SweepMatrix.from_axes(axes, **base)


class ShuffledMatrix(SweepMatrix):
    """The same runs, submitted in a seeded random order."""

    def expand(self):
        specs = super().expand()
        random.Random(3).shuffle(specs)
        return specs


def shuffled(matrix):
    return ShuffledMatrix(**{f.name: getattr(matrix, f.name)
                             for f in dataclasses.fields(matrix)})


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the injected crash reaches pool workers only when they fork")


def crash_worker(monkeypatch, run_id, once=None):
    """Make the pool worker that runs ``run_id`` die hard.

    Patches ``runspec.execute_run``; call it before the pool is
    created.  With ``once`` (a path), only the attempt that finds no
    file there dies, and it leaves the file behind.
    """
    real = runspec.execute_run

    def execute_run(spec):
        if spec.run_id == run_id and (once is None or not once.exists()):
            if once is not None:
                once.write_text("crashed\n")
            os._exit(13)
        return real(spec)

    monkeypatch.setattr(runspec, "execute_run", execute_run)


class TestChildSeed:
    def test_empty_axes_is_identity(self):
        assert child_seed(42, {}) == 42

    def test_deterministic(self):
        assert child_seed(7, {"seed": 3}) == child_seed(7, {"seed": 3})

    def test_item_order_irrelevant(self):
        a = {"seed": 3, "rep": 1}
        b = {"rep": 1, "seed": 3}
        assert child_seed(0, a) == child_seed(0, b)

    def test_values_and_sweep_seed_perturb(self):
        s = child_seed(0, {"seed": 3})
        assert s != child_seed(0, {"seed": 4})
        assert s != child_seed(1, {"seed": 3})

    def test_independent_of_other_runs(self):
        # The derivation sees only the run's own seed-axis values, so
        # subsetting or growing the matrix never moves a run's seed.
        big = tiny_matrix(axes={"seed": [1, 2, 3, 4]})
        small = tiny_matrix(axes={"seed": [3]})
        by_id = {s.run_id: s.seed for s in big.expand()}
        (only,) = small.expand()
        assert by_id[only.run_id] == only.seed


class TestMatrix:
    def test_expansion_is_cartesian_and_unique(self):
        m = tiny_matrix()
        specs = m.expand()
        assert len(specs) == m.n_runs == 4
        assert len({s.run_id for s in specs}) == 4

    def test_config_axes_share_one_seed(self):
        # policy/fault_profile are A/B arms: identical workload seed.
        seeds = {s.seed for s in tiny_matrix().expand()}
        assert seeds == {5}

    def test_seed_axis_perturbs(self):
        m = tiny_matrix(axes={"policy": ["fifo"], "seed": [1, 2]})
        s1, s2 = m.expand()
        assert s1.seed != s2.seed

    def test_prefixed_override_axes(self):
        m = tiny_matrix(axes={"workload.n_jobs": [8, 12],
                              "spec.urd_workers": [2]})
        specs = m.expand()
        assert [dict(s.workload)["n_jobs"] for s in specs] == [8, 12]
        assert dict(specs[0].spec_overrides)["urd_workers"] == 2

    def test_unknown_axis_rejected(self):
        with pytest.raises(ReproError):
            tiny_matrix(axes={"bogus": [1]})
        with pytest.raises(ReproError):
            tiny_matrix(axes={"policy": []})

    def test_parse_axis_coercion(self):
        name, values = parse_axis("nodes=4,8.5,fifo")
        assert name == "nodes"
        assert values == (4, 8.5, "fifo")
        with pytest.raises(ReproError):
            parse_axis("nodes")
        with pytest.raises(ReproError):
            parse_axis("nodes=")

    def test_describe_echoes_matrix(self):
        d = tiny_matrix().describe()
        assert d["n_runs"] == 4
        assert d["seed_axes"] == ["seed"]
        assert json.loads(json.dumps(d)) == d

    def test_runspec_round_trips_through_json(self):
        spec = tiny_matrix().expand()[0]
        assert RunSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec


class TestExecuteRun:
    def test_pure_function_of_spec(self, tmp_path, monkeypatch):
        spec = tiny_matrix().expand()[0]
        first = execute_run(spec)
        monkeypatch.chdir(tmp_path)    # cwd must not leak into a run
        second = execute_run(spec)
        assert first.report_text == second.report_text
        assert first.metrics == second.metrics
        assert first.job_metrics == second.job_metrics

    def test_fault_arm_reports_resilience_metrics(self):
        # "off" disarms the injector entirely; "chaos" fires faults.
        specs = tiny_matrix(axes={"policy": ["fifo"],
                                  "fault_profile": ["off", "chaos"]}
                            ).expand()
        clean = execute_run([s for s in specs
                             if s.fault_profile == ""][0])
        chaos = execute_run([s for s in specs
                             if s.fault_profile == "chaos"][0])
        assert "faults_injected" not in clean.metrics
        assert chaos.metrics["faults_injected"] > 0
        assert "fault_mix" in chaos.info

    def test_measured_run_attaches_runstats(self):
        res = measured_run(tiny_matrix().expand()[0])
        assert res.runstats["wall_seconds"] >= 0.0
        assert res.runstats["peak_rss_bytes"] > 0


class TestDispatchers:
    def test_pool_matches_serial_even_shuffled(self, tmp_path):
        m = tiny_matrix()
        serial = run_sweep(m)
        pool = run_sweep(m, workers=2)
        assert [s.run_id for s in shuffled(m).expand()] \
            != [s.run_id for s in m.expand()]
        mixed = run_sweep(shuffled(m), workers=2, out_dir=tmp_path)
        assert pool.to_text() == serial.to_text()
        assert mixed.to_text() == serial.to_text()
        by_id = {r.run_id: r for r in serial.results}
        for res in pool.results + mixed.results:
            assert res.report_text == by_id[res.run_id].report_text
            assert res.metrics == by_id[res.run_id].metrics
        assert {r.runstats["dispatcher"] for r in serial.results} \
            == {"serial"}
        assert {r.runstats["dispatcher"] for r in pool.results} \
            == {"process-pool"}
        # Each shard is written under its own spec, whatever order the
        # shuffled submissions landed in.
        for spec in m.expand():
            d = tmp_path / "runs" / spec.run_id
            assert RunSpec.from_dict(json.loads(
                (d / "config.json").read_text())) == spec
            assert json.loads((d / "result.json").read_text())[
                "run_id"] == spec.run_id

    @fork_only
    def test_worker_crash_retries_to_same_bytes(self, tmp_path,
                                                monkeypatch):
        m = tiny_matrix(axes={"policy": ["fifo", "backfill"]})
        victim = m.expand()[0].run_id
        serial = run_sweep(m)
        once = tmp_path / "crashed"
        crash_worker(monkeypatch, victim, once=once)
        pool = run_sweep(m, workers=2)
        assert pool.to_text() == serial.to_text()
        assert pool.run(victim).runstats["attempts"] >= 2
        assert once.exists()

    @fork_only
    def test_crash_budget_exhaustion_raises(self, monkeypatch):
        m = tiny_matrix(axes={"policy": ["fifo"]})
        (spec,) = m.expand()
        crash_worker(monkeypatch, spec.run_id)
        with pytest.raises(FleetError, match="crashed"):
            run_sweep(m, workers=2, retries=1)

    def test_overrunning_shard_times_out(self):
        m = tiny_matrix(axes={"policy": ["fifo"]})
        with pytest.raises(FleetError, match="timed out"):
            run_sweep(m, workers=2, timeout=0.001, retries=0)


class TestRunnerArtifacts:
    def test_artifact_layout_and_fleet_summary(self, tmp_path):
        m = tiny_matrix(axes={"policy": ["fifo", "backfill"]})
        report = run_sweep(m, out_dir=tmp_path)
        for spec in m.expand():
            d = tmp_path / "runs" / spec.run_id
            for name in ("config.json", "result.json", "metrics.jsonl",
                         "report.txt", "runstats.json", "COMPLETE"):
                assert (d / name).exists(), name
            cfg = json.loads((d / "config.json").read_text())
            assert RunSpec.from_dict(cfg) == spec
            lines = (d / "metrics.jsonl").read_text().splitlines()
            assert len(lines) == TINY["n_jobs"]
            stats = json.loads((d / "runstats.json").read_text())
            assert stats["dispatcher"] == "serial"
            assert stats["attempts"] == 1
        assert (tmp_path / "fleet_report.txt").read_text() \
            == report.to_text()
        fleet = json.loads((tmp_path / "fleet.json").read_text())
        assert fleet["matrix"]["n_runs"] == 2
        assert fleet["dispatcher"] == "serial"
        assert artifacts.completed_runs(tmp_path) \
            == sorted(s.run_id for s in m.expand())

    def test_resume_skips_complete_and_refills_gaps(self, tmp_path):
        import shutil
        m = tiny_matrix(axes={"policy": ["fifo", "backfill"]})
        baseline = run_sweep(m, out_dir=tmp_path)
        victim = m.expand()[0].run_id
        shutil.rmtree(tmp_path / "runs" / victim)

        resumed_report = run_sweep(m, out_dir=tmp_path, resume=True)
        resumed = [r.run_id for r in resumed_report.results
                   if r.runstats.get("loaded_from_artifact")]
        assert sorted(resumed) == sorted(s.run_id for s in m.expand()[1:])
        assert resumed_report.to_text() == baseline.to_text()
        assert artifacts.is_complete(tmp_path, victim)

        # Loaded results are flagged so runstats provenance is honest.
        loaded = artifacts.load_run(tmp_path, victim)
        assert loaded.runstats["loaded_from_artifact"]

    def test_half_written_dir_is_not_resumable(self, tmp_path):
        m = tiny_matrix(axes={"policy": ["fifo"]})
        (spec,) = m.expand()
        d = tmp_path / "runs" / spec.run_id
        d.mkdir(parents=True)
        (d / "result.json").write_text("{}")   # no COMPLETE marker
        assert not artifacts.is_complete(tmp_path, spec.run_id)
        with pytest.raises(ReproError):
            artifacts.load_run(tmp_path, spec.run_id)

    def test_write_experiment_run_layout(self, tmp_path):
        d = artifacts.write_experiment_run(
            tmp_path, "expX", config={"quick": True},
            metrics={"m": 1.0}, report_text="report\n",
            runstats={"wall_seconds": 0.1}, info={"title": "t"})
        assert (d / "COMPLETE").exists()
        payload = json.loads((d / "result.json").read_text())
        assert payload["metrics"] == {"m": 1.0}
        assert "expX" in artifacts.completed_runs(tmp_path)


class TestReport:
    def test_merge_rejects_duplicates(self):
        m = tiny_matrix(axes={"policy": ["fifo"]})
        res = run_sweep(m).results
        with pytest.raises(ReproError):
            FleetReport.merge(res + res, name=m.name,
                              sweep_seed=m.sweep_seed,
                              axis_names=m.axis_names)

    def test_text_is_free_of_wall_clock(self):
        m = tiny_matrix(axes={"policy": ["fifo"]})
        text = run_sweep(m).to_text()
        assert "wall" not in text and "rss" not in text.lower()

    def test_rows_sorted_numerically_not_lexically(self):
        m = tiny_matrix(axes={"nodes": [2, 10, 4]},
                        workload=dict(TINY, n_jobs=6))
        report = run_sweep(m)
        order = [dict(r.axes)["nodes"] for r in report.results]
        assert order == ["2", "4", "10"]


class TestSweepCli:
    def test_sweep_end_to_end_with_resume(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", "--axis", "policy=fifo,backfill",
                "--preset", "small_test", "--nodes", "4",
                "--jobs", "12", "--out", str(out)]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert "policy" in first and "fifo" in first
        assert (out / "fleet_report.txt").exists()

        assert cli_main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed 2 completed run(s)" in second
        assert first.splitlines()[-2] in second  # same merged table

    def test_sweep_requires_axis(self, capsys):
        assert cli_main(["sweep"]) == 2
        err = capsys.readouterr().err
        assert err == "repro-slurm: sweep needs at least one --axis\n"

    def test_sweep_rejects_bad_axis(self, capsys):
        assert cli_main(["sweep", "--axis", "bogus=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-slurm: sweep failed: ")
        assert "bogus" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, text", [
        (["--axis", "policy=fifo", "--axis", "policy=backfill"],
         "duplicate --axis 'policy'"),
        (["--axis", "policy=fifo", "--workload", "nope"],
         "unknown --workload 'nope'"),
        # A cluster spec carries neither a policy nor a fault plan: the
        # policy and fault_profile axes choose them.
        (["--axis", "spec.fault_profile=chaos,none",
          "--preset", "small_test", "--nodes", "4", "--jobs", "12"],
         "sweep failed: bad spec override: "),
        (["--axis", "spec.scheduler_policy=fifo,backfill",
          "--preset", "small_test", "--nodes", "4", "--jobs", "12"],
         "sweep failed: bad spec override: "),
    ])
    def test_sweep_option_errors_are_one_line(self, capsys, argv, text):
        assert cli_main(["sweep", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro-slurm: {text}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag", [["--timeout", "5"],
                                      ["--retries", "0"]])
    def test_serial_sweep_refuses_pool_options(self, capsys, flag):
        # timeout / retries only act on the pool; a serial sweep that
        # took them would silently ignore them.
        argv = ["sweep", "--axis", "policy=fifo", "--workers", "1", *flag]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-slurm: ") and "workers >= 2" in err
        assert len(err.splitlines()) == 1
        with pytest.raises(ReproError, match="workers >= 2"):
            run_sweep(tiny_matrix(), timeout=5.0)
