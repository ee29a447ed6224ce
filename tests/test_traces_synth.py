"""Parametric trace synthesizers: determinism and distribution shape."""

import pytest

from repro.errors import ReproError
from repro.traces import SynthesisConfig, synthesize
from repro.util.units import GB
from tests.conftest import workflow_fraction


class TestDeterminism:
    def test_same_seed_same_trace(self):
        cfg = SynthesisConfig(n_jobs=200, staged_fraction=0.3)
        assert synthesize(cfg, seed=11) == synthesize(cfg, seed=11)

    def test_different_seed_different_trace(self):
        cfg = SynthesisConfig(n_jobs=200, staged_fraction=0.3)
        assert synthesize(cfg, seed=11) != synthesize(cfg, seed=12)

    def test_exact_job_count(self):
        for n in (1, 17, 250):
            assert synthesize(SynthesisConfig(n_jobs=n), seed=0).n_jobs == n


class TestArrivals:
    def test_poisson_mean_interarrival(self):
        cfg = SynthesisConfig(n_jobs=2000, staged_fraction=0.0,
                              mean_interarrival=30.0)
        t = synthesize(cfg, seed=5)
        mean_gap = t.duration / (t.n_jobs - 1)
        assert mean_gap == pytest.approx(30.0, rel=0.15)

    def test_diurnal_modulates_rate(self):
        cfg = SynthesisConfig(n_jobs=4000, staged_fraction=0.0,
                              arrival="diurnal", mean_interarrival=60.0,
                              diurnal_period=86400.0,
                              diurnal_amplitude=0.9)
        t = synthesize(cfg, seed=5)
        # Count arrivals in the rising vs falling half-period: the
        # sinusoidal rate must make them visibly unequal.
        jobs = t.sorted_jobs()
        half = 86400.0 / 2
        first = sum(1 for j in jobs if (j.submit_time % 86400.0) < half)
        second = t.n_jobs - first
        assert first > second * 1.5

    def test_submit_times_sorted(self):
        t = synthesize(SynthesisConfig(n_jobs=300, staged_fraction=0.3),
                       seed=2)
        submits = [j.submit_time for j in t.jobs]
        assert submits == sorted(submits)


class TestSizes:
    def test_heavy_tail_bounded(self):
        cfg = SynthesisConfig(n_jobs=1000, staged_fraction=0.0,
                              max_nodes=16)
        t = synthesize(cfg, seed=3)
        sizes = [j.nodes for j in t.jobs]
        assert max(sizes) <= 16
        assert min(sizes) == 1
        # heavy tail: most jobs small, some large
        assert sum(1 for s in sizes if s == 1) > len(sizes) * 0.3
        assert any(s >= 8 for s in sizes)

    def test_runtimes_clipped(self):
        cfg = SynthesisConfig(n_jobs=500, min_runtime=10.0,
                              max_runtime=1000.0)
        t = synthesize(cfg, seed=4)
        assert all(10.0 <= j.run_time <= 1000.0 for j in t.jobs)

    def test_requested_time_padded(self):
        t = synthesize(SynthesisConfig(n_jobs=100), seed=0)
        for j in t.jobs:
            assert j.requested_time >= j.run_time
            assert j.requested_time % 60 == 0


class TestStagingMix:
    def test_staged_fraction_near_target(self):
        cfg = SynthesisConfig(n_jobs=2000, staged_fraction=0.25)
        t = synthesize(cfg, seed=6)
        assert t.staged_fraction == pytest.approx(0.25, abs=0.06)

    def test_zero_staging(self):
        t = synthesize(SynthesisConfig(n_jobs=200, staged_fraction=0.0),
                       seed=1)
        assert t.staged_fraction == 0.0
        assert workflow_fraction(t) == 0.0

    def test_workflow_structure_valid(self):
        cfg = SynthesisConfig(n_jobs=400, staged_fraction=0.4,
                              chain_length=3, fanout=2)
        t = synthesize(cfg, seed=9)
        t.validate()  # deps exist and sort correctly
        roots = [j for j in t.jobs if j.workflow_start]
        members = [j for j in t.jobs if j.dependency is not None]
        assert roots and members
        # every root stages out; every member stages in
        assert all(j.stage_out_bytes > 0 for j in roots)
        assert all(j.stage_in_bytes > 0 for j in members)

    def test_stage_bytes_clipped(self):
        cfg = SynthesisConfig(n_jobs=600, staged_fraction=0.5,
                              stage_bytes_mean=2 * GB,
                              stage_bytes_min=1 * GB,
                              stage_bytes_max=4 * GB)
        t = synthesize(cfg, seed=7)
        staged = [j for j in t.jobs if j.stage_out_bytes > 0]
        assert staged
        # producers draw from the clipped lognormal; consumers halve
        # down to the configured floor at most once per phase.
        assert all(j.stage_out_bytes <= 4 * GB for j in staged)
        assert all(j.stage_out_bytes >= 0.5 * GB for j in staged)


class TestConfigValidation:
    def test_bad_arrival(self):
        with pytest.raises(ReproError):
            SynthesisConfig(arrival="bursty")

    def test_bad_fraction(self):
        with pytest.raises(ReproError):
            SynthesisConfig(staged_fraction=1.5)

    def test_bad_chain(self):
        with pytest.raises(ReproError):
            SynthesisConfig(chain_length=1)
