"""Replay-throughput benchmark: jobs/sec of sim driving at 1k and 5k.

The metric is how fast the *simulator* pushes trace jobs through the
full slurmctld/urd stack (submission → scheduling → staging → steps →
accounting), i.e. trace jobs per wall-clock second.  The synthesized
trace carries the acceptance mix: ≥ 20 % of jobs belong to staged
NORNS workflows.

The 5000-job run checks nothing the 1000-job run does not; it carries
the ``fullsize`` marker, which ``pytest.ini`` deselects by default (the
CI paper-figure step selects it back with ``-m "fullsize or not
fullsize"``).
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import build, replay_scale
from repro.traces import (
    ReplayConfig, SynthesisConfig, TraceReplayer, synthesize,
)
from repro.util.units import GB


def _trace(n_jobs: int):
    cfg = SynthesisConfig(
        n_jobs=n_jobs,
        arrival="poisson",
        mean_interarrival=14.0,
        max_nodes=16,
        mean_runtime=240.0,
        staged_fraction=0.25,
        stage_bytes_mean=2 * GB,
        stage_files=4,
    )
    return synthesize(cfg, seed=0)


@pytest.mark.parametrize(
    "n_jobs", [1000, pytest.param(5000, marks=pytest.mark.fullsize)])
def test_replay_throughput(benchmark, n_jobs):
    trace = _trace(n_jobs)
    assert trace.staged_fraction >= 0.20

    out = {}

    def once():
        handle = build(replay_scale(n_nodes=64), seed=0)
        replayer = TraceReplayer(handle, trace,
                                 ReplayConfig(batch_window=30.0))
        t0 = time.perf_counter()
        out["report"] = replayer.run()
        out["wall"] = time.perf_counter() - t0
        return out["report"]

    benchmark.pedantic(once, rounds=1, iterations=1)
    report = out["report"]
    assert report.completed == n_jobs, report.state_counts
    assert report.staged_jobs / n_jobs >= 0.20
    jobs_per_sec = n_jobs / out["wall"]
    benchmark.extra_info["jobs"] = n_jobs
    benchmark.extra_info["drive_jobs_per_sec"] = jobs_per_sec
    benchmark.extra_info["sim_throughput_per_hour"] = \
        report.throughput_per_hour
    benchmark.extra_info["node_utilization"] = report.node_utilization
    print()
    print(f"  {n_jobs} jobs driven at {jobs_per_sec:.0f} jobs/s "
          f"(sim throughput {report.throughput_per_hour:.0f} jobs/sim-h, "
          f"utilization {report.node_utilization:.2f})")
