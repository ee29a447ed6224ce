"""Fleet sweep throughput + determinism gates.

Two guarantees the sweep fleet (:mod:`repro.experiments.fleet`) makes:

* **Near-linear scaling** — a policy × fault-profile sweep dispatched
  over a process pool finishes in a fraction of the serial wall time.
  The speedup gate is hardware-aware: it is only asserted when the
  machine actually has at least as many cores as workers (CI runners
  do; a 1-core container falls back to the determinism checks alone).
* **Execution-mode independence** — the merged ``FleetReport`` and
  every per-run replay report are *byte-identical* whether the sweep
  runs serially, over the pool, or over the pool with the run order
  shuffled.  Always asserted, whatever the hardware.

The speedup test is ``wallclock`` (deselected by default, see
``pytest.ini``); ``test_fleet_byte_identity`` is its deterministic half
and always runs.

``FLEET_BENCH_QUICK=1`` (CI) trims to a 4-way sweep at 2 workers with
a >= 1.6x gate; the full setting runs the 8-way policy × fault sweep
at 4 workers and gates >= 3x.

The recorded wall time (``BENCH_fleet.json``) is the *pool* execution;
``extra_info`` carries serial/pool walls and the speedup, so the
artifact records the scaling.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time

import pytest

from repro.experiments.fleet import SweepMatrix, run_sweep

QUICK = bool(os.environ.get("FLEET_BENCH_QUICK"))


def sweep_matrix(n_policies: int, n_jobs: int) -> SweepMatrix:
    policies = ("fifo", "backfill", "conservative",
                "staging-aware")[:n_policies]
    return SweepMatrix.from_axes(
        {"policy": list(policies), "fault_profile": ["none", "chaos"]},
        sweep_seed=11, name="bench-fleet",
        preset="replay_scale", n_nodes=8,
        workload=dict(n_jobs=n_jobs, arrival="poisson",
                      mean_interarrival=8.0, max_nodes=4,
                      mean_runtime=240.0, staged_fraction=0.3,
                      stage_bytes_mean=4e9, stage_files=2))


class ShuffledMatrix(SweepMatrix):
    """The same runs, submitted in a seeded random order."""

    def expand(self):
        specs = super().expand()
        random.Random(3).shuffle(specs)
        return specs


def sweep_serial_pooled_shuffled(matrix, workers, benchmark=None):
    """Run ``matrix`` serially, over the pool, and over the pool in a
    shuffled order; assert all three byte-identical.  Returns the
    serial and pooled wall seconds."""
    t0 = time.perf_counter()
    serial = run_sweep(matrix)
    serial_wall = time.perf_counter() - t0

    pooled = {}

    def pool_run():
        pooled["report"] = run_sweep(matrix, workers=workers)
        return pooled["report"]

    t0 = time.perf_counter()
    if benchmark is None:
        pool_run()
    else:
        benchmark.pedantic(pool_run, rounds=1, iterations=1)
    pool_wall = time.perf_counter() - t0

    shuffled = run_sweep(
        ShuffledMatrix(**{f.name: getattr(matrix, f.name)
                          for f in dataclasses.fields(matrix)}),
        workers=workers)

    assert pooled["report"].to_text() == serial.to_text()
    assert shuffled.to_text() == serial.to_text()
    by_id = {r.run_id: r for r in serial.results}
    for res in pooled["report"].results + shuffled.results:
        assert res.report_text == by_id[res.run_id].report_text
    return serial_wall, pool_wall


def test_fleet_byte_identity():
    """The deterministic half of the fleet gate: serial, pooled and
    shuffled execution merge to the same bytes (the small sweep)."""
    sweep_serial_pooled_shuffled(sweep_matrix(2, 60), workers=2)


@pytest.mark.wallclock
def test_fleet_scaling_and_byte_identity(benchmark):
    """Pool sweep: near-linear speedup, bytes identical to serial."""
    if QUICK:
        workers, n_policies, n_jobs, min_speedup = 2, 2, 60, 1.6
    else:
        workers, n_policies, n_jobs, min_speedup = 4, 4, 150, 3.0
    cores = os.cpu_count() or 1
    gate_speedup = cores >= workers
    if not gate_speedup:
        # No parallel hardware: keep the determinism checks meaningful
        # but cheap (the pool runs its shards back to back anyway).
        n_policies, n_jobs = 2, 60
    matrix = sweep_matrix(n_policies, n_jobs)
    specs = matrix.expand()
    serial_wall, pool_wall = sweep_serial_pooled_shuffled(
        matrix, workers, benchmark)

    speedup = serial_wall / pool_wall if pool_wall else 0.0
    benchmark.extra_info["runs"] = len(specs)
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["serial_wall_seconds"] = round(serial_wall, 3)
    benchmark.extra_info["pool_wall_seconds"] = round(pool_wall, 3)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["speedup_gated"] = gate_speedup
    print(f"\nfleet: {len(specs)} runs, serial {serial_wall:.1f}s, "
          f"pool({workers}) {pool_wall:.1f}s, speedup {speedup:.2f}x "
          f"({cores} cores{'' if gate_speedup else ', gate skipped'})")
    if gate_speedup:
        assert speedup >= min_speedup, (
            f"fleet speedup {speedup:.2f}x < {min_speedup}x at "
            f"{workers} workers on {cores} cores")
