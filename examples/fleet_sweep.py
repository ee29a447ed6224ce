#!/usr/bin/env python3
"""Sharded parameter sweep: policy x fault profile over a process pool.

Builds a declarative sweep matrix (two scheduling policies x clean/
chaos fault profiles), expands it into deterministically-seeded run
specs, executes the shards — serially first, then over a two-worker
process pool — and shows the fleet's core guarantee: the merged
cross-run report is byte-identical whatever the execution mode,
because every run is a pure function of its spec and the merge order
is canonical.

The same flow is available from the command line::

    PYTHONPATH=src python -m repro.slurm.cli sweep \
        --axis policy=fifo,backfill --axis fault_profile=none,chaos \
        --jobs 60 --preset small_test --nodes 4 --workers 2 \
        --out sweep_out

Run:  python examples/fleet_sweep.py
"""

from repro.experiments.fleet import SweepMatrix, run_sweep


def main() -> None:
    matrix = SweepMatrix.from_axes(
        {"policy": ["fifo", "backfill"],
         "fault_profile": ["none", "chaos"]},
        sweep_seed=7, name="example-sweep",
        preset="small_test", n_nodes=4,
        workload=dict(n_jobs=60, arrival="poisson",
                      mean_interarrival=8.0, max_nodes=2,
                      mean_runtime=120.0, staged_fraction=0.3,
                      stage_bytes_mean=2e9, stage_files=2))
    specs = matrix.expand()
    print(f"matrix: {matrix.n_runs} runs over axes "
          f"{', '.join(matrix.axis_names)}")
    # Config axes don't perturb the child seed: every A/B arm replays
    # the identical workload.
    assert len({s.seed for s in specs}) == 1

    serial = run_sweep(matrix)
    pooled = run_sweep(matrix, workers=2)
    assert pooled.to_text() == serial.to_text()
    print("serial and process-pool reports are byte-identical\n")
    print(pooled.to_text())


if __name__ == "__main__":
    main()
