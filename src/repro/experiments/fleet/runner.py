"""The one sweep entry point: :func:`run_sweep`.

Expands a :class:`~repro.experiments.fleet.matrix.SweepMatrix`, skips
shards whose artifact directories are already COMPLETE
(``resume=True``), executes the rest — serially in the caller for
``workers <= 1``, else on one ``ProcessPoolExecutor`` — persists each
shard as it lands, and merges everything, fresh and resumed, into one
deterministic :class:`~repro.experiments.fleet.report.FleetReport`.

The pool imports the simulation stack in every worker before the
first shard (import cost never lands inside a measured run) and keeps
at most ``2 * workers`` shards in flight.  A crashed worker
(``BrokenProcessPool``) re-queues the lost shard onto a fresh pool and
charges it one attempt; siblings lost with the pool are not charged.
A shard that overruns ``timeout`` seconds tears the pool down and is
charged; the others are re-queued.  A shard gets ``1 + retries``
charged attempts; when the last one crashes or times out, the sweep
fails with :class:`FleetError`.  Results come back in spec order
whatever order they landed in.
"""

from __future__ import annotations

import collections
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.experiments.fleet import artifacts
from repro.experiments.fleet.matrix import SweepMatrix
from repro.experiments.fleet.report import FleetReport
from repro.experiments.fleet.runspec import RunResult, measured_run

__all__ = ["FleetError", "run_sweep"]


class FleetError(ReproError):
    """A sweep shard failed, timed out, or ran out of retries."""


def _warm(_: int) -> int:
    """Pre-import the simulation stack inside a pool worker."""
    import repro.cluster          # noqa: F401
    import repro.faults           # noqa: F401
    import repro.traces           # noqa: F401
    return os.getpid()


def _warm_pool(workers: int) -> ProcessPoolExecutor:
    pool = ProcessPoolExecutor(max_workers=workers)
    # One warm-up task per worker; map() blocks until all are done.
    list(pool.map(_warm, range(workers)))
    return pool


def run_sweep(matrix: SweepMatrix, *, workers: int = 1,
              timeout: Optional[float] = None,
              retries: Optional[int] = None,
              out_dir=None, resume: bool = False) -> FleetReport:
    """Execute one sweep matrix end to end (see the module docstring).

    ``timeout`` (seconds per shard, ``None`` = no limit) and
    ``retries`` (``None`` = 2) apply to the pool only, so a serial
    sweep, whose failing shard fails it at once, refuses them.
    """
    if workers <= 1 and (timeout is not None or retries is not None):
        raise FleetError("timeout and retries need workers >= 2 (a serial "
                         "sweep runs each shard once, in the caller)")
    retries = 2 if retries is None else retries
    specs = matrix.expand()
    loaded: List[RunResult] = []
    if resume and out_dir is not None:
        todo = []
        for spec in specs:
            if artifacts.is_complete(out_dir, spec.run_id):
                loaded.append(artifacts.load_run(out_dir, spec.run_id))
            else:
                todo.append(spec)
        specs = todo
    dispatcher = "serial" if workers <= 1 else "process-pool"

    def land(idx: int, result: RunResult, attempts: int) -> RunResult:
        result.runstats["attempts"] = attempts
        result.runstats["dispatcher"] = dispatcher
        if out_dir is not None:
            artifacts.write_run(out_dir, specs[idx], result)
        return result

    t0 = time.perf_counter()
    results: List[Optional[RunResult]] = [None] * len(specs)
    if workers <= 1:
        for idx, spec in enumerate(specs):
            results[idx] = land(idx, measured_run(spec), 1)
    elif specs:
        attempts = [0] * len(specs)
        pending = collections.deque(range(len(specs)))
        in_flight: Dict[object, int] = {}
        deadlines: Dict[object, float] = {}

        def requeue(idx: int, why: str) -> None:
            if attempts[idx] > retries:
                raise FleetError(
                    f"run {specs[idx].run_id!r} {why} after "
                    f"{attempts[idx]} attempts")
            pending.appendleft(idx)

        pool = _warm_pool(workers)
        try:
            while pending or in_flight:
                while pending and len(in_flight) < 2 * workers:
                    idx = pending.popleft()
                    attempts[idx] += 1
                    try:
                        fut = pool.submit(measured_run, specs[idx])
                    except BrokenProcessPool:
                        # The pool died between rounds: put this shard
                        # back (uncharged) and rebuild.
                        attempts[idx] -= 1
                        pending.appendleft(idx)
                        pool = _warm_pool(workers)
                        continue
                    in_flight[fut] = idx
                    if timeout is not None:
                        deadlines[fut] = time.monotonic() + timeout
                wait_for = None
                if deadlines:
                    wait_for = max(0.0, min(deadlines.values())
                                   - time.monotonic())
                done, _ = wait(set(in_flight), timeout=wait_for,
                               return_when=FIRST_COMPLETED)
                broken = False
                for fut in done:
                    idx = in_flight.pop(fut)
                    deadlines.pop(fut, None)
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        requeue(idx, "crashed a worker")
                        continue
                    except Exception as exc:
                        raise FleetError(
                            f"run {specs[idx].run_id!r} failed: "
                            f"{exc!r}") from exc
                    results[idx] = land(idx, result, attempts[idx])
                if broken:
                    # Every sibling future on the broken pool is lost
                    # too; none of them is charged.
                    charged, why = set(), "lost its worker"
                elif not done and deadlines:
                    now = time.monotonic()
                    charged = {in_flight[f] for f, dl in deadlines.items()
                               if dl <= now}
                    if not charged:
                        continue
                    # A running future cannot be cancelled without
                    # killing its process: tear the pool down, charge
                    # the overrunning shards, re-queue the innocents.
                    for proc in list((pool._processes or {}).values()):
                        proc.terminate()
                    pool.shutdown(wait=False, cancel_futures=True)
                    why = "timed out"
                else:
                    continue
                for idx in in_flight.values():
                    if idx not in charged:
                        attempts[idx] -= 1
                    requeue(idx, why)
                in_flight.clear()
                deadlines.clear()
                pool = _warm_pool(workers)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    wall = time.perf_counter() - t0

    report = FleetReport.merge(
        loaded + results, name=matrix.name,
        sweep_seed=matrix.sweep_seed, axis_names=matrix.axis_names)
    if out_dir is not None:
        artifacts.write_fleet_summary(
            out_dir, matrix.describe(), report.to_text(),
            dispatcher=dispatcher,
            runstats={"wall_seconds": wall,
                      "executed": len(results),
                      "resumed": len(loaded)})
    return report
