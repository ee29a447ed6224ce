"""One repeat of one workload, in a process of its own.

The parent (``run.py``) starts this file once per repeat, never two at
a time, with a JSON request as its only argument and the environment
already scrubbed.  It receives only generated-input parameters
(workload name, seed, scale); traces and plans are synthesized here,
so their cost lands in ``setup_s`` where a user would pay it.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import cProfile
import json
import os
import platform
import pstats
import resource
import sys
import time


def _env() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
    }


def run_repeat(request: dict) -> dict:
    """Prepare, run and check one repeat; returns the result record."""
    # Imported here so that interpreter start + ``import repro.*`` are
    # inside the interval the parent's ``spawned_at`` opens.
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[request["workload"]]
    state = workload.prepare(request["seed"], request["scale"],
                             request["workdir"])
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading
    # taken just before the spawn and this one share an origin.
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    profiler = cProfile.Profile() if request["traced"] else None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if profiler is not None:
        profiler.enable()
    workload.run(state)
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    outcome = workload.outcome(state)
    record = {
        "workload": workload.name,
        "seed": request["seed"],
        "scale": request["scale"],
        "traced": bool(request["traced"]),
        "setup_s": ready - request["spawned_at"],
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "sim_digest": outcome.sim_digest,
        "digest_text": outcome.digest_text,
        "counters": outcome.counters,
        "env": _env(),
    }
    if profiler is not None:
        record["layers"] = layers.fold(pstats.Stats(profiler).stats)
    return record


def main(argv) -> int:
    record = run_repeat(json.loads(argv[1]))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
