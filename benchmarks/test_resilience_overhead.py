"""RPC-resilience layer gates: free when disarmed, deterministic armed.

Three guarantees the ``repro.resilience`` layer makes:

* **Byte-identical when idle** — the layer is built on every urd by
  default (``ClusterSpec.resilience=True``) but stays *disarmed* on
  zero-fault runs, where every code path collapses to the pre-existing
  one: the PR 2 golden replay file must stay byte-identical with the
  layer enabled, and a cluster built with ``resilience=False`` must
  produce the very same report and kernel event counts.
* **Cheap when idle** — the disarmed layer costs < 2% wall time on a
  large zero-fault replay (it adds zero calendar events, so the only
  cost is a few attribute checks per task).  The percentage is a
  ``wallclock`` test (deselected by default, see ``pytest.ini``); its
  deterministic half — same report, same event count on the same
  workload — always runs.
* **Deterministic when armed** — the chaos-profile resilience
  experiment completes with no hung callers and reproduces its report
  byte for byte, with nonzero retry / breaker / heartbeat counters.

``RESILIENCE_BENCH_QUICK=1`` (CI) trims the overhead workload; CI
publishes the results as the ``BENCH_resilience.json`` artifact.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import time

import pytest

from repro.cluster import build, replay_scale, small_test
from repro.faults import FaultPlan
from repro.traces import (
    ReplayConfig, SynthesisConfig, TraceReplayer, synthesize,
)
from repro.util.units import GB

QUICK = bool(os.environ.get("RESILIENCE_BENCH_QUICK"))
GOLDEN = pathlib.Path(__file__).parent.parent / "tests" / "data" / \
    "replay_golden_default.txt"


def golden_trace():
    """Same synthesis as tests/test_policy_replay.py (the golden run)."""
    cfg = SynthesisConfig(n_jobs=40, arrival="diurnal",
                          mean_interarrival=12.0, max_nodes=2,
                          mean_runtime=120.0, staged_fraction=0.3,
                          stage_bytes_mean=1 * GB, stage_files=2)
    return synthesize(cfg, seed=7)


def overhead_trace(n_jobs: int):
    cfg = SynthesisConfig(n_jobs=n_jobs, arrival="poisson",
                          mean_interarrival=2.0, max_nodes=8,
                          mean_runtime=240.0, staged_fraction=0.25,
                          stage_bytes_mean=2 * GB, stage_files=4)
    return synthesize(cfg, seed=0)


def test_disarmed_layer_byte_identical_to_golden(benchmark):
    """Golden replay with the layer on every urd: same bytes as PR 2."""
    trace = golden_trace()

    def run_once(resilience):
        spec = dataclasses.replace(small_test(n_nodes=4),
                                   resilience=resilience)
        handle = build(spec, seed=7)
        report = TraceReplayer(
            handle, trace,
            ReplayConfig(time_compression=4.0,
                         fault_plan=FaultPlan(name="none"))).run()
        return report, handle.sim.stats()

    def once():
        return run_once(True)

    report, stats = benchmark.pedantic(once, rounds=1, iterations=1)
    assert report.to_text() == GOLDEN.read_text()
    bare_report, bare_stats = run_once(False)
    assert report.to_text() == bare_report.to_text()
    # not one extra calendar event: the disarmed layer is truly free
    assert stats["events"] == bare_stats["events"]


def run_big_replay(trace, resilience: bool):
    """The overhead workload once; ``(report, events, wall seconds)``."""
    spec = dataclasses.replace(replay_scale(n_nodes=32),
                               resilience=resilience)
    handle = build(spec, seed=0)
    replayer = TraceReplayer(handle, trace, ReplayConfig(batch_window=30.0))
    t0 = time.perf_counter()
    report = replayer.run()
    return report, handle.sim.event_count, time.perf_counter() - t0


def test_disarmed_layer_changes_nothing_on_big_replay():
    """The deterministic half of the 2% gate: on the overhead workload
    (quick size) the disarmed layer changes neither the report nor the
    number of calendar events."""
    trace = overhead_trace(1500)
    bare_report, bare_events, _ = run_big_replay(trace, False)
    layered_report, layered_events, _ = run_big_replay(trace, True)
    assert layered_report.to_text() == bare_report.to_text()
    assert layered_events == bare_events


@pytest.mark.wallclock
def test_zero_fault_overhead_under_2pct(benchmark):
    """Disarmed layer vs. no layer on a big replay: < 2% wall time."""
    n_jobs = 1500 if QUICK else 5000
    rounds = 3
    trace = overhead_trace(n_jobs)

    def run_once(resilience):
        report, _, wall = run_big_replay(trace, resilience)
        return report, wall

    out = {}

    def once():
        # interleave rounds so drift (thermal, page cache) hits both
        # arms equally; gate on min-of-rounds to strip scheduler noise
        bare_walls, layered_walls = [], []
        for _ in range(rounds):
            bare_report, wall = run_once(False)
            bare_walls.append(wall)
            layered_report, wall = run_once(True)
            layered_walls.append(wall)
        out.update(bare_report=bare_report, layered_report=layered_report,
                   bare_wall=min(bare_walls),
                   layered_wall=min(layered_walls))
        return layered_report

    benchmark.pedantic(once, rounds=1, iterations=1)
    assert out["layered_report"].to_text() == out["bare_report"].to_text()
    overhead = out["layered_wall"] / out["bare_wall"] - 1.0
    benchmark.extra_info["jobs"] = n_jobs
    benchmark.extra_info["bare_wall_s"] = out["bare_wall"]
    benchmark.extra_info["layered_wall_s"] = out["layered_wall"]
    benchmark.extra_info["overhead_fraction"] = overhead
    print()
    print(f"  {n_jobs} jobs: no layer {out['bare_wall']:.2f}s, "
          f"disarmed layer {out['layered_wall']:.2f}s "
          f"(overhead {100 * overhead:+.1f}%)")
    assert overhead < 0.02, (
        f"disarmed resilience layer costs {100 * overhead:.1f}% wall time")


def test_chaos_experiment_smoke_deterministic(benchmark):
    """The resilience experiment under chaos: completes, reproduces."""
    from repro.experiments import resilience

    first = benchmark.pedantic(
        lambda: resilience.run(quick=True, seed=0), rounds=1, iterations=1)
    second = resilience.run(quick=True, seed=0)
    # no hung callers: both arms completed every job they could and the
    # run came back at all (a stalled RPC would hang the replay)
    assert first.metrics["baseline_completed"] > 0
    assert first.metrics["chaos_completed"] > 0
    # the armed layer saw real action
    assert first.metrics["rpc_retries"] > 0
    assert first.metrics["heartbeat_misses"] > 0
    # deterministic: byte-identical table, run after run
    assert first.table() == second.table()
    assert first.metrics == second.metrics
    benchmark.extra_info["rpc_retries"] = first.metrics["rpc_retries"]
    benchmark.extra_info["breaker_opens"] = first.metrics["breaker_opens"]
    benchmark.extra_info["requests_shed"] = first.metrics["requests_shed"]
