"""Event-kernel churn throughput: the 1M-event mixed workload gate.

The event kernel is under every other subsystem: at replay scale each
job submission, heartbeat, RPC frame, flow completion and retry timer
is one calendar entry, and a 100k-job trace replay dispatches millions
of events.  This benchmark drives both kernels — the flattened-calendar
:class:`~repro.sim.core.Simulator` and the tuple-heap oracle
(:class:`ReferenceSimulator`, ``tests/oracles/kernel_reference.py``) —
through a replay-shaped mixed churn workload of ~1M events:

* **arrival storm** — 500k quantized timeouts pre-scheduled up front,
  exactly how :class:`~repro.traces.replay.TraceReplayer` loads a
  submission schedule.  This is what makes the reference kernel's
  per-entry tuple comparisons hurt: the heap stays 100k+ entries deep.
* **heartbeat waves** — 250k re-arming timers on a coarse grid, so
  many events share each instant (exercises batched same-timestamp
  pops).
* **supersede lanes** — 64 coroutines that repeatedly cancel and
  re-arm a far-future cancellable timeout (the flow-engine wake
  pattern); exercises lazy cancellation and defunct-entry skipping.
* **store ping-pong + interrupts** — producer/consumer pairs through a
  bounded :class:`Store` plus targeted ``Process.interrupt`` storms
  (exercises the churn-free process resume path).

The gate asserts the fast kernel is **>= 3x** the reference kernel on
this workload (a ``wallclock`` test, deselected by default — see
``pytest.ini``) and that both dispatch *identical* event counts and
defunct skips (a full-workload parity check on top of
``tests/test_kernel_parity``).  The reference kernel's timing record
and the full-size parity check carry the ``fullsize`` marker, which
``pytest.ini`` deselects by default (the CI kernel step selects every
marker back); tier-1 keeps the same exact parity at ``PARITY_SCALE``.

Set ``KERNEL_BENCH_QUICK=1`` to run at 1/4 scale (~250k events) for
local iteration; CI runs the full 1M-event workload.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.sim import Simulator, Store
from tests.oracles.kernel_reference import ReferenceSimulator

QUICK = bool(os.environ.get("KERNEL_BENCH_QUICK"))
#: scale=125_000 yields ~1.0M dispatched events (see test assertions).
SCALE = 31_250 if QUICK else 125_000
KERNELS = {"fast": Simulator, "reference": ReferenceSimulator}
#: the tier-1 parity check's scale (~66k events, every churn lane).
PARITY_SCALE = 8_192
#: the CI gate: fast kernel must beat the oracle by this factor.
MIN_SPEEDUP = 3.0

#: results shared between the parametrized benchmarks and the gate
#: test: kernel -> (wall_seconds, event_count, stats_dict).
_RESULTS: dict = {}


def run_mixed(sim_cls, scale: int):
    """Replay-shaped mixed churn; ~8 dispatched events per unit scale."""
    sim = sim_cls()
    counters = {"arrivals": 0}

    # --- arrival storm: pre-scheduled quantized submissions ----------
    GRID = 0.125
    n_arrivals = 4 * scale

    def on_arrival(ev):
        counters["arrivals"] += 1

    for i in range(n_arrivals):
        sim.timeout(GRID * (1 + i % 4096)).add_callback(on_arrival)

    # --- heartbeat waves: re-arming timers on a coarse grid ----------
    n_wave = 2 * scale
    wave_left = [n_wave - 1024]

    def tick(ev):
        r = wave_left[0]
        if r > 0:
            wave_left[0] = r - 1
            sim.timeout(GRID * 2 * (1 + r % 32)).add_callback(tick)

    for i in range(1024):
        sim.timeout(GRID * 2 * (1 + i % 32)).add_callback(tick)

    # --- supersede lanes: cancel + re-arm far-future timeouts --------
    def lane(k, iters):
        handle = None
        for i in range(iters):
            if handle is not None:
                handle.cancel()
            handle = sim.cancellable_timeout(delay=400.0 + (k % 29))
            yield sim.timeout(0.5 + 0.25 * (i % 4))
        handle.cancel()

    for k in range(64):
        sim.process(lane(k, scale // 64))

    # --- store ping-pong + interrupt storm ---------------------------
    store = Store(sim, capacity=64)

    def producer(n):
        for i in range(n):
            yield store.put(i)

    def consumer(n):
        for i in range(n):
            yield store.get()

    def sleeper(expected):
        # Parks on a never-triggered event; woken only by interrupts.
        got = 0
        while got < expected:
            try:
                yield sim.event()
            except Exception:
                got += 1

    def interrupter(victims, n):
        for i in range(n):
            yield sim.timeout(2.0)
            victims[i % len(victims)].interrupt("kick")

    half = scale // 2
    sim.process(producer(half))
    sim.process(consumer(half))
    n_intr = scale // 128
    per = [n_intr // 8 + (1 if i < n_intr % 8 else 0) for i in range(8)]
    victims = [sim.process(sleeper(per[i])) for i in range(8)]
    sim.process(interrupter(victims, n_intr))

    t0 = time.perf_counter()
    sim.run()
    dt = time.perf_counter() - t0
    assert counters["arrivals"] == n_arrivals
    return dt, sim.event_count, sim.stats()


@pytest.mark.parametrize(
    "kernel", ["fast", pytest.param("reference", marks=pytest.mark.fullsize)])
def test_kernel_mixed_churn(benchmark, kernel):
    out = {}

    def once():
        out["res"] = run_mixed(KERNELS[kernel], SCALE)
        return out["res"]

    benchmark.pedantic(once, rounds=1, iterations=1)
    dt, events, stats = out["res"]
    _RESULTS[kernel] = out["res"]
    benchmark.extra_info["kernel"] = kernel
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["event_count"] = events
    benchmark.extra_info["events_per_second"] = events / dt
    benchmark.extra_info["defunct_skips"] = stats["defunct_skips"]
    benchmark.extra_info["compactions"] = stats["compactions"]
    if "fast" in _RESULTS and "reference" in _RESULTS:
        speedup = _RESULTS["reference"][0] / _RESULTS["fast"][0]
        benchmark.extra_info["speedup"] = speedup
    print(f"\n  {kernel:>9} kernel @ scale {SCALE}: {1000 * dt:8.1f} ms  "
          f"({events} events, {events / dt / 1e6:5.2f} M ev/s, "
          f"skips={stats['defunct_skips']})")


def _both_kernels():
    for kernel in ("fast", "reference"):
        if kernel not in _RESULTS:  # e.g. run via -k without the bench
            _RESULTS[kernel] = run_mixed(KERNELS[kernel], SCALE)
    return _RESULTS["fast"], _RESULTS["reference"]


def assert_same_dispatch(fast, ref):
    (_, ev_fast, stats_fast), (_, ev_ref, stats_ref) = fast, ref
    assert ev_fast == ev_ref, (
        f"kernels disagree on event count: fast={ev_fast} ref={ev_ref}")
    assert stats_fast["defunct_skips"] == stats_ref["defunct_skips"]


@pytest.mark.fullsize
def test_kernels_dispatch_identical_counts():
    """The deterministic half of the gate: both kernels dispatch the
    same events and skip the same cancelled entries."""
    assert_same_dispatch(*_both_kernels())


def test_kernels_dispatch_identical_counts_reduced():
    """The same parity at ``PARITY_SCALE``, inside tier-1."""
    assert_same_dispatch(run_mixed(Simulator, PARITY_SCALE),
                         run_mixed(ReferenceSimulator, PARITY_SCALE))


@pytest.mark.wallclock
def test_kernel_speedup_gate():
    """CI gate: fast kernel >= 3x reference on the mixed churn workload
    (the event counts are ``test_kernels_dispatch_identical_counts``)."""
    (dt_fast, _, _), (dt_ref, _, _) = _both_kernels()
    speedup = dt_ref / dt_fast
    print(f"\n  kernel speedup: {speedup:.2f}x "
          f"(fast {1000 * dt_fast:.1f} ms, ref {1000 * dt_ref:.1f} ms)")
    assert speedup >= MIN_SPEEDUP, (
        f"fast kernel only {speedup:.2f}x vs reference "
        f"(gate: {MIN_SPEEDUP}x) — hot path regressed")


def test_compaction_bounds_calendar():
    """Cancel-heavy churn actually triggers compaction and keeps the
    honest pending count (not the raw calendar size) as the live load."""
    sim = Simulator()

    def churner(iters):
        handle = None
        for i in range(iters):
            if handle is not None:
                handle.cancel()
            handle = sim.cancellable_timeout(delay=1e6 + i)
            yield sim.timeout(0.25)
        handle.cancel()

    sim.process(churner(6000))
    sim.run()
    stats = sim.stats()
    assert stats["compactions"] >= 1
    assert stats["pending"] == 0
    assert stats["defunct_skips"] + stats["defunct_pending"] < 6000
