"""Flow-engine churn throughput: transfers/sec under arrival/completion mix.

The flow engine is the hottest simulator path at replay scale: every
staging transfer, device I/O and fabric movement is a flow, and each
start/finish/cancel triggers an advance + reallocation.  This benchmark
drives N short flows with arrivals interleaved with completions over

* **disjoint** constraint sets — 64 node-local device paths, the
  regime where the component-partitioned engine never touches more
  than one node's flows per event (O(touched) vs the reference
  engine's O(F) advance + O(F×C) refill per change), and
* **shared** constraint sets — everything crosses one fabric core, a
  single contention component, bounding the engine's worst case, and
* a **mesh** — 32 nodes moving data to their next four ring
  neighbours, each flow crossing four constraints (source egress,
  fabric core, destination ingress, per-pair connection cap): the
  bulk-transfer shape of Figs. 6/7, one large component whose
  constraints are as many as its flows (``shared`` is a 2-constraint
  hub).

Wall time and ``Simulator.event_count`` are recorded per engine so the
speedup of the incremental engine over :class:`ReferenceFlowScheduler`
is tracked release over release.  At the 1k size the incremental
engine's work counters are also pinned exactly: an optimisation of the
fill must do the same allocations, the same number of times.

Set ``FLOW_BENCH_QUICK=1`` (the CI quick mode) to bench the incremental
engine at the 1k size only.
"""

from __future__ import annotations

import os

import pytest

from repro.sim import (CapacityConstraint, FlowScheduler,
                       ReferenceFlowScheduler, Simulator)

N_NODES = 64
MESH_NODES = 32
QUICK = bool(os.environ.get("FLOW_BENCH_QUICK"))
SIZES = [1000] if QUICK else [1000, 10000]
ENGINES = {"incremental": FlowScheduler,
           "reference": ReferenceFlowScheduler}
ENGINE_NAMES = ["incremental"] if QUICK else ["incremental", "reference"]
# The mesh runs at 1k only: its arrivals outpace its drain, so at 10k
# the backlog (not the component shape) is what would be measured.
CASES = [(t, n) for t in ("disjoint", "shared") for n in SIZES] \
    + [("mesh", 1000)]

#: (event_count, alloc_count, flows_touched) of the incremental engine
#: at 1000 flows, measured on commit f4c205d (PR 11, before the in-place
#: fill).  Deterministic: any drift means the engine allocates at
#: different instants or over different components than it did.
PINNED_1K = {
    "disjoint": (2920, 1000, 2000),
    "shared": (3002, 1999, 20680),
    "mesh": (2991, 1999, 879704),
}


def run_churn(engine_cls, n_flows: int, topology: str) -> dict:
    """N short flows, deterministic staggered arrivals (no RNG).

    Arrival spacing is chosen so tens of flows are in flight at any
    instant: every completion reallocates while later arrivals keep
    joining, which is exactly the replay churn pattern.
    """
    sim = Simulator()
    fs = engine_cls(sim)
    core = CapacityConstraint("core", 500.0 * N_NODES)
    nodes = [(CapacityConstraint(f"n{i}:membus", 1000.0),
              CapacityConstraint(f"n{i}:dev", 300.0))
             for i in range(N_NODES)]
    ports = [(CapacityConstraint(f"m{i}:egress", 1000.0),
              CapacityConstraint(f"m{i}:ingress", 1000.0))
             for i in range(MESH_NODES)]
    conns = {}

    def mesh_route(i: int):
        src = i % MESH_NODES
        dst = (src + 1 + (i // MESH_NODES) % 4) % MESH_NODES
        conn = conns.get((src, dst))
        if conn is None:
            # 128 pairs x 36 B/s drain a little slower than the
            # 4800 B/s of arrivals: ~220 flows per allocation at 1k,
            # the component size of the bench's transfer_mesh.
            conn = conns[src, dst] = CapacityConstraint(
                f"conn:m{src}->m{dst}", 36.0)
        return (ports[src][0], core, ports[dst][1], conn)

    def arrivals():
        for i in range(n_flows):
            node = nodes[i % N_NODES]
            size = 40.0 + 10.0 * (i % 13)
            if topology == "disjoint":
                constraints = node          # membus + device, node-local
            elif topology == "shared":
                constraints = (node[0], core)  # everything meets at core
            else:
                constraints = mesh_route(i)
            fs.transfer(size, constraints, label=f"t{i}")
            # Arrivals outpace service ~16x, so a few hundred flows
            # are in flight at steady state — replay-scale churn.
            yield sim.timeout(size / 4800.0)

    sim.process(arrivals())
    sim.run()
    assert fs.completed == n_flows
    assert fs.active == 0
    return {
        "events": sim.event_count,
        "alloc_count": getattr(fs, "alloc_count", None),
        "flows_touched": getattr(fs, "flows_touched", None),
    }


@pytest.mark.parametrize("topology,n_flows", CASES)
@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_flow_churn_throughput(benchmark, engine, topology, n_flows):
    out = {}

    def once():
        out["stats"] = run_churn(ENGINES[engine], n_flows, topology)
        return out["stats"]

    benchmark.pedantic(once, rounds=1, iterations=1)
    stats = out["stats"]
    if engine == "incremental" and n_flows == 1000:
        assert (stats["events"], stats["alloc_count"],
                stats["flows_touched"]) == PINNED_1K[topology]
    per_run = benchmark.stats.stats.mean
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["topology"] = topology
    benchmark.extra_info["n_flows"] = n_flows
    benchmark.extra_info["flows_per_sec"] = n_flows / per_run
    benchmark.extra_info["event_count"] = stats["events"]
    if stats["alloc_count"] is not None:
        benchmark.extra_info["alloc_count"] = stats["alloc_count"]
        benchmark.extra_info["flows_touched"] = stats["flows_touched"]
    print(f"\n  {engine:>11} | {topology:>8} @ {n_flows:>5} flows: "
          f"{1000 * per_run:8.1f} ms  "
          f"({n_flows / per_run:10,.0f} flows/s, "
          f"{stats['events']} events)")


def test_disjoint_components_stay_local():
    """O(touched) invariant: with disjoint per-node constraint sets the
    incremental engine's total scan work grows with churn, not with
    churn × active flows — components are never globally rescanned."""
    stats = run_churn(FlowScheduler, 2000, "disjoint")
    # Each node's component holds at most ceil(2000/64) flows over the
    # whole run, but only a handful at once; total flow-slots scanned
    # must stay within a small multiple of the number of changes.
    assert stats["flows_touched"] < 2000 * 40
