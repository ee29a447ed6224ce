"""Names, units, directions and bounds of every benchmark metric.

The single source for ``BENCHMARK.json`` (the smoke test checks the two
agree), for the runner's output and for ``--compare``.  ``moves`` says
which end-to-end metric a layer metric is expected to move, on which
workload — written down before any optimisation is measured
(``bench/README.md`` has the full interaction table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from layers import CALL_COUNTS, ENTRY_POINTS, LAYERS

__all__ = ["Metric", "END_TO_END", "WORK_COUNTERS", "HOST_TIME",
           "PER_LAYER", "CONTENDED_GAP"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "lower" | "higher"
    #: end-to-end only: share of the baseline median the metric may
    #: worsen by before it counts as a regression.
    bound: float = 0.0
    #: exact = a count the simulator makes, identical on every repeat;
    #: otherwise timed on the host (or derived from a timing).
    exact: bool = False
    moves: str = ""


#: a repeat whose wall time exceeds its CPU time by more than this share
#: was descheduled while it ran: it is marked ``contended``.
CONTENDED_GAP = 0.10

END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

_FLOWS = "wall_s on transfer_mesh (~0.8 share), replay_staged (~0.3)"
_SCHED = "wall_s on sched_backlog (~0.6 share); <1% elsewhere"
_KERNEL = "wall_s on rpc_storm, replay_chaos (~0.3), replay_staged (~0.2)"
_RPC = "ops_per_s on rpc_storm (wire+net+norns ~0.4)"
_CHAOS = "wall_s, peak_rss_mb on replay_chaos; exactly 0 elsewhere"
_SIM = "simulated result: compared for equality, not better/worse"


def _count(name: str, better: str, moves: str, unit: str = "count") -> Metric:
    return Metric(name, unit, better, exact=True, moves=moves)


#: exact work counters, read after the untraced repeats.  ``better`` is
#: the direction at an unchanged ``sim_digest`` (less work per result).
WORK_COUNTERS: Tuple[Metric, ...] = (
    _count("sim.core.events", "lower", _KERNEL),
    _count("sim.core.defunct_skips", "lower", _KERNEL),
    _count("sim.core.pending_at_end", "lower", "peak_rss_mb"),
    Metric("sim.core.us_per_event", "us", "lower", moves=_KERNEL),
    _count("sim.flows.allocs", "lower", _FLOWS),
    _count("sim.flows.slots_touched", "lower", _FLOWS),
    _count("sim.flows.slots_per_alloc", "lower", _FLOWS),
    _count("sim.flows.completed", "higher", _SIM),
    _count("sim.flows.bytes_moved", "higher", _SIM, unit="B"),
    _count("slurm.sched_passes", "lower", _SCHED),
    _count("slurm.sched_decisions", "higher", _SIM),
    _count("slurm.decisions_per_pass", "higher", _SCHED),
    _count("slurm.jobs_requeued", "lower", _CHAOS),
    _count("norns.requests_served", "lower", _RPC),
    _count("norns.tasks_completed", "higher", _SIM),
    _count("norns.tasks_failed", "lower", _CHAOS),
    _count("norns.tasks_retried", "lower", _CHAOS),
    _count("norns.tasks_lost", "lower", _CHAOS),
    _count("net.rpcs_served", "lower", _RPC),
    _count("net.duplicates_suppressed", "lower", _CHAOS),
    _count("resilience.calls", "lower", _CHAOS),
    _count("resilience.retries", "lower", _CHAOS),
    _count("resilience.heartbeat_probes", "lower", _CHAOS),
    _count("resilience.heartbeat_misses", "lower", _CHAOS),
    _count("resilience.breaker_fastfail", "lower", _CHAOS),
    _count("resilience.requests_shed", "lower", _CHAOS),
    _count("faults.injected", "higher", _SIM),
    _count("faults.bytes_lost", "lower", _SIM, unit="B"),
    _count("workflows.epochs_marked", "higher", _SIM),
    _count("workflows.epochs_resumed", "higher", _SIM),
    _count("storage.bytes_staged", "higher", _SIM, unit="B"),
    _count("traces.jobs", "higher", "peak_rss_mb"),
    _count("traces.makespan_sim_s", "lower", _SIM, unit="s"),
    _count("traces.wait_median_sim_s", "lower", _SIM, unit="s"),
    _count("traces.node_utilization", "higher", _SIM, unit="share"),
)

_LAYER_MOVES: Dict[str, str] = {
    "sim.core": _KERNEL, "sim.flows": _FLOWS, "slurm.policies": _SCHED,
    "wire": _RPC, "net": _RPC + "; " + _CHAOS, "norns": _RPC,
    "faults": _CHAOS, "workflows": _CHAOS, "resilience": _CHAOS,
    "cluster": "setup_s on the replays", "traces": "setup_s on the replays",
}

def _timed(name: str, unit: str, layer: str) -> Metric:
    return Metric(name, unit, "lower",
                  moves=_LAYER_MOVES.get(layer, "wall_s"))


#: host time per layer, from the traced repeat.  Tracked, not gated.
HOST_TIME: Tuple[Metric, ...] = tuple(
    _timed(f"{layer}.{suffix}", unit, layer)
    for layer in LAYERS
    for suffix, unit in (("self_s", "s"), ("self_share", "share"),
                         ("fn_calls", "count"))
) + tuple(
    _timed(name, "s", layer) for name, (layer, _names) in ENTRY_POINTS.items()
) + tuple(
    _timed(name, "count", layer) for name, (layer, _names) in CALL_COUNTS.items()
) + (
    Metric("trace_overhead_ratio", "ratio", "lower",
           moves="none: traced wall_s / untraced median wall_s"),
)

PER_LAYER: Tuple[Metric, ...] = WORK_COUNTERS + HOST_TIME
