"""Named, seeded fault-profile generators.

A profile turns ``(horizon, nodes, seed)`` into a concrete
:class:`~repro.faults.plan.FaultPlan`, drawing times and targets from
the same :class:`~repro.sim.rng.RngRegistry` machinery the workload
synthesizers use — so "replay this trace under the *chaos* profile with
seed 7" names one exact, reproducible failure schedule.  Each profile
stream is independent of every other consumer of the seed.

Every generated window recovers inside the horizon (a crash always
reboots, a degradation always lifts): profiles are meant for replay
studies, which must drain.  Hand-written plans may of course leave a
node down for good.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.errors import FaultError
from repro.faults.plan import FaultPlan, FaultRecord
from repro.sim.rng import RngRegistry

__all__ = ["available_profiles", "fault_profile", "register_profile"]

_PROFILES: Dict[str, tuple[Callable, str]] = {}


def register_profile(name: str, summary: str):
    """Decorator: add a generator under ``name`` for the CLI listing."""
    def deco(fn):
        if name in _PROFILES:
            raise FaultError(f"duplicate fault profile {name!r}")
        _PROFILES[name] = (fn, summary)
        return fn
    return deco


def available_profiles() -> List[tuple[str, str]]:
    """(name, summary) of every registered profile, name order."""
    return [(name, _PROFILES[name][1]) for name in sorted(_PROFILES)]


def fault_profile(name: str, horizon: float, nodes: Sequence[str],
                  seed: int = 0) -> FaultPlan:
    """Instantiate a named profile over ``nodes`` for ``horizon`` s."""
    entry = _PROFILES.get(name)
    if entry is None:
        known = ", ".join(sorted(_PROFILES))
        raise FaultError(f"unknown fault profile {name!r} "
                         f"(registered: {known})")
    if not 0 < horizon < math.inf:
        raise FaultError("profile horizon must be positive and finite")
    nodes = sorted(nodes)
    if not nodes:
        raise FaultError("profile needs at least one node")
    rng = RngRegistry(seed).stream(f"faults:{name}")
    records = tuple(entry[0](rng, float(horizon), nodes))
    plan = FaultPlan(name=name, records=records,
                     comments=(f"profile={name} seed={seed} "
                               f"horizon={horizon:g}s nodes={len(nodes)}",))
    plan.validate(nodes)
    return plan


def _spread(rng: np.random.Generator, n: int, horizon: float,
            lo: float = 0.1, hi: float = 0.85) -> List[float]:
    """n jittered instants inside the central span of the horizon."""
    if n <= 0:
        return []
    edges = np.linspace(lo, hi, n + 1)
    out = []
    for a, b in zip(edges, edges[1:]):
        out.append(float(rng.uniform(a, b)) * horizon)
    return out


def _pick(rng: np.random.Generator, nodes: Sequence[str]) -> str:
    return nodes[int(rng.integers(0, len(nodes)))]


def _distinct(rng: np.random.Generator, nodes: Sequence[str],
              n: int) -> List[str]:
    """n distinct targets (windowed faults must not overlap per node)."""
    order = [nodes[i] for i in rng.permutation(len(nodes))]
    return order[:n]


@register_profile("none", "empty plan (overhead baseline)")
def _none(rng, horizon: float, nodes) -> List[FaultRecord]:
    return []


@register_profile("node-churn",
                  "periodic node crashes with reboots (requeue storm)")
def _node_churn(rng, horizon: float, nodes) -> List[FaultRecord]:
    n = max(1, min(len(nodes), int(round(horizon / 900)) or 1))
    reboot = max(30.0, 0.04 * horizon)
    out = []
    targets = _distinct(rng, nodes, n)
    for t, target in zip(_spread(rng, n, horizon, hi=0.8), targets):
        out.append(FaultRecord(time=t, kind="node_crash",
                               target=target, duration=reboot,
                               note="profile: crash+reboot"))
    return out


@register_profile("rolling-drain",
                  "rolling maintenance drains across the rack")
def _rolling_drain(rng, horizon: float, nodes) -> List[FaultRecord]:
    n = min(len(nodes), 4)
    window = max(60.0, 0.08 * horizon)
    out = []
    for i, t in enumerate(_spread(rng, n, horizon, hi=0.75)):
        out.append(FaultRecord(time=t, kind="node_drain",
                               target=nodes[i % len(nodes)],
                               duration=window,
                               note="profile: maintenance window"))
    return out


@register_profile("flaky-network",
                  "NIC degradations plus one short partition")
def _flaky_network(rng, horizon: float, nodes) -> List[FaultRecord]:
    out = []
    n = min(max(2, min(6, len(nodes))), len(nodes))
    # Cap the window so every degrade lifts before the 0.8h partition
    # fires: the validator rejects link windows that touch on a node.
    window = min(max(20.0, 0.05 * horizon), 0.09 * horizon)
    targets = _distinct(rng, nodes, n)
    for t, target in zip(_spread(rng, n, horizon, hi=0.7), targets):
        out.append(FaultRecord(time=t, kind="link_degrade",
                               target=target, duration=window,
                               magnitude=float(rng.uniform(0.05, 0.25)),
                               note="profile: congested link"))
    out.append(FaultRecord(time=0.8 * horizon, kind="link_partition",
                           target=_pick(rng, nodes),
                           duration=max(10.0, 0.02 * horizon),
                           note="profile: partition"))
    return out


@register_profile("storage-brownout",
                  "node-local device bandwidth brownouts")
def _storage_brownout(rng, horizon: float, nodes) -> List[FaultRecord]:
    out = []
    n = max(1, min(4, len(nodes)))
    window = max(30.0, 0.1 * horizon)
    targets = _distinct(rng, nodes, n)
    for t, target in zip(_spread(rng, n, horizon, hi=0.75), targets):
        out.append(FaultRecord(time=t, kind="device_degrade",
                               target=target, duration=window,
                               magnitude=float(rng.uniform(0.1, 0.4)),
                               device="nvme0",
                               note="profile: device brownout"))
    return out


@register_profile("daemon-churn",
                  "urd restarts: in-flight task loss + E.T.A. resets")
def _daemon_churn(rng, horizon: float, nodes) -> List[FaultRecord]:
    n = max(2, min(8, len(nodes)))
    return [FaultRecord(time=t, kind="urd_restart",
                        target=_pick(rng, nodes),
                        note="profile: daemon restart")
            for t in _spread(rng, n, horizon)]


@register_profile("data-corruption",
                  "corrupted transfers forcing retry-with-backoff")
def _data_corruption(rng, horizon: float, nodes) -> List[FaultRecord]:
    n = max(2, min(8, len(nodes)))
    return [FaultRecord(time=t, kind="transfer_corrupt",
                        target=_pick(rng, nodes),
                        magnitude=float(int(rng.integers(1, 4))),
                        note="profile: checksum mismatch")
            for t in _spread(rng, n, horizon)]


@register_profile("chaos",
                  "a blend: crashes, restarts, link/device trouble, "
                  "corruption")
def _chaos(rng, horizon: float, nodes) -> List[FaultRecord]:
    out: List[FaultRecord] = []
    reboot = max(30.0, 0.04 * horizon)
    out.append(FaultRecord(time=float(rng.uniform(0.15, 0.3)) * horizon,
                           kind="node_crash", target=_pick(rng, nodes),
                           duration=reboot, note="chaos: crash"))
    out.append(FaultRecord(time=float(rng.uniform(0.35, 0.5)) * horizon,
                           kind="urd_restart", target=_pick(rng, nodes),
                           duration=max(20.0, 0.05 * horizon),
                           note="chaos: daemon restart"))
    out.append(FaultRecord(time=float(rng.uniform(0.5, 0.6)) * horizon,
                           kind="link_degrade", target=_pick(rng, nodes),
                           duration=max(20.0, 0.05 * horizon),
                           magnitude=0.1, note="chaos: congested link"))
    out.append(FaultRecord(time=float(rng.uniform(0.6, 0.7)) * horizon,
                           kind="device_degrade",
                           target=_pick(rng, nodes),
                           duration=max(30.0, 0.06 * horizon),
                           magnitude=0.25, device="nvme0",
                           note="chaos: device brownout"))
    out.append(FaultRecord(time=float(rng.uniform(0.7, 0.8)) * horizon,
                           kind="transfer_corrupt",
                           target=_pick(rng, nodes), magnitude=2.0,
                           note="chaos: checksum mismatch"))
    out.append(FaultRecord(time=float(rng.uniform(0.05, 0.12)) * horizon,
                           kind="node_drain", target=_pick(rng, nodes),
                           duration=max(40.0, 0.05 * horizon),
                           note="chaos: maintenance drain"))
    # Late partition: any link_degrade window (fired <= 0.6h, lifting
    # <= 0.65h + 20s) is over before this opens, so the per-node
    # window validator stays happy even when targets coincide.
    out.append(FaultRecord(time=0.85 * horizon, kind="link_partition",
                           target=_pick(rng, nodes),
                           duration=max(10.0, 0.02 * horizon),
                           note="chaos: partition"))
    return out
