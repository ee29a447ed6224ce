"""Declarative sweep matrices and deterministic per-shard seeding.

A :class:`SweepMatrix` is the cartesian product of named axes — the
scheduling policy, the fault profile, the workload-synthesizer preset,
the seed ensemble, plus arbitrary ``ClusterSpec``/synthesizer/replay
overrides — expanded into self-contained :class:`~repro.experiments
.fleet.runspec.RunSpec` descriptions that execute the same in process
or in a worker process.

Seeding discipline mirrors :class:`~repro.sim.rng.RngRegistry`: every
run's child seed is derived from ``(sweep_seed, its own seed-axis
values)`` through a named ``SeedSequence`` stream, never from the run's
*position* in the matrix.  Reordering the axes, shuffling the expansion,
or subsetting the matrix therefore never changes any run's seed — the
property the byte-reproducibility gates in ``tests/test_fleet.py``
assert.  Axes that only select *configuration* (policy, fault profile)
are excluded from derivation by default so that A/B arms replay the
identical workload; only axes listed in ``seed_axes`` (by default just
``seed``) perturb the stream.
"""

from __future__ import annotations

import itertools
import re
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.cluster.presets import PRESETS
from repro.errors import ReproError
from repro.experiments.fleet.runspec import RunSpec
from repro.util.units import GB

__all__ = [
    "SweepMatrix", "child_seed", "parse_axis", "coerce_value",
    "WORKLOAD_PRESETS",
]

#: named trace-synthesizer presets usable as ``workload`` axis values;
#: each maps onto :class:`~repro.traces.synth.SynthesisConfig` kwargs
#: (scale knobs like ``n_jobs`` come from the matrix base and override).
WORKLOAD_PRESETS: Dict[str, Dict[str, Any]] = {
    # the policy-A/B mix: heavy staged fraction so E.T.A.-driven
    # policies have something to bite on.
    "ab-staged": dict(arrival="poisson", mean_interarrival=6.0,
                      mean_runtime=180.0, staged_fraction=0.4,
                      stage_bytes_mean=8 * GB, stage_files=2),
    # the resilience mix: moderate staging, Poisson arrivals.
    "fault-mix": dict(arrival="poisson", mean_interarrival=8.0,
                      mean_runtime=180.0, staged_fraction=0.35,
                      stage_bytes_mean=4 * GB, stage_files=2),
    # the replay experiment's day/night cycle.
    "diurnal": dict(arrival="diurnal", mean_interarrival=8.0,
                    mean_runtime=240.0, staged_fraction=0.25,
                    stage_bytes_mean=2 * GB, stage_files=4),
    # pure compute, no staging: scheduler-only studies.
    "compute": dict(arrival="poisson", mean_interarrival=6.0,
                    mean_runtime=120.0, staged_fraction=0.0),
}

#: axis names with first-class meaning; anything else must carry a
#: ``spec.`` / ``workload.`` / ``replay.`` prefix naming the layer it
#: overrides.
_PLAIN_AXES = ("policy", "fault_profile", "workload", "preset", "nodes",
               "seed")
_PREFIXES = ("spec.", "workload.", "replay.")

_UNSAFE = re.compile(r"[^A-Za-z0-9._=+-]")


def child_seed(sweep_seed: int, axes: Mapping[str, Any]) -> int:
    """Derive a run's seed from the sweep seed and *its own* axis values.

    The derivation hashes the canonically-sorted ``name=value`` items
    into a ``SeedSequence`` spawn key (the :class:`~repro.sim.rng
    .RngRegistry` idiom), so it is independent of axis declaration
    order, of the other runs in the matrix, and of submission order.
    An empty mapping returns ``sweep_seed`` itself: a matrix with no
    stochastic axes replays the exact workload a direct
    ``synthesize(cfg, seed=sweep_seed)`` call would.
    """
    items = sorted((str(k), str(v)) for k, v in dict(axes).items())
    if not items:
        return int(sweep_seed)
    canon = ";".join(f"{k}={v}" for k, v in items)
    ss = np.random.SeedSequence(
        entropy=int(sweep_seed),
        spawn_key=(zlib.crc32(canon.encode("utf-8")),))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2 ** 63))


def coerce_value(text: str) -> Any:
    """CLI axis values: int if it looks like one, then float, else str."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_axis(arg: str) -> Tuple[str, Tuple[Any, ...]]:
    """Parse one ``--axis name=v1,v2,...`` argument."""
    if "=" not in arg:
        raise ReproError(f"bad --axis {arg!r}: expected name=v1,v2,...")
    name, _, tail = arg.partition("=")
    name = name.strip()
    values = tuple(coerce_value(v.strip())
                   for v in tail.split(",") if v.strip() != "")
    if not name or not values:
        raise ReproError(f"bad --axis {arg!r}: expected name=v1,v2,...")
    return name, values


def _check_axis_name(name: str) -> None:
    if name in _PLAIN_AXES:
        return
    if any(name.startswith(p) and len(name) > len(p) for p in _PREFIXES):
        return
    raise ReproError(
        f"unknown sweep axis {name!r} (known: {', '.join(_PLAIN_AXES)}; "
        "or prefix an override with spec. / workload. / replay.)")


def _run_id(axes: Sequence[Tuple[str, Any]]) -> str:
    parts = [_UNSAFE.sub("-", f"{k}={v}") for k, v in axes]
    return "__".join(parts) or "run"


@dataclass(frozen=True)
class SweepMatrix:
    """A declarative sweep: axes × base configuration → RunSpecs."""

    #: (name, values) pairs, canonically sorted by axis name.
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    sweep_seed: int = 0
    name: str = "sweep"
    preset: str = "replay_scale"
    n_nodes: int = 8
    #: base synthesizer overrides applied to every run (axis values win).
    workload: Tuple[Tuple[str, Any], ...] = ()
    #: base replay-config overrides (e.g. time_compression).
    replay: Tuple[Tuple[str, Any], ...] = ()
    #: base ClusterSpec field overrides.
    spec_overrides: Tuple[Tuple[str, Any], ...] = ()
    #: axes whose values feed :func:`child_seed`; configuration axes
    #: (policy, fault_profile, ...) are deliberately absent so A/B arms
    #: share the identical workload.
    seed_axes: Tuple[str, ...] = ("seed",)
    #: record repro.obs spans in every run (span/metric JSONL streams
    #: land in each run's artifact dir).
    obs: bool = False

    @classmethod
    def from_axes(cls, axes: Mapping[str, Iterable[Any]], *,
                  sweep_seed: int = 0, name: str = "sweep",
                  preset: str = "replay_scale", n_nodes: int = 8,
                  workload: Mapping[str, Any] = (),
                  replay: Mapping[str, Any] = (),
                  spec_overrides: Mapping[str, Any] = (),
                  seed_axes: Sequence[str] = ("seed",),
                  obs: bool = False) -> "SweepMatrix":
        """Build a matrix from plain dicts, validating axis names."""
        norm = []
        for axis_name in sorted(axes):
            values = tuple(axes[axis_name])
            if not values:
                raise ReproError(f"axis {axis_name!r} has no values")
            _check_axis_name(axis_name)
            norm.append((axis_name, values))
        if preset not in PRESETS:
            raise ReproError(
                f"unknown preset {preset!r} "
                f"(known: {', '.join(sorted(PRESETS))})")
        return cls(axes=tuple(norm), sweep_seed=int(sweep_seed),
                   name=name, preset=preset, n_nodes=int(n_nodes),
                   workload=tuple(sorted(dict(workload).items())),
                   replay=tuple(sorted(dict(replay).items())),
                   spec_overrides=tuple(sorted(dict(spec_overrides)
                                               .items())),
                   seed_axes=tuple(seed_axes), obs=bool(obs))

    # -- expansion -------------------------------------------------------
    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    @property
    def n_runs(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    def expand(self) -> List[RunSpec]:
        """The full cartesian product, in canonical (sorted-axis) order."""
        specs: List[RunSpec] = []
        seen: Dict[str, str] = {}
        names = self.axis_names
        value_lists = [values for _, values in self.axes]
        for combo in itertools.product(*value_lists) if names else [()]:
            axes = tuple(zip(names, combo))
            specs.append(self._spec_for(axes, seen))
        return specs

    def _spec_for(self, axes: Tuple[Tuple[str, Any], ...],
                  seen: Dict[str, str]) -> RunSpec:
        policy = ""
        fault_profile = ""
        preset = self.preset
        n_nodes = self.n_nodes
        workload = dict(self.workload)
        replay = dict(self.replay)
        spec_overrides = dict(self.spec_overrides)
        for axis_name, value in axes:
            if axis_name == "policy":
                policy = str(value)
            elif axis_name == "fault_profile":
                fault_profile = "" if value in ("", "off") else str(value)
            elif axis_name == "preset":
                preset = str(value)
                if preset not in PRESETS:
                    raise ReproError(f"unknown preset {preset!r}")
            elif axis_name == "nodes":
                n_nodes = int(value)
            elif axis_name == "workload":
                preset_name = str(value)
                if preset_name not in WORKLOAD_PRESETS:
                    raise ReproError(
                        f"unknown workload preset {preset_name!r} "
                        f"(known: {', '.join(sorted(WORKLOAD_PRESETS))})")
                merged = dict(WORKLOAD_PRESETS[preset_name])
                merged.update(workload)      # base scale knobs win
                workload = merged
            elif axis_name == "seed":
                pass                         # only feeds child_seed
            elif axis_name.startswith("spec."):
                spec_overrides[axis_name[len("spec."):]] = value
            elif axis_name.startswith("workload."):
                workload[axis_name[len("workload."):]] = value
            elif axis_name.startswith("replay."):
                replay[axis_name[len("replay."):]] = value
        seed_values = {k: v for k, v in axes if k in self.seed_axes}
        seed = child_seed(self.sweep_seed, seed_values)
        run_id = _run_id(axes)
        if run_id in seen:
            raise ReproError(
                f"duplicate run id {run_id!r} (axes {axes!r} collides "
                f"with {seen[run_id]!r} after sanitising)")
        seen[run_id] = repr(axes)
        display = tuple((k, str(v)) for k, v in axes)
        return RunSpec(
            run_id=run_id, axes=display, seed=seed, preset=preset,
            n_nodes=n_nodes, policy=policy, fault_profile=fault_profile,
            workload=tuple(sorted(workload.items())),
            replay=tuple(sorted(replay.items())),
            spec_overrides=tuple(sorted(spec_overrides.items())),
            obs=self.obs)

    def describe(self) -> Dict[str, Any]:
        """JSON-able echo for the sweep-level ``fleet.json`` artifact."""
        return {
            "name": self.name,
            "sweep_seed": self.sweep_seed,
            "axes": {name: list(values) for name, values in self.axes},
            "seed_axes": list(self.seed_axes),
            "preset": self.preset,
            "n_nodes": self.n_nodes,
            "workload": dict(self.workload),
            "replay": dict(self.replay),
            "spec_overrides": dict(self.spec_overrides),
            "obs": self.obs,
            "n_runs": self.n_runs,
        }
