"""Fold a cProfile run into per-layer host time.

A layer is a package under ``src/repro`` — with ``sim`` split into its
four modules and ``slurm.policies`` split from ``slurm``, the way
ROADMAP attributes time.  A DES crosses layer boundaries millions of
times per run, so the span record is the aggregate per layer (calls,
self time) plus inclusive time at a handful of public entry points,
held in the profiler's tables and folded once when the run ends — not
one span per call.

Everything here matches by file path and public function name only;
nothing under ``src/`` is instrumented or imported.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Tuple

__all__ = ["LAYERS", "ENTRY_POINTS", "CALL_COUNTS", "layer_of", "fold"]

#: reported layers, in stack order (bottom first); ``stdlib`` is every
#: frame outside ``repro``: builtins, numpy, and the bench driver loops.
LAYERS = (
    "sim.core", "sim.flows", "sim.resources", "sim.primitives",
    "wire", "net", "storage", "norns", "slurm", "slurm.policies",
    "traces", "faults", "workflows", "resilience", "obs", "workloads",
    "cluster", "util", "stdlib",
)

_SIM_MODULES = {"flows.py": "sim.flows", "resources.py": "sim.resources",
                "primitives.py": "sim.primitives"}
_PACKAGES = set(LAYERS) - {"stdlib"}
_MARKER = os.sep + "repro" + os.sep

#: inclusive-time metric -> (layer, function names); a function matches
#: when it is defined in a file of that layer under one of those names.
ENTRY_POINTS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "sim.core.run_incl_s": ("sim.core", ("run",)),
    "sim.flows.transfer_incl_s": ("sim.flows", ("transfer",)),
    "slurm.policies.schedule_incl_s": ("slurm.policies", ("schedule",)),
    "slurm.submit_incl_s": ("slurm", ("submit",)),
    "net.call_incl_s": ("net", ("call",)),
    "net.bulk_incl_s": ("net", ("bulk_pull", "bulk_push")),
    "wire.make_frame_incl_s": ("wire", ("make_frame",)),
    "wire.open_frame_incl_s": ("wire", ("open_frame",)),
}

#: call-count metric -> (layer, function names).
CALL_COUNTS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "wire.frames_made": ("wire", ("make_frame",)),
    "wire.frames_opened": ("wire", ("open_frame",)),
    "wire.frames_materialized": ("wire", ("materialize",)),
}


def layer_of(filename: str) -> str:
    """The layer a code object's file belongs to."""
    at = filename.rfind(_MARKER)
    if at < 0:
        return "stdlib"
    parts = filename[at + len(_MARKER):].split(os.sep)
    package = parts[0]
    if package == "sim":
        # rng.py / monitor.py are kernel-side helpers.
        return _SIM_MODULES.get(parts[-1], "sim.core")
    if package == "slurm" and len(parts) > 2 and parts[1] == "policies":
        return "slurm.policies"
    # errors.py, __init__.py and packages no workload enters.
    return package if package in _PACKAGES else "util"


def fold(stats: Mapping[tuple, tuple]) -> Dict[str, float]:
    """``pstats``-style ``{(file, line, name): (cc, nc, tt, ct, callers)}``
    -> ``{metric: value}`` for every per-layer host-time metric."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    by_name: Dict[Tuple[str, str], Tuple[int, float]] = {}
    for (filename, _line, name), (_cc, nc, tt, ct, _callers) in stats.items():
        layer = layer_of(filename)
        self_s[layer] += tt
        calls[layer] += nc
        # 3.11 reports co_name; later versions may qualify it.
        key = (layer, name.rsplit(".", 1)[-1])
        n, incl = by_name.get(key, (0, 0.0))
        by_name[key] = (n + nc, incl + ct)
    total = sum(self_s.values())
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.self_share"] = self_s[layer] / total if total else 0.0
        out[f"{layer}.fn_calls"] = calls[layer]
    for metric, (layer, names) in ENTRY_POINTS.items():
        out[metric] = sum(by_name.get((layer, n), (0, 0.0))[1]
                          for n in names)
    for metric, (layer, names) in CALL_COUNTS.items():
        out[metric] = sum(by_name.get((layer, n), (0, 0.0))[0]
                          for n in names)
    return out
