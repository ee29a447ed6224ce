"""Declarative DAG pipeline descriptions.

A :class:`PipelineSpec` names a set of stages and their dependency
edges (general fan-in/fan-out DAGs, not just linear chains).  It is a
pure description: the :class:`~repro.workflows.engine.PipelineEngine`
turns one into slurm workflow submissions with per-stage checkpoint
artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ReproError
from repro.util.units import MB

__all__ = ["StageSpec", "PipelineSpec", "diamond", "deep_chain"]


@dataclass(frozen=True)
class StageSpec:
    """One named pipeline stage."""

    name: str
    #: names of the stages whose outputs this stage consumes.
    deps: Tuple[str, ...] = ()
    #: compute duration (seconds) of the stage's job.
    runtime: float = 60.0
    #: allocation width of the stage's job.
    nodes: int = 1
    #: output dataset shape (staged out to the PFS on completion).
    out_files: int = 2
    out_bytes: int = 64 * int(MB)

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ReproError(f"bad stage name {self.name!r}")
        if not 0 < self.runtime < math.inf:
            raise ReproError(
                f"stage {self.name}: runtime must be positive and finite")
        if self.nodes < 1 or self.out_files < 1 or self.out_bytes < 0:
            raise ReproError(f"stage {self.name}: bad shape")


@dataclass(frozen=True)
class PipelineSpec:
    """A named DAG of stages."""

    name: str
    stages: Tuple[StageSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.stages:
            raise ReproError(f"pipeline {self.name!r} has no stages")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ReproError(f"pipeline {self.name!r}: duplicate stage names")
        known = set(names)
        for s in self.stages:
            for dep in s.deps:
                if dep == s.name:
                    raise ReproError(
                        f"stage {s.name!r} depends on itself")
                if dep not in known:
                    raise ReproError(
                        f"stage {s.name!r} depends on unknown stage {dep!r}")
        self.topological()  # raises on cycles

    def stage(self, name: str) -> StageSpec:
        for s in self.stages:
            if s.name == name:
                return s
        raise ReproError(f"no stage {name!r} in pipeline {self.name!r}")

    def topological(self) -> List[StageSpec]:
        """Stages in dependency order, stable in declaration order."""
        done: set = set()
        out: List[StageSpec] = []
        remaining = list(self.stages)
        while remaining:
            ready = [s for s in remaining if all(d in done for d in s.deps)]
            if not ready:
                cyclic = ", ".join(s.name for s in remaining)
                raise ReproError(
                    f"pipeline {self.name!r} has a dependency cycle "
                    f"among: {cyclic}")
            for s in ready:
                out.append(s)
                done.add(s.name)
            remaining = [s for s in remaining if s.name not in done]
        return out

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def total_runtime(self) -> float:
        return sum(s.runtime for s in self.stages)


def diamond(name: str = "diamond", runtime: float = 64.0,
            out_bytes: int = 64 * int(MB)) -> PipelineSpec:
    """The 6-stage diamond DAG: ingest fans out to two parallel filter
    branches that merge, then analyze, then publish.

    Stage runtimes are distinct multiples of the base ``runtime`` so no
    two stages finish at the same instant under any schedule (keeps
    replay reports byte-stable), and binary-friendly so checkpoint
    epoch chunks telescope exactly.
    """
    return PipelineSpec(name=name, stages=(
        StageSpec("ingest", (), runtime * 1.0, out_bytes=out_bytes),
        StageSpec("filter_a", ("ingest",), runtime * 1.5,
                  out_bytes=out_bytes),
        StageSpec("filter_b", ("ingest",), runtime * 2.0,
                  out_bytes=out_bytes),
        StageSpec("merge", ("filter_a", "filter_b"), runtime * 1.25,
                  out_bytes=out_bytes),
        StageSpec("analyze", ("merge",), runtime * 2.5,
                  out_bytes=out_bytes),
        StageSpec("publish", ("analyze",), runtime * 0.5,
                  out_bytes=out_bytes // 4 or 1),
    ))


def deep_chain(depth: int, name: str = "chain", runtime: float = 64.0,
               out_bytes: int = 32 * int(MB)) -> PipelineSpec:
    """A linear DAG of ``depth`` stages (the frontier-replay worst
    case: without checkpoints a late failure replays everything)."""
    if depth < 2:
        raise ReproError("deep_chain needs depth >= 2")
    stages: List[StageSpec] = [
        StageSpec("s00", (), runtime, out_bytes=out_bytes)]
    for i in range(1, depth):
        stages.append(StageSpec(f"s{i:02d}", (f"s{i-1:02d}",),
                                runtime, out_bytes=out_bytes))
    return PipelineSpec(name=name, stages=tuple(stages))
