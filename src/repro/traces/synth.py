"""Parametric workload synthesizers for cluster-scale replay.

Generates :class:`~repro.traces.records.Trace` objects with the three
statistical ingredients batch-scheduler evaluations care about:

* **arrival process** — Poisson (memoryless) or diurnal (a sinusoidally
  modulated rate mimicking the day/night submission cycle);
* **heavy-tailed job sizes** — node counts from a shifted Pareto, run
  times from a lognormal (most jobs small, a fat tail of large ones);
* **staging-intensity mix** — a configurable fraction of jobs arrives
  as NORNS-staged workflows (a producer staging its output to the PFS,
  ``chain_length - 1`` dependent phases of ``fanout`` consumers each
  staging it back in), the rest are plain compute jobs.

Every draw comes from a named :class:`~repro.sim.rng.RngRegistry`
stream, so the same seed always yields the byte-identical trace and
adding a new stream never perturbs existing ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ReproError
from repro.sim.rng import RngRegistry
from repro.traces.records import (
    STATUS_COMPLETED, Trace, TraceJob,
)
from repro.util.units import GB, MB

__all__ = ["SynthesisConfig", "synthesize"]

_ARRIVALS = ("poisson", "diurnal")


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs of the trace synthesizer."""

    n_jobs: int = 1000
    #: arrival process: "poisson" or "diurnal".
    arrival: str = "poisson"
    #: mean seconds between submission units at the base rate.
    mean_interarrival: float = 30.0
    #: diurnal cycle length and modulation depth (0 = flat = poisson).
    diurnal_period: float = 86_400.0
    diurnal_amplitude: float = 0.8
    #: heavy-tailed node counts: 1 + Pareto(size_alpha), capped.
    max_nodes: int = 32
    size_alpha: float = 1.8
    #: lognormal run times (seconds), clipped to [min, max].
    mean_runtime: float = 600.0
    runtime_sigma: float = 1.2
    min_runtime: float = 10.0
    max_runtime: float = 6 * 3600.0
    #: requested_time = runtime * factor (what users over-ask for).
    time_limit_factor: float = 2.0
    #: target fraction of *jobs* that belong to staged workflows.
    staged_fraction: float = 0.25
    #: staged workflow shape: chain of phases, consumers per phase.
    chain_length: int = 2
    fanout: int = 1
    #: per-staged-job data volume: lognormal around the mean, clipped.
    stage_bytes_mean: float = 4 * GB
    stage_bytes_sigma: float = 0.8
    stage_bytes_min: float = 64 * MB
    stage_bytes_max: float = 64 * GB
    stage_files: int = 4
    #: fraction of producers that additionally stage a cold input
    #: dataset in from the PFS (pre-seeded by the replayer).
    prestage_fraction: float = 0.5
    #: flag every workflow job ``checkpoint`` so a replay with a
    #: checkpoint interval runs them in resumable epochs.
    checkpoint_workflows: bool = False
    n_users: int = 8
    name: str = "synthetic"

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ReproError("n_jobs must be positive")
        if self.arrival not in _ARRIVALS:
            raise ReproError(f"arrival must be one of {_ARRIVALS}")
        if not 0.0 <= self.staged_fraction <= 1.0:
            raise ReproError("staged_fraction must lie in [0, 1]")
        if self.chain_length < 2 or self.fanout < 1:
            raise ReproError("staged workflows need chain_length >= 2 "
                             "and fanout >= 1")
        # (chained against inf, so NaN fails too)
        if not (0 < self.mean_interarrival < math.inf
                and 0 < self.mean_runtime < math.inf
                and 0 < self.stage_bytes_mean < math.inf):
            raise ReproError("interarrival, runtime and stage-bytes means "
                             "must be positive and finite")

    @property
    def jobs_per_workflow(self) -> int:
        return 1 + (self.chain_length - 1) * self.fanout


def synthesize(cfg: SynthesisConfig, seed: int = 0,
               rng: Optional[RngRegistry] = None) -> Trace:
    """Generate a normalized trace of exactly ``cfg.n_jobs`` jobs."""
    rng = rng or RngRegistry(seed)
    arrivals = rng.stream("trace:arrivals")
    sizes = rng.stream("trace:sizes")
    runtimes = rng.stream("trace:runtimes")
    staging = rng.stream("trace:staging")
    users = rng.stream("trace:users")

    # Probability that a submission *unit* is a staged workflow such
    # that the expected fraction of *jobs* staged hits the target:
    # f = pJ / (pJ + (1 - p))  =>  p = f / (J - f(J - 1)).
    J = cfg.jobs_per_workflow
    p_wf = cfg.staged_fraction / (J - cfg.staged_fraction * (J - 1)) \
        if cfg.staged_fraction > 0 else 0.0

    mu_rt = math.log(cfg.mean_runtime) - cfg.runtime_sigma ** 2 / 2
    mu_sb = math.log(cfg.stage_bytes_mean) - cfg.stage_bytes_sigma ** 2 / 2

    def next_gap(now: float) -> float:
        base_rate = 1.0 / cfg.mean_interarrival
        if cfg.arrival == "poisson":
            return float(arrivals.exponential(cfg.mean_interarrival))
        # Diurnal: thin a Poisson stream with a sinusoidal rate.  The
        # instantaneous-rate approximation is fine at trace granularity.
        phase = 2 * math.pi * (now % cfg.diurnal_period) / cfg.diurnal_period
        rate = base_rate * (1.0 + cfg.diurnal_amplitude * math.sin(phase))
        rate = max(rate, 0.05 * base_rate)
        return float(arrivals.exponential(1.0 / rate))

    def draw_runtime() -> float:
        rt = float(runtimes.lognormal(mu_rt, cfg.runtime_sigma))
        return min(max(rt, cfg.min_runtime), cfg.max_runtime)

    def draw_nodes() -> int:
        tail = float(sizes.pareto(cfg.size_alpha))
        return min(cfg.max_nodes, 1 + int(tail * 2.0))

    def draw_stage_bytes() -> int:
        b = float(staging.lognormal(mu_sb, cfg.stage_bytes_sigma))
        return int(min(max(b, cfg.stage_bytes_min), cfg.stage_bytes_max))

    def draw_user() -> int:
        return int(users.integers(1, cfg.n_users + 1))

    jobs: List[TraceJob] = []
    t = 0.0
    next_id = 1

    def add(job: TraceJob) -> int:
        nonlocal next_id
        jobs.append(job)
        next_id += 1
        return job.job_id

    while len(jobs) < cfg.n_jobs:
        t += next_gap(t)
        if p_wf > 0 and float(staging.random()) < p_wf \
                and cfg.n_jobs - len(jobs) >= J:
            # One staged workflow: producer + chained consumer phases.
            user = draw_user()
            out_bytes = draw_stage_bytes()
            run = draw_runtime()
            prestage = float(staging.random()) < cfg.prestage_fraction
            producer_id = add(TraceJob(
                job_id=next_id, submit_time=round(t, 3), run_time=round(run, 3),
                procs=1, requested_time=_limit(run, cfg), status=STATUS_COMPLETED,
                user=user, workflow_start=True,
                checkpoint=cfg.checkpoint_workflows,
                stage_in_bytes=out_bytes // 2 if prestage else 0,
                stage_in_files=cfg.stage_files if prestage else 0,
                stage_out_bytes=out_bytes, stage_out_files=cfg.stage_files))
            prev_phase = [producer_id]
            submit_by_id = {producer_id: t}
            prev_bytes = out_bytes
            for _phase in range(cfg.chain_length - 1):
                phase_ids: List[int] = []
                for k in range(cfg.fanout):
                    dep = prev_phase[k % len(prev_phase)]
                    run_c = draw_runtime()
                    gap = float(arrivals.exponential(
                        cfg.mean_interarrival / 2))
                    # Dependents are submitted after their dependency
                    # (SWF think time), never before.
                    submit = submit_by_id[dep] + gap
                    cons_out = max(int(prev_bytes * 0.5),
                                   int(cfg.stage_bytes_min))
                    phase_ids.append(add(TraceJob(
                        job_id=next_id, submit_time=round(submit, 3),
                        run_time=round(run_c, 3), procs=1,
                        requested_time=_limit(run_c, cfg),
                        status=STATUS_COMPLETED, user=user, dep=dep,
                        checkpoint=cfg.checkpoint_workflows,
                        think_time=round(gap, 3),
                        stage_in_bytes=prev_bytes,
                        stage_in_files=cfg.stage_files,
                        stage_out_bytes=cons_out,
                        stage_out_files=cfg.stage_files)))
                    submit_by_id[phase_ids[-1]] = submit
                prev_phase = phase_ids
                prev_bytes = max(int(prev_bytes * 0.5),
                                 int(cfg.stage_bytes_min))
        else:
            run = draw_runtime()
            add(TraceJob(
                job_id=next_id, submit_time=round(t, 3),
                run_time=round(run, 3), procs=draw_nodes(),
                requested_time=_limit(run, cfg),
                status=STATUS_COMPLETED, user=draw_user()))

    comments = (
        f"Generator: repro.traces.synth (seed-deterministic)",
        f"Arrival: {cfg.arrival}, mean interarrival "
        f"{cfg.mean_interarrival:g}s",
        f"StagedFractionTarget: {cfg.staged_fraction:g}",
        f"MaxNodes: {cfg.max_nodes}",
    )
    # Canonical replay order so the trace equals its serialised forms.
    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    trace = Trace(name=cfg.name, jobs=tuple(jobs), comments=comments)
    return trace.normalized()


def _limit(run: float, cfg: SynthesisConfig) -> float:
    """Requested time: runtime padded and rounded up to a minute."""
    return float(math.ceil(run * cfg.time_limit_factor / 60.0) * 60)
