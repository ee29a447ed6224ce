"""Self-contained run descriptions and their pure executor.

A :class:`RunSpec` is everything one sweep shard needs: picklable,
JSON-able, position-independent.  :func:`execute_run` is deliberately a
*pure function* of its spec — it builds a fresh cluster, synthesizes the
trace from the spec's own seed, replays, and returns a
:class:`RunResult` — so the same spec produces byte-identical results
whether it runs in-process or in a ``ProcessPoolExecutor`` worker.
Nothing here reads the cwd, mutates module globals, or depends on
submission order.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.presets import PRESETS
from repro.errors import ReproError

__all__ = ["RunSpec", "RunResult", "execute_run", "measured_run"]


@dataclass(frozen=True)
class RunSpec:
    """One shard of a sweep: a whole simulation, declaratively."""

    #: filesystem-safe identity derived from the axis values.
    run_id: str
    #: the axis values this run realises, canonical (sorted-name) order.
    axes: Tuple[Tuple[str, str], ...]
    #: the derived child seed (see :func:`~repro.experiments.fleet
    #: .matrix.child_seed`) — drives synthesis, cluster build and the
    #: fault plan.
    seed: int
    preset: str = "replay_scale"
    n_nodes: int = 8
    #: scheduling policy ("" = the preset's default).
    policy: str = ""
    #: fault profile name ("" = no injector at all).
    fault_profile: str = ""
    #: :class:`~repro.traces.synth.SynthesisConfig` overrides.
    workload: Tuple[Tuple[str, Any], ...] = ()
    #: :class:`~repro.traces.replay.ReplayConfig` overrides.
    replay: Tuple[Tuple[str, Any], ...] = ()
    #: top-level :class:`~repro.cluster.spec.ClusterSpec` field
    #: overrides applied with ``dataclasses.replace``.
    spec_overrides: Tuple[Tuple[str, Any], ...] = ()
    #: record repro.obs spans during the run and carry the exported
    #: span/metric JSONL streams in the result artifacts.
    obs: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "axes": {k: v for k, v in self.axes},
            "seed": self.seed,
            "preset": self.preset,
            "n_nodes": self.n_nodes,
            "policy": self.policy,
            "fault_profile": self.fault_profile,
            "workload": dict(self.workload),
            "replay": dict(self.replay),
            "spec_overrides": dict(self.spec_overrides),
            "obs": self.obs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        return cls(
            run_id=data["run_id"],
            axes=tuple(sorted((str(k), str(v))
                              for k, v in data.get("axes", {}).items())),
            seed=int(data["seed"]),
            preset=data.get("preset", "replay_scale"),
            n_nodes=int(data.get("n_nodes", 8)),
            policy=data.get("policy", ""),
            fault_profile=data.get("fault_profile", ""),
            workload=tuple(sorted(data.get("workload", {}).items())),
            replay=tuple(sorted(data.get("replay", {}).items())),
            spec_overrides=tuple(sorted(data.get("spec_overrides", {})
                                        .items())),
            obs=bool(data.get("obs", False)))


@dataclass
class RunResult:
    """One finished shard: deterministic payload + run statistics.

    Everything except ``runstats`` is a pure function of the
    :class:`RunSpec`; ``runstats`` (wall time, peak RSS, pid, attempts)
    is observational and therefore kept out of the merged
    :class:`~repro.experiments.fleet.report.FleetReport` text.
    """

    run_id: str
    axes: Tuple[Tuple[str, str], ...]
    seed: int
    #: scalar outcome metrics, insertion-ordered canonically.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: extra non-scalar annotations (e.g. the fault mix string).
    info: Dict[str, str] = field(default_factory=dict)
    #: the full per-run replay report text.
    report_text: str = ""
    #: per-job metric records (the ``metrics.jsonl`` artifact rows).
    job_metrics: List[Dict[str, Any]] = field(default_factory=list)
    #: wall_seconds / peak_rss_bytes / pid / attempts, plus the
    #: deterministic ``kernel`` counter block (``--perf`` rendering).
    runstats: Dict[str, Any] = field(default_factory=dict)
    #: exported repro.obs streams (``spec.obs`` runs only): span and
    #: metric JSONL bodies destined for the run's artifact dir.
    spans_jsonl: str = ""
    obs_metrics_jsonl: str = ""


def execute_run(spec: RunSpec) -> RunResult:
    """Run one shard; a pure function of ``spec``.

    Builds the named preset (with overrides), synthesizes the trace
    from the spec's child seed, compiles the fault profile, replays,
    and distils the replay report into the cross-run metric vector.
    """
    from repro.cluster import build
    from repro.traces import (
        ReplayConfig, SynthesisConfig, TraceReplayer, synthesize,
    )

    if spec.preset not in PRESETS:
        raise ReproError(f"unknown preset {spec.preset!r}")
    try:
        synth_cfg = SynthesisConfig(**dict(spec.workload))
    except TypeError as exc:
        raise ReproError(f"bad workload override: {exc}") from None
    trace = synthesize(synth_cfg, seed=spec.seed)

    cluster = PRESETS[spec.preset](n_nodes=spec.n_nodes)
    if spec.spec_overrides:
        try:
            cluster = dataclasses.replace(cluster,
                                          **dict(spec.spec_overrides))
        except TypeError as exc:
            raise ReproError(f"bad spec override: {exc}") from None
    handle = build(cluster, seed=spec.seed)
    tracer = handle.enable_tracing() if spec.obs else None

    replay_kwargs = dict(spec.replay)
    compression = float(replay_kwargs.get("time_compression", 1.0))
    plan = None
    if spec.fault_profile:
        from repro.faults import fault_profile
        horizon = max(300.0, trace.duration / compression)
        plan = fault_profile(spec.fault_profile, horizon=horizon,
                             nodes=handle.node_names, seed=spec.seed)
    try:
        replay_cfg = ReplayConfig(scheduler=spec.policy, fault_plan=plan,
                                  **replay_kwargs)
    except TypeError as exc:
        raise ReproError(f"bad replay override: {exc}") from None
    report = TraceReplayer(handle, trace, replay_cfg).run()

    wait = report.wait_summary
    slow = report.slowdown_summary
    stage = report.stage_summary
    n_jobs = trace.n_jobs
    metrics: Dict[str, float] = {
        "completed": float(report.completed),
        "goodput": report.completed / n_jobs if n_jobs else 0.0,
        "makespan_seconds": report.makespan,
        "throughput_jobs_per_hour": report.throughput_per_hour,
        "node_utilization": report.node_utilization,
        "mean_wait_seconds": wait.mean if wait else 0.0,
        "p95_wait_seconds": wait.p95 if wait else 0.0,
        "median_slowdown": slow.median if slow else 0.0,
        "mean_stage_seconds": stage.mean if stage else 0.0,
        "staged_jobs": float(report.staged_jobs),
        "bytes_staged": float(report.bytes_staged),
    }
    info: Dict[str, str] = {}
    res = report.resilience
    reg = report.registry
    if res is not None:
        total = reg.total
        metrics["faults_injected"] = float(res.faults_injected)
        metrics["jobs_requeued"] = float(res.jobs_requeued)
        metrics["jobs_failed"] = float(res.jobs_failed)
        metrics["tasks_retried"] = float(total("urd.tasks_retried"))
        metrics["tasks_lost"] = float(total("urd.tasks_lost"))
        metrics["node_downtime_seconds"] = res.node_downtime
        metrics["mttr_seconds"] = res.mttr
        metrics["resilience_goodput"] = res.goodput
        metrics["rpc_retries"] = float(total("resilience.retries"))
        metrics["rpc_deadline_expired"] = float(
            total("resilience.deadline_expired"))
        metrics["breaker_opens"] = float(total("resilience.breaker_opens"))
        metrics["requests_shed"] = float(total("resilience.requests_shed"))
        metrics["heartbeat_misses"] = float(
            total("resilience.heartbeat_misses"))
        metrics["duplicates_suppressed"] = float(
            total("rpc.duplicates_suppressed"))
        info["fault_mix"] = ", ".join(
            f"{k}:{n}" for k, n in sorted(res.faults_by_kind.items()))
    ckpt = report.checkpoints
    if ckpt is not None:
        metrics["ckpt_epochs_marked"] = float(ckpt.epochs_marked)
        metrics["ckpt_epochs_resumed"] = float(ckpt.epochs_resumed)
        metrics["ckpt_invalidated"] = float(ckpt.invalidated)
        metrics["ckpt_stages_cleaned"] = float(ckpt.stages_cleaned)

    job_rows = [dataclasses.asdict(m) for m in report.metrics]
    result = RunResult(run_id=spec.run_id, axes=spec.axes, seed=spec.seed,
                       metrics=metrics, info=info,
                       report_text=report.to_text(),
                       job_metrics=job_rows)
    if reg is not None:
        # Deterministic kernel counters ride in runstats (kept out of
        # the merged FleetReport text, rendered by `sweep --perf`).
        from repro.obs.collect import kernel_stats
        result.runstats["kernel"] = kernel_stats(reg)
    if tracer is not None:
        from repro.obs.export import metrics_jsonl, spans_jsonl
        tracer.close_open()
        result.spans_jsonl = spans_jsonl(tracer)
        if reg is not None:
            result.obs_metrics_jsonl = metrics_jsonl(reg)
    return result


def measured_run(spec: RunSpec) -> RunResult:
    """:func:`execute_run` plus wall-time / peak-RSS run statistics."""
    t0 = time.perf_counter()
    result = execute_run(spec)
    wall = time.perf_counter() - t0
    # ru_maxrss is kilobytes on Linux — the lifetime peak of this
    # process, which for a one-run-per-submission pool worker is the
    # run's own footprint (plus warm imports).
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.runstats.update({"wall_seconds": wall,
                            "peak_rss_bytes": int(rss_kb) * 1024,
                            "pid": os.getpid()})
    return result
