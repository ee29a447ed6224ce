"""Trace-driven replay: feed a workload trace through slurmctld/urd.

The :class:`TraceReplayer` is the load generator the ROADMAP's
heavy-traffic goal calls for.  It takes any :class:`~repro.traces
.records.Trace` (parsed from SWF/JSONL or synthesized), maps each
record onto a real :class:`~repro.slurm.job.JobSpec` — including NORNS
stage-in/stage-out directives and the paper's workflow dependencies —
and submits it on the simulation clock at a configurable
time-compression, optionally batching submissions into windows to
amortize scheduler wake-ups.

Per-job metrics (wait time, bounded slowdown, staging time and the
urd's staging-E.T.A. error) are streamed into a
:class:`ReplayReport` as each job reaches a terminal state, then
summarized via :mod:`repro.util.stats` and rendered with
:mod:`repro.util.tables`.  The report's :meth:`ReplayReport.to_text`
output is deterministic: same trace + same seed ⇒ byte-identical text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import ReproError, SimulationEnded
from repro.slurm.job import (
    MIN_TIME_LIMIT, Job, JobSpec, PersistDirective, StageDirective,
)
from repro.traces.records import Trace, TraceJob
from repro.util.stats import Summary, summarize
from repro.util.tables import render_table
from repro.util.units import format_bytes
from repro.workloads.app import (
    compute_only, consume_files, phased_program, produce_files,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import ClusterHandle

__all__ = ["ReplayConfig", "JobMetric", "ReplayReport", "TraceReplayer"]

#: bounded-slowdown threshold (seconds), the literature's tau.
BOUNDED_SLOWDOWN_TAU = 10.0


@dataclass(frozen=True)
class ReplayConfig:
    """Replay-driver knobs."""

    #: divide trace inter-arrival times by this (1 = real trace pacing).
    time_compression: float = 1.0
    #: coalesce submissions into windows of this many (compressed)
    #: seconds; 0 = submit each job at its exact arrival instant.
    batch_window: float = 0.0
    #: scale factor on trace run times (shrink jobs for quick runs).
    runtime_scale: float = 1.0
    #: clip jobs wider than the cluster instead of refusing the trace.
    clip_nodes: bool = True
    #: scheduling-policy name (:mod:`repro.slurm.policies` registry) to
    #: replay under; "" keeps the cluster's configured policy and the
    #: legacy report layout.  When set, the report head grows a POLICY
    #: column so per-policy A/B runs label themselves.
    scheduler: str = ""
    #: fault plan (:class:`~repro.faults.FaultPlan`) injected during the
    #: replay, times anchored at the driver start.  ``None`` = no
    #: injector at all; a zero-fault plan arms the injector but changes
    #: nothing (the report stays byte-identical).  Fault records
    #: embedded in the trace itself are merged in either way.
    fault_plan: Optional[object] = None
    #: checkpoint epoch length (compute seconds) for jobs flagged
    #: ``checkpoint`` in the trace; > 0 attaches a
    #: :class:`~repro.workflows.checkpoint.CheckpointStore` so requeued
    #: jobs resume after their last epoch.  0 = no store (flagged jobs
    #: still run the epoch-structured program, so a zero-fault
    #: checkpointed replay stays byte-identical to interval 0).
    checkpoint_interval: float = 0.0
    #: bytes each checkpoint epoch writes to the PFS (timed I/O).
    checkpoint_bytes: int = 0

    def __post_init__(self) -> None:
        # (chained against inf, so NaN fails every check too)
        if not 0 < self.time_compression < math.inf:
            raise ReproError("time_compression must be positive and finite")
        if not 0 < self.runtime_scale < math.inf:
            raise ReproError("runtime_scale must be positive and finite")
        if not 0 <= self.batch_window < math.inf:
            raise ReproError("batch_window must be finite and >= 0")
        if not (0 <= self.checkpoint_interval < math.inf
                and self.checkpoint_bytes >= 0):
            raise ReproError("checkpoint knobs must be finite and >= 0")
        if self.scheduler:
            from repro.slurm.policies import available_policies
            names = {name for name, _ in available_policies()}
            if self.scheduler not in names:
                raise ReproError(
                    f"unknown scheduler {self.scheduler!r} "
                    f"(registered: {', '.join(sorted(names))})")
        if self.fault_plan is not None:
            from repro.faults import FaultPlan
            if not isinstance(self.fault_plan, FaultPlan):
                raise ReproError(
                    f"fault_plan must be a FaultPlan, "
                    f"got {type(self.fault_plan).__name__}")


@dataclass
class JobMetric:
    """One job's replay outcome (streamed as the job terminates)."""

    trace_id: int
    job_id: int
    state: str
    nodes: int
    submitted: float           # sim time relative to replay start
    wait: Optional[float]      # queue wait (submit -> allocation)
    service: Optional[float]   # allocation -> end (stage + run + stage)
    response: Optional[float]  # submit -> end
    slowdown: Optional[float]  # bounded slowdown
    staged_bytes: int = 0
    stage_seconds: float = 0.0
    #: mean absolute relative error of the urd staging E.T.A.s over the
    #: job's staging phases (None: no staging with a prediction)
    eta_error: Optional[float] = None


@dataclass
class ReplayReport:
    """Aggregate replay outcome + per-job metric stream."""

    trace_name: str
    n_jobs: int
    n_nodes: int
    time_compression: float
    batch_window: float
    #: scheduling-policy label; "" = cluster default (legacy layout).
    policy: str = ""
    #: resilience outcome (:class:`~repro.faults.ResilienceStats`) —
    #: present only when the replay injected at least one fault, so
    #: zero-fault reports stay byte-identical to the golden layout.
    resilience: Optional[object] = None
    #: attached :class:`~repro.workflows.checkpoint.CheckpointStore`;
    #: its table renders only on faulted runs (with ``resilience``), so
    #: zero-fault checkpointed reports stay byte-identical to the
    #: non-checkpointed layout.
    checkpoints: Optional[object] = None
    #: unified :class:`repro.obs.MetricsRegistry` built at finalize —
    #: kernel, scheduler, urd, RPC, resilience and flow counters under
    #: canonical names.  The resilience table and the ``perf=True``
    #: kernel footer read their counters from it.
    registry: Optional[object] = None
    metrics: List[JobMetric] = field(default_factory=list)
    state_counts: Dict[str, int] = field(default_factory=dict)
    makespan: float = 0.0
    node_utilization: float = 0.0
    nvm_capacity_turnover: float = 0.0
    bytes_staged: int = 0
    staged_jobs: int = 0

    def ingest(self, metric: JobMetric) -> None:
        self.metrics.append(metric)
        self.state_counts[metric.state] = \
            self.state_counts.get(metric.state, 0) + 1
        self.bytes_staged += metric.staged_bytes
        if metric.staged_bytes:
            self.staged_jobs += 1

    # -- aggregate views -------------------------------------------------
    @property
    def completed(self) -> int:
        return self.state_counts.get("completed", 0)

    @property
    def throughput_per_hour(self) -> float:
        """Completed jobs per simulated hour."""
        if self.makespan <= 0:
            return 0.0
        return self.completed / (self.makespan / 3600.0)

    def _summary(self, values: List[float]) -> Optional[Summary]:
        return summarize(values) if values else None

    @property
    def wait_summary(self) -> Optional[Summary]:
        return self._summary([m.wait for m in self.metrics
                              if m.state == "completed"
                              and m.wait is not None])

    @property
    def slowdown_summary(self) -> Optional[Summary]:
        return self._summary([m.slowdown for m in self.metrics
                              if m.state == "completed"
                              and m.slowdown is not None])

    @property
    def stage_summary(self) -> Optional[Summary]:
        return self._summary([m.stage_seconds for m in self.metrics
                              if m.state == "completed"
                              and m.stage_seconds > 0])

    @property
    def eta_error_summary(self) -> Optional[Summary]:
        return self._summary([abs(m.eta_error) for m in self.metrics
                              if m.state == "completed"
                              and m.eta_error is not None])

    # -- rendering -------------------------------------------------------
    def to_text(self, perf: bool = False) -> str:
        """Deterministic plain-text report (no wall-clock content).

        The POLICY column appears only when a policy was explicitly
        selected, keeping default-policy output byte-stable across the
        scheduling-engine refactor.  ``perf=True`` appends an
        event-kernel footer (dispatch counters, compactions) — off by
        default so golden files stay byte-identical under both kernels.
        """
        headers = ["TRACE", "JOBS", "NODES", "COMPRESSION", "BATCH-WINDOW"]
        row = [self.trace_name, self.n_jobs, self.n_nodes,
               f"{self.time_compression:g}x", f"{self.batch_window:g}s"]
        if self.policy:
            headers.append("POLICY")
            row.append(self.policy)
        head = render_table(tuple(headers), [tuple(row)],
                            title="trace replay")
        states = render_table(
            ("STATE", "JOBS"),
            [(s, n) for s, n in sorted(self.state_counts.items())],
            title="outcomes")
        rows = []
        for label, summ in (("wait s", self.wait_summary),
                            ("bounded slowdown", self.slowdown_summary),
                            ("staging s", self.stage_summary),
                            ("|eta error|", self.eta_error_summary)):
            if summ is None:
                rows.append((label, 0, "-", "-", "-", "-"))
            else:
                rows.append((label, summ.n, summ.mean, summ.median,
                             summ.p95, summ.max))
        dist = render_table(
            ("metric", "n", "mean", "median", "p95", "max"), rows,
            title="per-job metrics (completed jobs)")
        totals = render_table(
            ("makespan s", "jobs/sim-hour", "node util",
             "staged", "staged jobs", "nvm turnover"),
            [(self.makespan, self.throughput_per_hour,
              f"{self.node_utilization:.3f}",
              format_bytes(self.bytes_staged), self.staged_jobs,
              f"{self.nvm_capacity_turnover:.4f}")],
            title="cluster totals")
        parts = [head, states, dist, totals]
        if self.resilience is not None:
            from repro.faults import resilience_table
            parts.append(resilience_table(self.resilience, self.registry))
            if self.checkpoints is not None:
                parts.append(render_table(("metric", "value"),
                                          self.checkpoints.rows(),
                                          title="checkpoints"))
        if perf and self.registry is not None:
            from repro.obs.collect import kernel_table
            parts.append(kernel_table(self.registry))
        return "\n\n".join(parts) + "\n"

    def __str__(self) -> str:
        return self.to_text()


class TraceReplayer:
    """Drive a trace through a built cluster's slurmctld."""

    def __init__(self, handle: "ClusterHandle", trace: Trace,
                 config: Optional[ReplayConfig] = None,
                 on_metric: Optional[Callable[[JobMetric], None]] = None
                 ) -> None:
        self.handle = handle
        self.sim = handle.sim
        self.ctld = handle.ctld
        self.config = config or ReplayConfig()
        self.trace = trace.normalized()
        self.on_metric = on_metric
        self._jobs_by_tid: Dict[int, Job] = {}
        self._trace_by_tid: Dict[int, TraceJob] = {
            j.job_id: j for j in self.trace.jobs}
        self._produced_bytes = 0
        self._start = self.sim.now
        if self.config.scheduler:
            self.ctld.set_policy(self.config.scheduler)
        self._fault_plan = self._merged_fault_plan()
        self._ckpt_store = None
        if self.config.checkpoint_interval > 0:
            from repro.workflows.checkpoint import CheckpointStore
            self._ckpt_store = CheckpointStore.attach(handle)
        n = len(handle.ctld.slurmds)
        self.report = ReplayReport(
            trace_name=self.trace.name, n_jobs=self.trace.n_jobs,
            n_nodes=n, time_compression=self.config.time_compression,
            batch_window=self.config.batch_window,
            policy=self.config.scheduler)

    def _merged_fault_plan(self):
        """The explicit plan plus any fault records the trace carries."""
        import dataclasses as _dc
        plan = self.config.fault_plan
        if not self.trace.faults:
            return plan
        from repro.faults import FaultPlan
        if plan is None:
            return FaultPlan(name=f"{self.trace.name}:faults",
                             records=self.trace.faults)
        return _dc.replace(plan,
                           records=plan.records + self.trace.faults)

    # -- public ----------------------------------------------------------
    def run(self) -> ReplayReport:
        """Replay the whole trace; returns the finished report."""
        from repro.faults import arm_plan, end_plan
        ordered = self.trace.sorted_jobs()
        if not ordered:
            return self.report
        seeds = [t for t in ordered
                 if t.stage_in_bytes > 0 and t.dependency is None]
        if seeds:
            if self.handle.pfs is None:
                raise ReproError(
                    "trace needs PFS input seeding but the cluster "
                    "has no parallel filesystem")
            self.sim.run(self.sim.process(self._seed(seeds),
                                          name="replay:seed"))
        start = self._start = self.sim.now
        injector = arm_plan(self.handle, self._fault_plan, at=start)
        driver = self.sim.process(self._drive(ordered, start),
                                  name="replay:driver")
        self.sim.run(driver)
        try:
            self.sim.run(self.ctld.drain())
        except SimulationEnded:
            # A permanent fault stranded pending work (e.g. a crashed
            # node that never reboots under-sizes the partition for a
            # wide job): report what did run.
            for tid in sorted(self._jobs_by_tid):
                if not self._jobs_by_tid[tid].state.is_terminal:
                    self.report.state_counts["stranded"] = \
                        self.report.state_counts.get("stranded", 0) + 1
        self._finalize(start)
        self.report.checkpoints = self._ckpt_store
        self.report.resilience = end_plan(
            injector, completed_jobs=self.report.completed,
            total_jobs=self.trace.n_jobs)
        return self.report

    # -- phases ----------------------------------------------------------
    def _seed(self, seeds: List[TraceJob]):
        """Pre-create PFS input datasets for root stage-in jobs."""
        for tj in seeds:
            n_files = max(1, tj.stage_in_files)
            per_file = max(1, int(tj.stage_in_bytes) // n_files)
            for i in range(n_files):
                yield self.handle.pfs.write(
                    None, f"{_seed_dir(tj.job_id)}/r0_f{i}.dat",
                    per_file, token=f"seed:{tj.job_id}:{i}")

    def _drive(self, ordered: List[TraceJob], start: float):
        """Submit every job at its compressed (batched) arrival time."""
        first = ordered[0].submit_time
        window = self.config.batch_window
        for tj in ordered:
            offset = (tj.submit_time - first) / self.config.time_compression
            if window > 0:
                # Coalesce to the end of the arrival's window.
                offset = math.ceil(offset / window) * window \
                    if offset > 0 else 0.0
            target = start + offset
            if target > self.sim.now:
                yield self.sim.timeout(target - self.sim.now)
            self._submit(tj)

    def _submit(self, tj: TraceJob) -> None:
        spec = self._spec(tj)
        job = self.ctld.submit(spec)
        self._jobs_by_tid[tj.job_id] = job
        job.done.add_callback(
            lambda _ev, tj=tj, job=job: self._collect(tj, job))

    # -- spec construction -----------------------------------------------
    def _spec(self, tj: TraceJob) -> JobSpec:
        cfg = self.config
        n_cluster = len(self.ctld.slurmds)
        nodes = tj.nodes
        if nodes > n_cluster:
            if not cfg.clip_nodes:
                raise ReproError(
                    f"trace job {tj.job_id} wants {nodes} nodes, "
                    f"cluster has {n_cluster}")
            nodes = n_cluster
        run = tj.runtime * cfg.runtime_scale
        in_bytes = int(tj.stage_in_bytes)
        out_bytes = int(tj.stage_out_bytes)
        in_files = max(1, tj.stage_in_files) if in_bytes else 0
        out_files = max(1, tj.stage_out_files) if out_bytes else 0
        base = f"/replay/j{tj.job_id}"

        deps = tj.dependencies
        stage_in = ()
        phases = []
        if in_bytes:
            if len(deps) > 1:
                # Fan-in: one "single" directive per prerequisite, each
                # into its own directory so datasets don't collide.
                dirs = []
                for d in deps:
                    dirs.append(StageDirective(
                        "stage_in", f"lustre:/{_out_dir(d)}/",
                        f"nvme0:/{base}/in{d}/", "single"))
                    dep = self._trace_by_tid.get(d)
                    files = max(1, dep.stage_out_files) if dep else in_files
                    phases.append(_rank0_consume(
                        "nvme0://", f"{base}/in{d}", files))
                stage_in = tuple(dirs)
            else:
                if deps:
                    origin = f"lustre:/{_out_dir(deps[0])}/"
                    dep = self._trace_by_tid.get(deps[0])
                    in_files = max(1, dep.stage_out_files) if dep \
                        else in_files
                else:
                    origin = f"lustre:/{_seed_dir(tj.job_id)}/"
                # "single" keeps the staged volume equal to the trace's
                # declaration whatever the node count ("replicate" would
                # silently multiply it by the allocation width); only rank
                # 0's node holds the data, so only rank 0 consumes it.
                stage_in = (StageDirective("stage_in", origin,
                                           f"nvme0:/{base}/in/", "single"),)
                phases.append(_rank0_consume("nvme0://", f"{base}/in",
                                             in_files))

        stage_out = ()
        if out_bytes:
            # Spread the trace-declared volume across the allocation:
            # every rank produces out_files files, aggregating to
            # ~out_bytes total, which stage-out gathers back.
            per_file = max(1, out_bytes // (out_files * nodes))
            stage_out = (StageDirective("stage_out", f"nvme0:/{base}/out/",
                                        f"lustre:/{_out_dir(tj.job_id)}/",
                                        "gather"),)
            if tj.checkpoint:
                # Epoch-structured: all compute first (resumable), then
                # the writes — same shape whatever the interval, so a
                # zero-fault checkpointed replay is byte-identical to
                # the interval-0 run of the same trace.
                phases.append(self._compute_phase(tj, run))
                phases.append(produce_files(
                    "nvme0://", f"{base}/out", out_files, per_file,
                    compute_seconds=0.0,
                    token_prefix=f"t{tj.job_id}:"))
            else:
                phases.append(produce_files(
                    "nvme0://", f"{base}/out", out_files, per_file,
                    compute_seconds=run, interleave=True,
                    token_prefix=f"t{tj.job_id}:"))
        else:
            phases.append(self._compute_phase(tj, run)
                          if tj.checkpoint else compute_only(run))

        persist = ()
        if tj.persist and out_bytes:
            persist = (PersistDirective("store", f"nvme0:/{base}/out/"),)

        program = phases[0] if len(phases) == 1 else phased_program(*phases)
        # Generous limit: the trace's padded request scaled down, plus an
        # I/O allowance so staging-heavy jobs don't cascade TIMEOUTs.
        io_allowance = (in_bytes + out_bytes) / 500e6
        limit = max(MIN_TIME_LIMIT,
                    tj.time_limit() * cfg.runtime_scale + io_allowance)
        return JobSpec(
            name=f"t{tj.job_id}", nodes=nodes, user=f"user{tj.user}",
            time_limit=limit, program=program,
            workflow_start=tj.workflow_start,
            workflow_prior_dependency=(
                self._jobs_by_tid[deps[0]].job_id
                if len(deps) == 1 else None),
            workflow_dependencies=(
                tuple(self._jobs_by_tid[d].job_id for d in deps)
                if len(deps) > 1 else ()),
            workflow_end=False,
            stage_in=stage_in, stage_out=stage_out, persist=persist,
            checkpoint_key=(self._ckpt_key(tj)
                            if self._ckpt_store is not None
                            and tj.checkpoint else ""),
            max_requeues=(tj.max_requeues if tj.max_requeues >= 0
                          else None))

    def _ckpt_key(self, tj: TraceJob) -> str:
        return f"t{tj.job_id}"

    def _compute_phase(self, tj: TraceJob, run: float):
        """The compute phase of a ``checkpoint``-flagged job: epoch
        chunks against the store when one is attached, or the plain
        single-chunk equivalent (identical virtual timings) without."""
        if self._ckpt_store is not None and run > 0:
            from repro.workflows.checkpoint import checkpointed_compute
            return checkpointed_compute(
                self._ckpt_store, self._ckpt_key(tj), run,
                self.config.checkpoint_interval,
                payload_bytes=self.config.checkpoint_bytes)
        return compute_only(run)

    # -- metric streaming ------------------------------------------------
    def _collect(self, tj: TraceJob, job: Job) -> None:
        if self._ckpt_store is not None and tj.checkpoint \
                and job.state.value == "completed":
            # Compact the job's epoch markers into a completion marker
            # (datasets it staged out, if any, form the manifest).
            datasets = (f"lustre:/{_out_dir(tj.job_id)}/",) \
                if tj.stage_out_bytes > 0 else ()
            self._ckpt_store.mark_complete(self._ckpt_key(tj), datasets)
        rec = self.ctld.accounting.get(job.job_id)
        tau = BOUNDED_SLOWDOWN_TAU
        wait = rec.wait_seconds if rec else None
        service = rec.total_seconds if rec else None
        response = None
        slowdown = None
        if rec and rec.end_time is not None:
            response = rec.end_time - rec.submit_time
            if service is not None and service > 0:
                slowdown = max(1.0, response / max(service, tau))
        staged = (rec.bytes_staged_in + rec.bytes_staged_out) if rec else 0
        stage_seconds = (rec.stage_in_seconds + rec.stage_out_seconds) \
            if rec else 0.0
        eta_error = None
        if rec:
            # Absolute per-phase errors: a too-low stage-in estimate
            # must not cancel against a too-high stage-out one.
            errs = []
            if rec.stage_in_seconds > 0 and rec.stage_in_eta_seconds > 0:
                errs.append(abs(rec.stage_in_seconds
                                - rec.stage_in_eta_seconds)
                            / rec.stage_in_seconds)
            if rec.stage_out_seconds > 0 and rec.stage_out_eta_seconds > 0:
                errs.append(abs(rec.stage_out_seconds
                                - rec.stage_out_eta_seconds)
                            / rec.stage_out_seconds)
            if errs:
                eta_error = sum(errs) / len(errs)
        if job.state.value == "completed" and tj.stage_out_bytes > 0:
            # NVM production counted only for jobs that actually ran
            # their produce phase to completion (same arithmetic as the
            # produce_files phase in _spec).
            out_bytes = int(tj.stage_out_bytes)
            out_files = max(1, tj.stage_out_files)
            nodes = len(job.allocated_nodes) or 1
            per_file = max(1, out_bytes // (out_files * nodes))
            self._produced_bytes += per_file * out_files * nodes
        metric = JobMetric(
            trace_id=tj.job_id, job_id=job.job_id, state=job.state.value,
            nodes=len(job.allocated_nodes) or tj.nodes,
            submitted=job.submit_time - self._start, wait=wait,
            service=service, response=response, slowdown=slowdown,
            staged_bytes=staged, stage_seconds=stage_seconds,
            eta_error=eta_error)
        self.report.ingest(metric)
        if self.on_metric is not None:
            self.on_metric(metric)

    # -- aggregation -----------------------------------------------------
    def _finalize(self, start: float) -> None:
        report = self.report
        records = [self.ctld.accounting.get(j.job_id)
                   for j in self._jobs_by_tid.values()]
        ends = [r.end_time for r in records if r and r.end_time is not None]
        report.makespan = (max(ends) - start) if ends else 0.0
        n_nodes = len(self.ctld.slurmds)
        if report.makespan > 0:
            busy = sum((r.end_time - r.alloc_time) * len(r.nodes)
                       for r in records
                       if r and r.alloc_time is not None
                       and r.end_time is not None)
            report.node_utilization = busy / (n_nodes * report.makespan)
        nvm_capacity = _nvm_capacity(self.handle)
        if nvm_capacity > 0:
            moved = sum(r.bytes_staged_in for r in records if r) \
                + self._produced_bytes
            report.nvm_capacity_turnover = moved / (nvm_capacity * n_nodes)
        # The unified metrics registry: every report format (replay
        # text, resilience table, fleet artifacts, the perf footer)
        # renders subsystem counters from this one snapshot.
        from repro.obs.collect import collect_cluster, collect_replay
        from repro.obs.metrics import MetricsRegistry
        reg = MetricsRegistry()
        collect_cluster(reg, self.handle)
        collect_replay(reg, report)
        report.registry = reg


def _rank0_consume(nsid: str, directory: str, n_files: int):
    """Read the staged-in files on rank 0 only ("single" mapping)."""
    inner = consume_files(nsid, directory, n_files, producer_rank=0)

    def program(ctx):
        if ctx.rank != 0:
            return
        yield from inner(ctx)

    return program


def _seed_dir(trace_id: int) -> str:
    return f"/replay/in/j{trace_id}"


def _out_dir(trace_id: int) -> str:
    return f"/replay/out/j{trace_id}"


def _nvm_capacity(handle: "ClusterHandle") -> float:
    for dev in handle.spec.nodes.devices:
        if dev.name == "nvme0":
            return float(dev.capacity)
    return 0.0
