"""The DAG pipeline engine: stages → slurm workflows, with recovery.

A :class:`PipelineEngine` drives one :class:`~repro.workflows.pipeline
.PipelineSpec` through a built cluster in *rounds*:

* Each round submits the **lost frontier** — every stage without a
  valid completion checkpoint — as one slurm workflow, with the DAG's
  fan-in/fan-out edges expressed through
  ``JobSpec.workflow_dependencies`` (and ``workflow_join`` for extra
  roots whose prerequisites were already satisfied by checkpoints).
* Stage jobs compute in checkpoint epochs
  (:func:`~repro.workflows.checkpoint.checkpointed_compute`): a
  fault-driven requeue resumes after the last epoch marker instead of
  recomputing the stage.
* When a stage's job completes (outputs staged out to the PFS), its
  completion marker + dataset manifest are persisted; a terminal
  failure (requeue budget spent) cancels downstream stages once, the
  controller cleans their partial artifacts, and the next round
  resubmits only what is actually lost.

Without checkpointing (``checkpoint_interval == 0``) nothing is
persisted, so a failed round replays the *whole* DAG — the baseline the
``checkpoint_sweep`` experiment and the workflow-resilience benchmark
gate compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import ReproError, SimulationEnded
from repro.slurm.job import MIN_TIME_LIMIT, JobSpec, StageDirective
from repro.sim.primitives import all_of
from repro.util.tables import render_table
from repro.workflows.checkpoint import CheckpointStore, checkpointed_compute
from repro.workflows.pipeline import PipelineSpec, StageSpec
from repro.workloads.app import compute_only, phased_program, produce_files

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import ClusterHandle

__all__ = ["PipelineConfig", "RoundReport", "PipelineReport",
           "PipelineEngine"]


@dataclass(frozen=True)
class PipelineConfig:
    """Engine knobs."""

    #: checkpoint epoch length in compute seconds; 0 disables
    #: checkpointing entirely (nothing persisted, full-DAG recovery).
    checkpoint_interval: float = 0.0
    #: bytes each epoch's checkpoint payload writes to the PFS (timed
    #: I/O — the classic checkpoint overhead).  0 = markers only, which
    #: perturbs no timings.
    checkpoint_bytes: int = 0
    #: resubmission rounds before the engine gives up.
    max_rounds: int = 8
    #: per-stage-job requeue budget (None = the controller default).
    stage_max_requeues: Optional[int] = None
    #: node-local dataspace stage data moves through.
    data_nsid: str = "nvme0://"
    #: shared dataspace holding stage outputs and checkpoint artifacts.
    pfs_nsid: str = "lustre://"

    def __post_init__(self) -> None:
        if not (0 <= self.checkpoint_interval < math.inf
                and self.checkpoint_bytes >= 0):
            raise ReproError("checkpoint knobs must be finite and >= 0")
        if self.max_rounds < 1:
            raise ReproError("max_rounds must be at least 1")

    @property
    def checkpointing(self) -> bool:
        return self.checkpoint_interval > 0


@dataclass
class RoundReport:
    """One resubmission round's outcome."""

    round_no: int
    submitted: List[str] = field(default_factory=list)
    #: stage -> terminal job state value ("completed", "failed", ...).
    outcomes: Dict[str, str] = field(default_factory=dict)
    #: stages that actually started running this round.
    executed: List[str] = field(default_factory=list)
    #: per-stage requeues consumed this round.
    requeues: Dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def completed(self) -> List[str]:
        return [s for s in self.submitted
                if self.outcomes.get(s) == "completed"]

    @property
    def lost(self) -> List[str]:
        return [s for s in self.submitted
                if self.outcomes.get(s) != "completed"]


@dataclass
class PipelineReport:
    """Aggregate pipeline run outcome (the recovery report)."""

    pipeline: str
    n_stages: int
    checkpointing: bool
    checkpoint_interval: float
    checkpoint_bytes: int
    rounds: List[RoundReport] = field(default_factory=list)
    completed: bool = False
    makespan: float = 0.0
    #: stage -> times its job was submitted across rounds.
    submissions: Dict[str, int] = field(default_factory=dict)
    #: stage -> times its program actually started running (includes
    #: every requeue re-launch).
    executions: Dict[str, int] = field(default_factory=dict)
    #: compute-seconds executed beyond one ideal pass over the DAG.
    replayed_seconds: float = 0.0
    #: the attached store (None when checkpointing is off).
    checkpoints: Optional[CheckpointStore] = None

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def recovery_submissions(self) -> int:
        """Stage submissions after the first round — the replay cost a
        failure actually incurs."""
        return sum(len(r.submitted) for r in self.rounds[1:])

    def to_text(self) -> str:
        head = render_table(
            ("PIPELINE", "STAGES", "CHECKPOINTING", "INTERVAL",
             "PAYLOAD", "ROUNDS", "COMPLETED"),
            [(self.pipeline, self.n_stages,
              "on" if self.checkpointing else "off",
              f"{self.checkpoint_interval:g}s",
              self.checkpoint_bytes,
              self.n_rounds, "yes" if self.completed else "NO")],
            title="pipeline run")
        round_rows = []
        for r in self.rounds:
            round_rows.append((
                r.round_no, len(r.submitted),
                ",".join(r.submitted) or "-",
                ",".join(r.completed) or "-",
                ",".join(r.lost) or "-",
                sum(r.requeues.values()),
                f"{r.elapsed:g}"))
        rounds = render_table(
            ("ROUND", "N", "SUBMITTED", "COMPLETED", "LOST",
             "REQUEUES", "SIM-S"), round_rows, title="rounds")
        stage_rows = [(name, self.submissions.get(name, 0),
                       self.executions.get(name, 0))
                      for name in sorted(self.submissions)]
        stages = render_table(
            ("STAGE", "SUBMITTED", "EXECUTED"), stage_rows,
            title="per-stage recovery cost")
        summary = render_table(
            ("makespan s", "recovery submissions", "replayed s"),
            [(f"{self.makespan:g}", self.recovery_submissions,
              f"{self.replayed_seconds:g}")],
            title="totals")
        parts = [head, rounds, stages, summary]
        if self.checkpoints is not None:
            parts.append(render_table(("metric", "value"),
                                      self.checkpoints.rows(),
                                      title="checkpoints"))
        return "\n\n".join(parts) + "\n"

    def __str__(self) -> str:
        return self.to_text()


class PipelineEngine:
    """Run one pipeline DAG on one built cluster."""

    def __init__(self, handle: "ClusterHandle", pipeline: PipelineSpec,
                 config: Optional[PipelineConfig] = None) -> None:
        self.handle = handle
        self.sim = handle.sim
        self.ctld = handle.ctld
        self.pipeline = pipeline
        self.config = config or PipelineConfig()
        self.store: Optional[CheckpointStore] = None
        if self.config.checkpointing:
            existing = getattr(self.ctld, "checkpoints", None)
            self.store = existing if isinstance(existing, CheckpointStore) \
                else CheckpointStore.attach(handle)

    # -- key/path helpers -------------------------------------------------
    def stage_key(self, stage: str) -> str:
        return f"{self.pipeline.name}/{stage}"

    def _out_dir(self, stage: str) -> str:
        return f"/pipe/{self.pipeline.name}/{stage}"

    def _stage_done(self, stage: StageSpec) -> bool:
        if self.store is None:
            return False      # nothing persisted: recovery replays all
        return self.store.is_complete(self.stage_key(stage.name))

    # -- spec construction ------------------------------------------------
    def _stage_spec(self, s: StageSpec, first_job_id: Optional[int],
                    live_deps: List[int]) -> JobSpec:
        cfg = self.config
        base = f"/pipe/{s.name}"
        stage_in = tuple(
            StageDirective("stage_in",
                           _loc(cfg.pfs_nsid, f"{self._out_dir(d)}/"),
                           _loc(cfg.data_nsid, f"{base}/in/{d}/"),
                           "single")
            for d in s.deps)
        stage_out = (StageDirective(
            "stage_out", _loc(cfg.data_nsid, f"{base}/out/"),
            _loc(cfg.pfs_nsid, f"{self._out_dir(s.name)}/"),
            "gather"),)
        key = self.stage_key(s.name)
        if self.store is not None:
            compute = checkpointed_compute(
                self.store, key, s.runtime, cfg.checkpoint_interval,
                payload_bytes=cfg.checkpoint_bytes,
                pfs_nsid=cfg.pfs_nsid)
        else:
            compute = compute_only(s.runtime)
        phases = []
        for d in s.deps:
            dep = self.pipeline.stage(d)
            phases.append(_consume_stage(cfg.data_nsid,
                                         f"{base}/in/{d}",
                                         dep.nodes, dep.out_files))
        phases.append(compute)
        per_file = max(1, s.out_bytes // (s.out_files * s.nodes))
        phases.append(produce_files(
            cfg.data_nsid, f"{base}/out", s.out_files, per_file,
            compute_seconds=0.0, token_prefix=f"{self.pipeline.name}:"
                                              f"{s.name}:"))
        io_bytes = s.out_bytes + sum(
            self.pipeline.stage(d).out_bytes for d in s.deps)
        limit = max(MIN_TIME_LIMIT,
                    s.runtime * 4.0 + io_bytes / 100e6)
        return JobSpec(
            name=f"{self.pipeline.name}:{s.name}", nodes=s.nodes,
            time_limit=limit,
            program=phased_program(*phases),
            workflow_start=first_job_id is None,
            workflow_dependencies=tuple(live_deps),
            workflow_join=(first_job_id
                           if first_job_id is not None and not live_deps
                           else None),
            stage_in=stage_in, stage_out=stage_out,
            checkpoint_key=key if self.store is not None else "",
            max_requeues=cfg.stage_max_requeues)

    # -- the round loop ---------------------------------------------------
    def run(self) -> PipelineReport:
        topo = self.pipeline.topological()
        report = PipelineReport(
            pipeline=self.pipeline.name, n_stages=len(topo),
            checkpointing=self.config.checkpointing,
            checkpoint_interval=self.config.checkpoint_interval,
            checkpoint_bytes=self.config.checkpoint_bytes,
            checkpoints=self.store)
        start = self.sim.now
        tracer = self.sim.tracer
        root = -1 if tracer is None else tracer.begin(
            "workflow", self.pipeline.name or "pipeline",
            track=self.pipeline.name,
            args={"stages": len(topo)})
        for round_no in range(1, self.config.max_rounds + 1):
            frontier = [s for s in topo if not self._stage_done(s)]
            if not frontier:
                report.completed = True
                break
            rsid = -1 if tracer is None else tracer.begin(
                "workflow", f"round{round_no}", track=self.pipeline.name,
                parent=root, args={"frontier": len(frontier)})
            rnd = self._run_round(round_no, frontier)
            if rsid >= 0:
                tracer.end(rsid, args={"lost": len(rnd.lost)})
            report.rounds.append(rnd)
            for name in rnd.submitted:
                report.submissions[name] = \
                    report.submissions.get(name, 0) + 1
            for name in rnd.executed:
                report.executions[name] = \
                    report.executions.get(name, 0) + \
                    1 + rnd.requeues.get(name, 0)
            if self.store is None and not rnd.lost:
                report.completed = True
                break
        else:
            # max_rounds exhausted; a final frontier check decides.
            report.completed = not [s for s in topo
                                    if not self._stage_done(s)]
        if self.store is not None and not report.rounds:
            report.completed = True
        report.makespan = self.sim.now - start
        report.replayed_seconds = self._replayed_seconds(report)
        if root >= 0:
            tracer.end(root, args={"completed": report.completed,
                                   "rounds": len(report.rounds)})
        return report

    def _run_round(self, round_no: int,
                   frontier: List[StageSpec]) -> RoundReport:
        rnd = RoundReport(round_no=round_no)
        t0 = self.sim.now
        frontier_names = {s.name for s in frontier}
        jobs: Dict[str, object] = {}
        first_job_id: Optional[int] = None
        for s in frontier:
            live = [jobs[d].job_id for d in s.deps
                    if d in frontier_names]
            spec = self._stage_spec(s, first_job_id, live)
            job = self.ctld.submit(spec)
            jobs[s.name] = job
            if first_job_id is None:
                first_job_id = job.job_id
            rnd.submitted.append(s.name)
        gate = all_of(self.sim, [j.done for j in jobs.values()])
        try:
            self.sim.run(gate)
        except SimulationEnded:
            # A permanent fault stranded part of the round (e.g. a
            # crashed node that never reboots): cancel the leftovers so
            # the next round starts from a clean queue.
            for name, job in jobs.items():
                if not job.state.is_terminal:
                    self.ctld.cancel(job.job_id,
                                     reason="pipeline round stranded")
        for name, job in jobs.items():
            rnd.outcomes[name] = job.state.value
            rec = self.ctld.accounting.get(job.job_id)
            if rec is not None and rec.start_time is not None:
                rnd.executed.append(name)
            if rec is not None and rec.requeues:
                rnd.requeues[name] = rec.requeues
        if self.store is not None:
            for s in frontier:
                job = jobs[s.name]
                if job.state.value == "completed":
                    key = self.stage_key(s.name)
                    manifest = self._stage_manifest(s.name)
                    self.store.mark_complete(key, manifest)
        rnd.elapsed = self.sim.now - t0
        return rnd

    def _stage_manifest(self, stage: str) -> List[str]:
        """The datasets a completed stage left on the PFS."""
        if self.handle.pfs is None:
            return []
        ns = self.handle.pfs.ns
        prefix = self._out_dir(stage)
        if not ns.is_dir(prefix):
            return []
        return sorted(path for path, _c in ns.walk_files(prefix))

    def _replayed_seconds(self, report: PipelineReport) -> float:
        """Compute-seconds spent beyond one ideal pass over the DAG."""
        replayed = 0.0
        if self.store is not None:
            interval = self.config.checkpoint_interval
            for (key, _epoch), n in self.store.epoch_executions.items():
                if n > 1:
                    name = key.rsplit("/", 1)[-1]
                    try:
                        runtime = self.pipeline.stage(name).runtime
                    except ReproError:
                        continue
                    chunk = min(interval, runtime) if interval > 0 \
                        else runtime
                    replayed += (n - 1) * chunk
            return replayed
        for name, n in report.executions.items():
            if n > 1:
                replayed += (n - 1) * self.pipeline.stage(name).runtime
        return replayed


def _loc(nsid: str, path: str) -> str:
    """Join an ``nsid://`` prefix and an absolute path into a locator."""
    return f"{nsid}{path.lstrip('/')}"


def _consume_stage(nsid: str, directory: str, producer_nodes: int,
                   files_per_rank: int):
    """Rank 0 reads every file a producer stage staged in ("single"
    mapping: only rank 0's node holds the data)."""

    def program(ctx):
        if ctx.rank != 0:
            return
        for r in range(producer_nodes):
            for i in range(files_per_rank):
                path = f"{directory.rstrip('/')}/r{r}_f{i}.dat"
                yield ctx.read(nsid, path)

    return program
