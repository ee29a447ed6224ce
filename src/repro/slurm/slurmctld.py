"""slurmctld: the controller daemon tying scheduling, workflows, NORNS
staging and accounting together.

The control flow per job follows Section III end to end::

    PENDING --(allocation)--> CONFIGURING   register job on nodes,
                                            trigger stage_in, wait for
                                            data (or timeout -> FAILED +
                                            cleanup + cancel dependents)
    CONFIGURING --> RUNNING                 launch one step per node
    RUNNING --> STAGING_OUT                 stage_out (failures leave
                                            data), persist ops, cleanup
    STAGING_OUT --> COMPLETED               tracked-dataspace check,
                                            unregister, release nodes

Scheduling is event-driven: every submission, completion or staging
transition queues a wake-up that kicks the scheduling engine.  The
engine is pluggable (:mod:`repro.slurm.policies`): the controller
maintains an incremental :class:`~repro.slurm.policies.SchedulerState`
(priority-indexed pending queue, O(1) free-node set, dirty flags) and
the configured :class:`~repro.slurm.policies.SchedulingPolicy` turns it
into allocation decisions — a pass re-examines only what changed
instead of rescanning every job per event.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import (
    Interrupted, SlurmError, StagingFailure, UnknownJob,
)
from repro.sim.core import Simulator
from repro.sim.primitives import all_of, any_of
from repro.sim.resources import Store
from repro.slurm.accounting import AccountingLog
from repro.slurm.job import Job, JobSpec, JobState
from repro.slurm.policies import DEFAULT_POLICY, SchedulerState, create_policy
from repro.slurm.scheduler import PriorityCalculator
from repro.slurm.script import parse_batch_script
from repro.slurm.selector import NodeSelector
from repro.slurm.slurmd import Slurmd
from repro.slurm.staging import PersistRegistry, StagingCoordinator
from repro.slurm.workflow import WorkflowManager

__all__ = ["SlurmConfig", "Slurmctld"]


@dataclass
class SlurmConfig:
    """Controller policy knobs (the ablation axes)."""

    #: Execute #NORNS staging directives (off = paper's baseline where
    #: applications hit the PFS directly).
    staging_enabled: bool = True
    #: Prefer nodes already holding a job's input data.
    data_aware_placement: bool = True
    #: Age factor for priorities (per second).
    age_weight: float = 1.0 / 3600.0
    #: Scheduling-policy name from the :mod:`repro.slurm.policies`
    #: registry ("fifo", "backfill", "conservative", "staging-aware",
    #: ...).
    policy: str = DEFAULT_POLICY
    #: How many times a job knocked out by a node failure is put back
    #: in the pending queue before it is failed for good.
    max_requeues: int = 3
    #: Also requeue (instead of FAIL) on staging/step failures — the
    #: fault-injection subsystem turns this on so transient faults
    #: (daemon restarts, corrupted transfers) heal instead of killing
    #: workflows.  Off by default: the paper's Section III semantics
    #: terminate a job whose stage-in fails.
    requeue_on_failure: bool = False


class _Knockout:
    """Interrupt payload: a job lost its footing (node failure or an
    operator requeue) and its jobctl process must unwind and requeue."""

    __slots__ = ("reason", "force")

    def __init__(self, reason: str, force: bool = False) -> None:
        self.reason = reason
        #: operator requeue: bypass the requeue budget.
        self.force = force

    def __str__(self) -> str:
        return self.reason


class Slurmctld:
    """The cluster controller."""

    def __init__(self, sim: Simulator, slurmds: Dict[str, Slurmd],
                 config: Optional[SlurmConfig] = None) -> None:
        if not slurmds:
            raise SlurmError("slurmctld needs at least one slurmd")
        self.sim = sim
        self.slurmds = slurmds
        self.config = config or SlurmConfig()
        self.workflows = WorkflowManager()
        self.persist = PersistRegistry()
        self.staging = StagingCoordinator(sim, slurmds, self.persist)
        self.selector = NodeSelector(
            self.persist, data_aware=self.config.data_aware_placement)
        self.priorities = PriorityCalculator(self.config.age_weight)
        self.state = SchedulerState(
            self.priorities, workflows=self.workflows,
            selector=self.selector, free_nodes=slurmds,
            stage_in_estimator=self._estimate_stage_in_seconds)
        self.policy = create_policy(self.config.policy)
        self.accounting = AccountingLog()
        #: optional attached CheckpointStore (see repro.workflows):
        #: the failure path consults it to clean partial stage
        #: artifacts and annotate checkpoint-aware requeues.
        self.checkpoints = None
        self._jobs: Dict[int, Job] = {}
        #: per-controller job-id allocator: ids are a pure function of
        #: this cluster's submission history, not of how many other
        #: simulations the process ran before (keeps run artifacts
        #: byte-identical across serial / pooled sweep execution).
        self._job_ids = itertools.count(1000)
        #: node -> reason for every drained / down node.
        self._drained: Dict[str, str] = {}
        self._down: Dict[str, str] = {}
        #: scheduler-pass counters, exported through the repro.obs
        #: metrics registry (sched.passes / sched.decisions).
        self.sched_passes = 0
        self.sched_decisions = 0
        #: open-span bookkeeping, populated only while ``sim.tracer``
        #: is attached: job_id -> sid of the root / wait / phase span.
        self._obs_job: Dict[int, int] = {}
        self._obs_wait: Dict[int, int] = {}
        self._obs_phase: Dict[int, int] = {}
        #: shared span-args memo (key -> dict): submit/finish/pass
        #: spans reuse one dict per distinct payload instead of
        #: allocating per span — surviving per-span dicts are what tip
        #: extra full-heap GC passes at replay scale.
        self._obs_args: Dict[tuple, dict] = {}
        self._events: Store = Store(sim, name="slurmctld:events")
        sim.process(self._main_loop(), name="slurmctld")

    def set_policy(self, name: str) -> None:
        """Swap the scheduling policy (takes effect on the next pass)."""
        self.policy = create_policy(name)
        self.config.policy = name
        self.state.mark_dirty()

    # ------------------------------------------------------------------
    # Submission interface
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Submit a job; returns the tracked :class:`Job`."""
        if spec.nodes > len(self.slurmds):
            raise SlurmError(
                f"job wants {spec.nodes} nodes, partition has "
                f"{len(self.slurmds)}")
        job = Job(spec, submit_time=self.sim.now,
                  job_id=next(self._job_ids))
        job.done = self.sim.event(name=f"job:{job.job_id}:done")
        self._jobs[job.job_id] = job
        self.workflows.place_job(job)
        self.state.enqueue(job)
        rec = self.accounting.record_for(job.job_id, spec.name, spec.user)
        rec.submit_time = self.sim.now
        rec.workflow_id = job.workflow_id
        t = self.sim.tracer
        if t is not None and t.wants("job"):
            track = f"job:{job.job_id}"
            key = (spec.user, spec.nodes)
            root_args = self._obs_args.get(key)
            if root_args is None:
                root_args = self._obs_args[key] = \
                    {"user": spec.user, "nodes": spec.nodes}
            root = t.begin("job", spec.name or f"job{job.job_id}",
                           track=track, args=root_args)
            self._obs_job[job.job_id] = root
            self._obs_wait[job.job_id] = t.begin(
                "job", "wait", track=track, parent=root)
            job.done.add_callback(
                lambda _ev, jid=job.job_id: self._obs_finish(jid))
        self._kick()
        return job

    def submit_script(self, text: str, program=None,
                      dataspaces=None) -> Job:
        """Parse a batch script and submit it."""
        return self.submit(parse_batch_script(text, program=program,
                                              dataspaces=dataspaces))

    def cancel(self, job_id: int, reason: str = "user cancel") -> None:
        job = self.job(job_id)
        if job.state.is_terminal:
            return
        if job.state == JobState.PENDING:
            self.state.dequeue(job)
            job.set_state(JobState.CANCELLED, reason)
            self._finish_accounting(job)
        else:
            for proc in job._step_procs:
                if proc.is_alive:
                    proc.interrupt(reason)
            job.set_state(JobState.CANCELLED, reason)
            # The dying job left running_jobs() (is_active) without any
            # SchedulerState mutation — mark dirty so the kick's pass
            # actually re-plans around its disappearance.
            self.state.mark_dirty()
        self._kick()

    # -- queries ----------------------------------------------------------
    def job(self, job_id: int) -> Job:
        j = self._jobs.get(job_id)
        if j is None:
            raise UnknownJob(str(job_id))
        return j

    def squeue(self) -> List[tuple[int, str, str]]:
        return [(j.job_id, j.spec.name, j.state.value)
                for j in self._jobs.values()]

    def workflow_status(self, workflow_id: int):
        wf = self.workflows.workflow(workflow_id)
        return wf.status, wf.job_status_list()

    @property
    def free_nodes(self) -> frozenset[str]:
        return frozenset(self.state.free.as_set())

    def drain(self):
        """Event firing when no job is pending or active."""
        gates = [j.done for j in self._jobs.values()
                 if not j.state.is_terminal]
        return all_of(self.sim, gates)

    # ------------------------------------------------------------------
    # Node availability (drain / failure / recovery)
    # ------------------------------------------------------------------
    def _check_node(self, node: str) -> None:
        if node not in self.slurmds:
            raise SlurmError(f"unknown node {node!r}")

    def _node_busy(self, node: str) -> bool:
        return any(node in j.allocated_nodes
                   for j in self.state.running_jobs())

    def drain_node(self, node: str, reason: str = "drained") -> None:
        """Withdraw a node from scheduling; running work finishes.

        Drained nodes take no new allocations and are excluded from
        backfill/conservative reservations; :meth:`resume_node` returns
        them to service.
        """
        self._check_node(node)
        if node in self._drained:
            return
        self._drained[node] = reason
        if node not in self._down:
            self.state.set_unavailable(node)
            self._kick()

    def resume_node(self, node: str) -> None:
        """Operator resume: clear drain *and* down; rejoin scheduling."""
        self._check_node(node)
        if node not in self._drained and node not in self._down:
            return
        self._drained.pop(node, None)
        self._down.pop(node, None)
        self.state.set_available(node, free=not self._node_busy(node))
        self._kick()

    def undrain_node(self, node: str) -> None:
        """Clear only the drain mark; a node that is *down* stays down
        until :meth:`restore_node` (a drain window expiring must not
        resurrect a node that crashed inside it)."""
        self._check_node(node)
        if node not in self._drained:
            return
        del self._drained[node]
        if node not in self._down:
            self.state.set_available(node, free=not self._node_busy(node))
            self._kick()

    def fail_node(self, node: str, reason: str = "node failure") -> None:
        """Mark a node down and knock out every job running on it.

        Each victim unwinds (steps interrupted, staged data cleaned,
        nodes released) and is **requeued** — back to PENDING with its
        original submit-time priority — until its requeue budget
        (:attr:`SlurmConfig.max_requeues` or the job's own
        ``max_requeues``) is spent, after which it fails for good.
        """
        self._check_node(node)
        first = node not in self._down
        self._down[node] = reason
        if first and node not in self._drained:
            self.state.set_unavailable(node)
        victims = [j for j in self.state.running_jobs()
                   if node in j.allocated_nodes and not j._knocked]
        for job in victims:
            self._knock(job, _Knockout(f"node {node} failed: {reason}"))
        self._kick()

    def restore_node(self, node: str) -> None:
        """Bring a failed node back into service (reboot complete)."""
        self._check_node(node)
        if node not in self._down:
            return
        del self._down[node]
        if node not in self._drained:
            self.state.set_available(node, free=not self._node_busy(node))
            self._kick()

    def requeue(self, job_id: int, reason: str = "requeued") -> None:
        """Operator requeue (``scontrol requeue``): an active job
        unwinds and goes back to the pending queue (budget bypassed);
        a pending/terminal job is left untouched."""
        job = self.job(job_id)
        if not job.state.is_active or job._knocked:
            return
        self._knock(job, _Knockout(reason, force=True))
        self._kick()

    def _knock(self, job: Job, cause: _Knockout) -> None:
        job._knocked = True
        proc = job._ctl_proc
        if proc is not None and proc.is_alive:
            proc.interrupt(cause)

    def node_state(self, node: str) -> str:
        """"idle" / "alloc" / "drain" / "down" (sinfo vocabulary)."""
        self._check_node(node)
        if node in self._down:
            return "down"
        if node in self._drained:
            return "drain"
        return "alloc" if self._node_busy(node) else "idle"

    def node_states(self) -> list[tuple[str, str]]:
        """(node, state) for every node, name order."""
        return [(n, self.node_state(n)) for n in sorted(self.slurmds)]

    # ------------------------------------------------------------------
    # Scheduling loop
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        self._events.put("wake")

    # -- span tracing (repro.obs) -----------------------------------------
    # Nothing here schedules calendar events; with ``sim.tracer`` unset
    # every hook is one attribute load + None check.

    def _obs_phase_begin(self, job: Job, name: str) -> None:
        """Open the job's current phase span (stage_in / run / stage_out)."""
        t = self.sim.tracer
        if t is None:
            return
        self._obs_phase[job.job_id] = t.begin(
            "job", name, track=f"job:{job.job_id}",
            parent=self._obs_job.get(job.job_id, -1))

    def _obs_phase_end(self, job: Job, **args) -> None:
        t = self.sim.tracer
        if t is None:
            return
        t.end(self._obs_phase.pop(job.job_id, -1), args=args or None)

    def _obs_finish(self, job_id: int) -> None:
        """``job.done`` callback: close every span the job still owns."""
        t = self.sim.tracer
        if t is None:
            return
        t.end(self._obs_wait.pop(job_id, -1))
        t.end(self._obs_phase.pop(job_id, -1))
        job = self._jobs.get(job_id)
        args = None
        if job is not None:
            key = ("state", job.state.name)
            args = self._obs_args.get(key)
            if args is None:
                args = self._obs_args[key] = {"state": job.state.name}
        t.end(self._obs_job.pop(job_id, -1), args=args)

    def _main_loop(self):
        while True:
            yield self._events.get()
            while True:
                more, _ = self._events.try_get()
                if not more:
                    break
            self._schedule_pass()

    def _schedule_pass(self) -> None:
        if not self.state.consume_dirty():
            return  # nothing changed since the last pass
        decisions = self.policy.schedule(self.state, self.sim.now)
        self.sched_passes += 1
        self.sched_decisions += len(decisions)
        t = self.sim.tracer
        if t is not None:
            key = ("decisions", len(decisions))
            pass_args = self._obs_args.get(key)
            if pass_args is None:
                pass_args = self._obs_args[key] = \
                    {"decisions": len(decisions)}
            t.instant("sched", "pass", args=pass_args)
            for d in decisions:
                t.end(self._obs_wait.pop(d.job.job_id, -1),
                      args={"alloc": ",".join(d.nodes)})
        for d in decisions:
            self.state.allocate(d.job, d.nodes)
            d.job.allocated_nodes = d.nodes
            d.job._ctl_proc = self.sim.process(
                self._run_job(d.job), name=f"jobctl:{d.job.job_id}")
        if decisions:
            # The pass is synchronous, so the only dirt accumulated
            # since consume_dirty() is our own allocations — clear it
            # or every post-allocation kick forces a full re-scan.
            self.state.consume_dirty()

    def _estimate_stage_in_seconds(self, job: Job) -> float:
        """Predicted stage-in duration from declared volumes and the
        urds' observed transfer rates (the staging-aware policy input).

        Uses the same E.T.A. machinery the urd exposes to slurmctld
        (Section IV-A): bytes under each stage-in origin over the mean
        observed PFS→node-local rate across nodes.
        """
        total_bytes = self.staging.stage_in_bytes(job)
        if total_bytes <= 0:
            return 0.0
        rates = [sd.urd.tracker.rate(("shared", "local"))
                 for sd in self.slurmds.values()]
        mean_rate = sum(rates) / len(rates)
        if mean_rate <= 0:
            return 0.0
        return total_bytes / mean_rate

    # ------------------------------------------------------------------
    # Per-job lifecycle
    # ------------------------------------------------------------------
    def _run_job(self, job: Job):
        """jobctl: the lifecycle, plus the knockout/requeue unwinding.

        A :class:`_Knockout` interrupt (node failure, operator requeue)
        may arrive at any yield point of the lifecycle; the handler
        stops whatever phase was in flight, releases the allocation and
        either requeues the job or fails it once its budget is spent.
        """
        try:
            yield from self._job_lifecycle(job)
        except Interrupted as intr:
            cause = intr.cause
            if not isinstance(cause, _Knockout):
                raise
            try:
                yield from self._knockout_recover(job, cause)
            finally:
                job._knocked = False

    def _requeue_budget(self, job: Job) -> int:
        if job.spec.max_requeues is not None:
            return job.spec.max_requeues
        return self.config.max_requeues

    def _may_requeue_on_failure(self, job: Job) -> bool:
        """Transient staging/step failures requeue only when the
        resilience mode is on (fault injection enables it); a permanent
        staging failure never does."""
        return self.config.requeue_on_failure \
            and job.requeues < self._requeue_budget(job)

    def _knockout_recover(self, job: Job, cause: _Knockout):
        """Unwind a knocked-out job: stop its phases, free its nodes,
        and requeue it (or fail it when the budget is spent)."""
        rec = self.accounting.record_for(job.job_id)
        for proc in job._step_procs:
            if proc.is_alive:
                proc.interrupt(cause.reason)
        job._step_procs = []
        phase = job._phase_proc
        if phase is not None and phase.is_alive:
            phase.interrupt(cause.reason)
        job._phase_proc = None
        if cause.force or job.requeues < self._requeue_budget(job):
            yield from self._requeue(job, cause.reason)
        else:
            rec.fault_failed = True
            rec.warnings.append(
                f"requeue budget spent ({job.requeues}): {cause.reason}")
            yield from self._terminate(job, JobState.FAILED, cause.reason)

    def _requeue(self, job: Job, reason: str):
        """Put an unwound job back in the pending queue.

        The job keeps its original submit time, so priority aging
        carries over — a requeued job does not go to the back of the
        line (matching Slurm's requeue semantics)."""
        # The unwind yields (cleanup, release RPCs): a node failure
        # arriving mid-flight must not start a second one on top.
        job._knocked = True
        rec = self.accounting.record_for(job.job_id)
        job.requeues += 1
        rec.requeues += 1
        rec.warnings.append(f"requeue #{job.requeues}: {reason}")
        if self.checkpoints is not None and job.spec.checkpoint_key:
            resume = self.checkpoints.resume_epoch(job.spec.checkpoint_key)
            if resume:
                rec.warnings.append(
                    f"checkpoint: will resume at epoch {resume}")
        if self.config.staging_enabled and (job.spec.stage_in
                                            or job.spec.stage_out):
            # Partially staged data is re-staged on the next attempt.
            yield from self.staging.cleanup_job_data(job)
        yield from self._release(job)
        if job.state.is_terminal:
            # cancelled while unwinding: the terminal state wins.
            self._finish_accounting(job)
            job._knocked = False
            self._kick()
            return
        job.allocated_nodes = ()
        job.start_time = None
        rec.nodes = ()
        rec.alloc_time = None
        rec.start_time = None
        job.set_state(JobState.PENDING, reason)
        self.state.enqueue(job)
        t = self.sim.tracer
        if t is not None:
            # The interrupted phase span ends here (the unwind is part
            # of the attempt), and the job goes back to waiting.
            t.end(self._obs_phase.pop(job.job_id, -1),
                  args={"requeue": reason})
            root = self._obs_job.get(job.job_id, -1)
            if root >= 0:
                self._obs_wait[job.job_id] = t.begin(
                    "job", "wait", track=f"job:{job.job_id}", parent=root)
        job._knocked = False
        self._kick()

    def _job_lifecycle(self, job: Job):
        rec = self.accounting.record_for(job.job_id)
        rec.nodes = job.allocated_nodes
        rec.alloc_time = self.sim.now
        job.set_state(JobState.CONFIGURING)
        self._set_environment(job)

        # Register the job with every node's urd via nornsctl.
        yield all_of(self.sim, [
            self.sim.process(self.slurmds[n].configure_job(job))
            for n in job.allocated_nodes])

        # Stage-in (Section III): wait for data, or terminate + clean up.
        if self.config.staging_enabled and job.spec.stage_in:
            try:
                self._obs_phase_begin(job, "stage_in")
                job._phase_proc = self.sim.process(
                    self.staging.stage_in(job))
                report = yield job._phase_proc
                job._phase_proc = None
                rec.stage_in_seconds = report.elapsed
                rec.stage_in_eta_seconds = report.predicted_seconds
                rec.bytes_staged_in = report.bytes
                self._obs_phase_end(job, bytes=report.bytes)
            except StagingFailure as exc:
                job._phase_proc = None
                rec.warnings.append(f"stage_in failed: {exc}")
                if not exc.permanent and self._may_requeue_on_failure(job):
                    yield from self._requeue(
                        job, f"stage-in failed: {exc}")
                    return
                yield from self._terminate(job, JobState.FAILED,
                                           f"stage-in failed: {exc}")
                return

        if job.state.is_terminal:   # cancelled during staging
            yield from self._release(job)
            # Without this wake-up the freed nodes sit idle until the
            # next unrelated event — pending jobs could starve forever.
            self._kick()
            return

        # Run the job steps.
        job.set_state(JobState.RUNNING)
        job.start_time = self.sim.now
        rec.start_time = self.sim.now
        self._obs_phase_begin(job, "run")
        job._step_procs = [
            self.slurmds[node].launch_step(job, rank)
            for rank, node in enumerate(job.allocated_nodes)]
        gate = all_of(self.sim, job._step_procs)
        limit = self.sim.timeout(job.spec.time_limit)
        try:
            fired = yield any_of(self.sim, [gate, limit])
        except Interrupted:
            raise                  # knockout: unwound by _run_job
        except Exception as exc:   # a step failed
            rec.warnings.append(f"step failure: {exc}")
            if self._may_requeue_on_failure(job):
                for proc in job._step_procs:
                    if proc.is_alive:
                        proc.interrupt("requeue after step failure")
                job._step_procs = []
                yield from self._requeue(job, f"step failure: {exc}")
                return
            yield from self._terminate(job, JobState.FAILED, str(exc))
            return
        if gate not in fired:
            for proc in job._step_procs:
                if proc.is_alive:
                    proc.interrupt("time limit")
            rec.warnings.append("time limit exceeded")
            yield from self._terminate(job, JobState.TIMEOUT,
                                       "time limit exceeded")
            return
        self._obs_phase_end(job)

        # Stage-out; failures leave data on the nodes (Section III).
        stage_out_failed = False
        if self.config.staging_enabled and job.spec.stage_out:
            job.set_state(JobState.STAGING_OUT)
            self._obs_phase_begin(job, "stage_out")
            job._phase_proc = self.sim.process(self.staging.stage_out(job))
            report = yield job._phase_proc
            job._phase_proc = None
            rec.stage_out_seconds = report.elapsed
            rec.stage_out_eta_seconds = report.predicted_seconds
            rec.bytes_staged_out = report.bytes
            self._obs_phase_end(job, bytes=report.bytes, ok=report.ok)
            stage_out_failed = not report.ok
            for failure in report.failures:
                rec.warnings.append(f"stage_out: {failure} (data left "
                                    "on node-local storage)")

        # Persist operations, then cleanup of non-persisted data.
        if self.config.staging_enabled:
            try:
                yield from self.staging.apply_persist(job)
            except SlurmError as exc:
                rec.warnings.append(f"persist: {exc}")
            yield from self.staging.cleanup_job_data(
                job, keep_stage_out_data=stage_out_failed)

        yield from self._release(job)
        job.end_time = self.sim.now
        rec.end_time = self.sim.now
        job.set_state(JobState.COMPLETED)
        self._finish_accounting(job)
        self._kick()

    def _terminate(self, job: Job, state: JobState, reason: str):
        """Failure path: cancel workflow dependents and release nodes."""
        yield from self._release(job)
        job.end_time = self.sim.now
        rec = self.accounting.record_for(job.job_id)
        rec.end_time = self.sim.now
        job.set_state(state, reason)
        if job.workflow_id is not None:
            wf = self.workflows.workflow(job.workflow_id)
            for cancelled in wf.cancel_dependents(job.job_id):
                self.state.dequeue(cancelled)
                self._clear_partial_checkpoints(cancelled)
                self._finish_accounting(cancelled)
        self._clear_partial_checkpoints(job)
        self._finish_accounting(job)
        self._kick()

    def _clear_partial_checkpoints(self, job: Job) -> None:
        """A terminally failed / cancelled checkpointing stage leaves no
        partial artifacts behind — only completed stages stay durable."""
        if self.checkpoints is not None and job.spec.checkpoint_key:
            self.checkpoints.clear_partial(job.spec.checkpoint_key)

    def _release(self, job: Job):
        """Tracked-dataspace check, unregister, free the nodes."""
        rec = self.accounting.record_for(job.job_id)
        for node in job.allocated_nodes:
            leftovers = self.slurmds[node].tracked_nonempty()
            if leftovers:
                # "Slurm will be informed of the presence of a non-empty
                # dataspace, which will allow it to take appropriate
                # measures" — we record it and proceed with the release.
                rec.warnings.append(
                    f"{node}: non-empty tracked dataspaces {leftovers}")
        yield all_of(self.sim, [
            self.sim.process(self.slurmds[n].unconfigure_job(job))
            for n in job.allocated_nodes])
        self.state.release(job)

    def _finish_accounting(self, job: Job) -> None:
        rec = self.accounting.record_for(job.job_id)
        rec.state = job.state.value
        if rec.end_time is None and job.state.is_terminal:
            rec.end_time = self.sim.now

    def _set_environment(self, job: Job) -> None:
        """Expose dataspace IDs as $LUSTRE / $NVME0 / ... (Section IV-A)."""
        for nsid in job.spec.dataspaces:
            var = nsid.rstrip(":/").upper()
            job.environment[var] = nsid
        job.environment["SLURM_JOB_ID"] = str(job.job_id)
        job.environment["SLURM_JOB_NODELIST"] = ",".join(job.allocated_nodes)
