"""The fault-injection engine: compile a plan onto the DES calendar.

A :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan`
to a built cluster (:class:`~repro.cluster.builder.ClusterHandle`) and
schedules one :meth:`~repro.sim.core.Simulator.cancellable_timeout` per
record — the same lazily-cancellable primitive the flow engine uses, so
an injector that never fires (a zero-fault plan, or ``stop()`` before
the first record) leaves **zero** events on the calendar and the run is
bit-identical to one without the injector.

Injection is pure virtual-time bookkeeping, so a seeded plan replays
deterministically: same plan + same cluster seed ⇒ identical outcomes,
run after run.  Recovery is symmetric — every degradation restores the
capacity captured when the fault fired, crashes reboot via
``slurmctld.restore_node`` — and every fire/recover pair feeds the
:class:`ResilienceStats` the replay report renders.  The stats hold only
what the injector and accounting observe (faults, requeues, downtime,
recoveries, goodput, invalidated checkpoints); the urd, RPC, breaker and
slurmd counters the resilience table shows are read from the run's
:class:`~repro.obs.MetricsRegistry`, which
:func:`~repro.obs.collect_cluster` builds once at the end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import FaultError
from repro.faults.plan import FaultPlan, FaultRecord
from repro.util.tables import render_table
from repro.util.units import format_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import ClusterHandle
    from repro.obs.metrics import MetricsRegistry

__all__ = ["ResilienceStats", "FaultInjector", "PARTITION_FLOOR",
           "arm_plan", "end_plan", "resilience_table"]

#: Capacity floor (bytes/s) a partitioned link is re-rated to; the flow
#: engine needs strictly positive capacities, and one byte per second
#: stalls any real transfer until recovery.
PARTITION_FLOOR = 1.0


@dataclass
class ResilienceStats:
    """What the injector and accounting observe of a faulted run; the
    subsystem counters its table shows come from the run's registry."""

    faults_injected: int = 0
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    #: jobs knocked back to PENDING and rescheduled (ctld accounting).
    jobs_requeued: int = 0
    #: jobs that ran out of requeue budget (terminal FAILED).
    jobs_failed: int = 0
    #: node-seconds of down time (crash → restore), summed over nodes.
    node_downtime: float = 0.0
    #: per-recovery durations (crash reboots, degradation windows).
    recoveries: List[float] = field(default_factory=list)
    #: fraction of jobs that still completed (goodput vs. the
    #: same-seed zero-fault baseline's completed fraction).
    goodput: float = 0.0
    #: checkpoint artifacts destroyed by transfer corruption (only
    #: non-zero when a CheckpointStore is attached to the controller).
    checkpoints_invalidated: int = 0

    @property
    def mttr(self) -> float:
        """Mean time to recovery over every recovered fault."""
        if not self.recoveries:
            return 0.0
        return sum(self.recoveries) / len(self.recoveries)

    def rows(self, reg: "MetricsRegistry") -> List[tuple]:
        """(metric, value) rows for the report's resilience table; urd,
        RPC and breaker totals are read from the run's registry
        (:func:`repro.obs.collect_cluster`)."""
        total = reg.total
        kinds = ", ".join(f"{k}:{n}" for k, n in
                          sorted(self.faults_by_kind.items())) or "-"
        rows = [
            ("faults injected", self.faults_injected),
            ("fault mix", kinds),
            ("jobs requeued", self.jobs_requeued),
            ("jobs failed", self.jobs_failed),
            ("urd restarts", total("urd.restarts")),
            ("urd tasks failed", total("urd.tasks_failed")),
            ("urd tasks retried", total("urd.tasks_retried")),
            ("urd tasks lost", total("urd.tasks_lost")),
            ("staging bytes lost", format_bytes(total("urd.bytes_lost"))),
            ("staging bytes corrupted",
             format_bytes(total("urd.bytes_corrupted"))),
            ("node downtime s", f"{self.node_downtime:.3f}"),
            ("MTTR s", f"{self.mttr:.3f}"),
            ("goodput", f"{self.goodput:.4f}"),
        ] + ([("checkpoints invalidated", self.checkpoints_invalidated)]
             if self.checkpoints_invalidated else [])
        # Resilience-layer rows only appear once the layer saw traffic,
        # so reports from clusters without it are unchanged.
        calls = total("resilience.calls")
        probes = total("resilience.heartbeat_probes")
        shed = total("resilience.requests_shed")
        if calls or probes or shed:
            rows += [
                ("rpc calls", calls),
                ("rpc retries", total("resilience.retries")),
                ("rpc deadlines blown",
                 total("resilience.deadline_expired")),
                ("breaker fast-fails", total("resilience.breaker_fastfail")),
                ("breaker open/half-open/close",
                 f"{total('resilience.breaker_opens')}"
                 f"/{total('resilience.breaker_half_opens')}"
                 f"/{total('resilience.breaker_closes')}"),
                ("requests shed", shed),
                ("client busy backoffs", total("slurmd.busy_retries")),
                ("heartbeat probes", probes),
                ("heartbeat misses", total("resilience.heartbeat_misses")),
                ("rpc duplicates suppressed",
                 total("rpc.duplicates_suppressed")),
            ]
            hist = [inst for inst in reg
                    if inst.name == "resilience.latency_seconds"]
            if hist and hist[0].samples:
                from repro.util.stats import summarize
                lat = summarize(hist[0].samples)
                rows.append(("rpc latency p95/max s",
                             f"{lat.p95:.6f}/{lat.max:.6f}"))
        return rows


class FaultInjector:
    """Drives one fault plan against one built cluster."""

    def __init__(self, handle: "ClusterHandle", plan: FaultPlan) -> None:
        self.handle = handle
        self.sim = handle.sim
        self.plan = plan
        plan.validate(handle.nodes.keys())
        for rec in plan.records:
            if rec.kind == "device_degrade" \
                    and rec.device not in handle.nodes[rec.target].mounts:
                raise FaultError(
                    f"device_degrade: node {rec.target!r} has no device "
                    f"{rec.device!r}")
        self.stats = ResilienceStats()
        self._handles: List = []
        self._started = False
        #: constraint -> capacity captured when its first fault fired.
        self._baselines: Dict[object, float] = {}
        #: node -> crash instant (for downtime accounting).
        self._crashed_at: Dict[str, float] = {}
        #: span bookkeeping for the injection currently firing: the
        #: open fault-window span id, and whether its _do_ handler
        #: armed a recovery (which then owns closing the span).
        self._fire_sid = -1
        self._recovery_armed = False

    # -- lifecycle -------------------------------------------------------
    def start(self, at: Optional[float] = None) -> "FaultInjector":
        """Arm the plan: one cancellable timeout per record, anchored at
        ``at`` (default now).  A zero-fault plan schedules nothing."""
        if self._started:
            raise FaultError("injector already started")
        self._started = True
        base = self.sim.now if at is None else float(at)
        for i, rec in enumerate(self.plan.sorted_records()):
            self._at(base + rec.time, lambda rec=rec: self._fire(rec),
                     name=f"fault:{i}:{rec.kind}")
        if self.plan.records:
            self._arm_resilience(base)
        return self

    def _arm_resilience(self, base: float) -> None:
        """Arm every urd's RPC hardening layer for the faulted window.

        Each node heartbeats its ring successor (sorted node order),
        so partitions/crashes anywhere in the ring are detected even
        when the workload itself drives no remote RPC traffic;
        breakers additionally spawn on-demand monitors.  Monitoring is
        bounded by the plan's last recovery instant (plus detector
        slack) so a finished run drains the calendar.
        """
        until = base + max(rec.time + max(rec.duration, 0.0)
                           for rec in self.plan.records)
        names = sorted(self.handle.nodes)
        for i, name in enumerate(names):
            res = self.handle.nodes[name].urd.resilience
            if res is None:
                continue
            watch = (names[(i + 1) % len(names)],) if len(names) > 1 \
                else ()
            res.arm(watch=watch, until=until)

    def stop(self) -> None:
        """Cancel every armed (not yet fired) injection/recovery and
        disarm the resilience layers (monitors exit on next tick)."""
        for h in self._handles:
            h.cancel()
        self._handles.clear()
        for name in sorted(self.handle.nodes):
            res = self.handle.nodes[name].urd.resilience
            if res is not None:
                res.disarm()

    def _at(self, when: float, action, name: str) -> None:
        handle = self.sim.cancellable_timeout(at=when, name=name)
        handle.event.add_callback(lambda _ev: action())
        self._handles.append(handle)

    # -- injection -------------------------------------------------------
    def _fire(self, rec: FaultRecord) -> None:
        self.stats.faults_injected += 1
        self.stats.faults_by_kind[rec.kind] = \
            self.stats.faults_by_kind.get(rec.kind, 0) + 1
        t = self.sim.tracer
        # The injection→recovery window is one span: _recover_in closes
        # it at recovery time; a fault with no armed recovery is an
        # instantaneous window.
        self._fire_sid = -1 if t is None else t.begin(
            "fault", rec.kind, track=rec.target,
            args={"note": rec.note} if rec.note else None)
        self._recovery_armed = False
        getattr(self, f"_do_{rec.kind}")(rec)
        sid = self._fire_sid
        if sid >= 0:
            self._fire_sid = -1
            if not self._recovery_armed:
                t.end(sid)

    def _recover_in(self, rec: FaultRecord, action) -> None:
        if rec.duration > 0:
            self._recovery_armed = True
            sid = self._fire_sid

            def recover(sid=sid, action=action):
                action()
                t = self.sim.tracer
                if sid >= 0 and t is not None:
                    t.end(sid)

            self._at(self.sim.now + rec.duration, recover,
                     name=f"fault:recover:{rec.kind}:{rec.target}")

    # node crash / reboot ------------------------------------------------
    def _do_node_crash(self, rec: FaultRecord) -> None:
        node = rec.target
        self._crashed_at[node] = self.sim.now
        # The node's daemon dies with it: queued/in-flight NORNS work is
        # lost and its E.T.A. state resets, then the controller knocks
        # out (and requeues) every job touching the node.  Until the
        # reboot its urd is down — RPCs toward it are dropped on the
        # floor (peers see timeouts, heartbeats miss, breakers open)
        # and new submissions are shed.
        urd = self.handle.nodes[node].urd
        urd.restart()
        urd.set_down(True)
        self.handle.ctld.fail_node(node, reason=rec.note or "fault")
        self._recover_in(rec, lambda: self._reboot(node))

    def _reboot(self, node: str) -> None:
        self.handle.nodes[node].urd.set_down(False)
        self.handle.ctld.restore_node(node)
        crashed = self._crashed_at.pop(node, None)
        if crashed is not None:
            down = self.sim.now - crashed
            self.stats.node_downtime += down
            self.stats.recoveries.append(down)

    # drain / resume -------------------------------------------------------
    def _do_node_drain(self, rec: FaultRecord) -> None:
        node = rec.target
        self.handle.ctld.drain_node(node, reason=rec.note or "fault drain")
        started = self.sim.now

        def resume():
            # Drain-only recovery: a node that crashed inside the
            # window stays down until its own reboot.
            self.handle.ctld.undrain_node(node)
            self.stats.recoveries.append(self.sim.now - started)

        self._recover_in(rec, resume)

    def _do_node_resume(self, rec: FaultRecord) -> None:
        self.handle.ctld.undrain_node(rec.target)

    # urd restart ----------------------------------------------------------
    def _do_urd_restart(self, rec: FaultRecord) -> None:
        """Daemon bounce.  ``duration`` (if any) is the outage window:
        while the replacement daemon comes up, its endpoint drops RPC
        traffic and submissions are shed with ``ERR_AGAIN``."""
        urd = self.handle.nodes[rec.target].urd
        urd.restart()
        if rec.duration > 0:
            urd.set_down(True)
            started = self.sim.now

            def back_up():
                urd.set_down(False)
                self.stats.recoveries.append(self.sim.now - started)

            self._recover_in(rec, back_up)

    # link faults ----------------------------------------------------------
    def _degrade_link(self, rec: FaultRecord, factor: float) -> None:
        """Re-rate a node's NIC paths via :meth:`Fabric
        .set_port_bandwidth`; recovery restores the baselines captured
        when the fault fired."""
        fabric = self.handle.fabric
        port = fabric.port(rec.target)
        e0 = self._baselines.setdefault(port.egress, port.egress.capacity)
        i0 = self._baselines.setdefault(port.ingress,
                                        port.ingress.capacity)
        fabric.set_port_bandwidth(
            rec.target,
            egress=max(e0 * factor, PARTITION_FLOOR),
            ingress=max(i0 * factor, PARTITION_FLOOR))
        started = self.sim.now

        def lift():
            fabric.set_port_bandwidth(rec.target, egress=e0, ingress=i0)
            self.stats.recoveries.append(self.sim.now - started)

        self._recover_in(rec, lift)

    def _do_link_degrade(self, rec: FaultRecord) -> None:
        self._degrade_link(rec, rec.magnitude)

    def _do_link_partition(self, rec: FaultRecord) -> None:
        self._degrade_link(rec, 0.0)

    # storage faults -------------------------------------------------------
    def _do_device_degrade(self, rec: FaultRecord) -> None:
        device = self.handle.nodes[rec.target].mounts[rec.device].device
        r0 = self._baselines.setdefault(device.read_path,
                                        device.read_path.capacity)
        w0 = self._baselines.setdefault(device.write_path,
                                        device.write_path.capacity)
        device.set_bandwidth(read=max(r0 * rec.magnitude, PARTITION_FLOOR),
                             write=max(w0 * rec.magnitude,
                                       PARTITION_FLOOR))
        started = self.sim.now

        def lift():
            device.set_bandwidth(read=r0, write=w0)
            self.stats.recoveries.append(self.sim.now - started)

        self._recover_in(rec, lift)

    # transfer corruption ----------------------------------------------------
    def _do_transfer_corrupt(self, rec: FaultRecord) -> None:
        self.handle.nodes[rec.target].urd.inject_corruption(
            int(rec.magnitude))
        # Data corruption also eats the most recent checkpoint artifact
        # when a store is attached: the hit stage drops back into the
        # lost frontier (or resumes from an earlier epoch).
        store = getattr(self.handle.ctld, "checkpoints", None)
        if store is not None and store.invalidate_latest() is not None:
            self.stats.checkpoints_invalidated += 1

    # -- aggregation -------------------------------------------------------
    def finalize(self, completed_jobs: int = 0,
                 total_jobs: int = 0) -> ResilienceStats:
        """Fold requeue accounting, trailing downtime and goodput into
        the stats (run finished)."""
        stats = self.stats
        records = self.handle.ctld.accounting.records()
        stats.jobs_requeued = sum(r.requeues for r in records)
        stats.jobs_failed = sum(1 for r in records if r.fault_failed)
        # Any node still down when the run ends counts downtime to now.
        for node, crashed in sorted(self._crashed_at.items()):
            stats.node_downtime += self.sim.now - crashed
        if total_jobs > 0:
            stats.goodput = completed_jobs / total_jobs
        return stats


# -- the one way a run arms and ends a plan ------------------------------
def arm_plan(handle: "ClusterHandle", plan: Optional[FaultPlan],
             at: Optional[float] = None) -> Optional[FaultInjector]:
    """Start ``plan`` on ``handle``'s cluster, anchored at ``at``
    (default now); ``None`` arms nothing.

    A plan with records also turns on the controller's
    ``requeue_on_failure``, so transient faults (daemon restarts,
    corrupted transfers) requeue jobs instead of failing them; a plan
    with none changes nothing.
    """
    if plan is None:
        return None
    injector = FaultInjector(handle, plan)
    if plan.records:
        handle.ctld.config.requeue_on_failure = True
    return injector.start(at=at)


def end_plan(injector: Optional[FaultInjector], completed_jobs: int,
             total_jobs: int) -> Optional[ResilienceStats]:
    """Stop and finalize what :func:`arm_plan` started; ``None`` when
    nothing was armed or the plan had no records."""
    if injector is None or not injector.plan.records:
        return None
    injector.stop()
    return injector.finalize(completed_jobs=completed_jobs,
                             total_jobs=total_jobs)


def resilience_table(stats: ResilienceStats,
                     reg: "MetricsRegistry") -> str:
    """The report's resilience table, over the run's registry."""
    return render_table(("metric", "value"), stats.rows(reg),
                        title="resilience")
