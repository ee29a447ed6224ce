"""Collectors: fold subsystem state into a :class:`MetricsRegistry`.

Each collector reads counters a subsystem already maintains (kernel
``stats()``, urd/endpoint/slurmd counters, the RPC resilience layer's
counters and breakers, the scheduler pass counters, the flow engine)
and registers them under canonical names.  This module is the one place
the mapping between internal attribute names and the exported metric
glossary lives, and the only reader of those counters: every report
(replay text, resilience table, fleet metrics and ``runstats``, the
``--perf`` footers) reads them from the run's one registry, built once
at the end of the run by :func:`collect_cluster`.

Metric glossary (all names; labels in braces):

* ``kernel.impl`` (info) and ``kernel.<counter>`` — event-kernel
  ``stats()`` counters (events, pending, defunct_skips, ...).
* ``sched.passes`` / ``sched.decisions`` — scheduler pass count and
  total placement decisions across passes.
* ``urd.requests_served`` / ``urd.tasks_completed`` /
  ``urd.tasks_failed`` / ``urd.tasks_retried`` / ``urd.tasks_lost`` /
  ``urd.bytes_lost`` / ``urd.bytes_corrupted`` / ``urd.restarts``
  ``{node=...}`` — per-node NORNS daemon counters.
* ``rpc.served`` / ``rpc.duplicates_suppressed`` ``{node=...}`` —
  per-endpoint Mercury counters.
* ``slurmd.busy_retries`` ``{node=...}`` — ``ERR_AGAIN`` backoffs of
  the node's slurmd NORNS client.
* ``resilience.calls`` / ``.retries`` / ``.deadline_expired`` /
  ``.breaker_fastfail`` / ``.requests_shed`` / ``.heartbeat_probes`` /
  ``.heartbeat_misses`` ``{node=...}``, the breaker transitions
  ``resilience.breaker_opens`` / ``.breaker_half_opens`` /
  ``.breaker_closes`` ``{node=...}`` (summed over the node's
  per-peer breakers), plus the ``resilience.latency_seconds``
  histogram — RPC hardening, only on nodes with the layer built.
* ``flow.completed`` / ``flow.bytes_moved`` / ``flow.allocs`` /
  ``flow.slots_touched`` — flow-engine completion and perf counters.
* ``replay.jobs`` / ``replay.makespan_seconds`` /
  ``replay.node_utilization`` / ``replay.bytes_staged`` /
  ``replay.jobs_state`` ``{state=...}`` — replay outcome.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.metrics import MetricsRegistry
from repro.util.tables import render_table

__all__ = [
    "collect_kernel",
    "collect_kernel_stats",
    "kernel_stats",
    "kernel_table",
    "collect_scheduler",
    "collect_urds",
    "collect_resilience",
    "collect_flows",
    "collect_replay",
    "collect_cluster",
]

_RESILIENCE_FIELDS = (
    "calls",
    "retries",
    "deadline_expired",
    "breaker_fastfail",
    "requests_shed",
    "heartbeat_probes",
    "heartbeat_misses",
)

_BREAKER_FIELDS = ("opens", "half_opens", "closes")

_URD_FIELDS = (
    "requests_served",
    "tasks_completed",
    "tasks_failed",
    "tasks_retried",
    "tasks_lost",
    "bytes_lost",
    "bytes_corrupted",
    "restarts",
)


def collect_kernel(reg: MetricsRegistry, sim) -> None:
    """Event-kernel counters from :meth:`Simulator.stats`."""
    collect_kernel_stats(reg, sim.stats())


def collect_kernel_stats(reg: MetricsRegistry, stats) -> None:
    """Kernel counters from an already-captured ``stats()`` dict (the
    form fleet artifacts persist in ``runstats.json``)."""
    for key in sorted(stats):
        value = stats[key]
        if key == "kernel":
            reg.info("kernel.impl", value)
        else:
            reg.gauge(f"kernel.{key}").set(value)


def kernel_stats(reg: MetricsRegistry) -> Dict[str, object]:
    """The registry's kernel rows back in ``stats()`` form (what fleet
    artifacts persist); the inverse of :func:`collect_kernel_stats`."""
    return {"kernel" if inst.name == "kernel.impl"
            else inst.name[len("kernel."):]: inst.value
            for inst in reg if inst.name.startswith("kernel.")}


def kernel_table(reg: MetricsRegistry, title: str = "event kernel") -> str:
    """The ``--perf`` footer: the registry's kernel rows as the
    event-kernel table (dispatches, defunct skips, compactions)."""
    return render_table(("counter", "value"), reg.rows(prefix="kernel."),
                        title=title)


def collect_scheduler(reg: MetricsRegistry, ctld) -> None:
    """Scheduler pass/decision counters from slurmctld."""
    reg.counter("sched.passes").inc(ctld.sched_passes)
    reg.counter("sched.decisions").inc(ctld.sched_decisions)


def collect_urds(reg: MetricsRegistry, handle) -> None:
    """Per-node urd, Mercury endpoint and slurmd client counters."""
    for name in handle.node_names:
        node = handle.node(name)
        urd = node.urd
        for field in _URD_FIELDS:
            reg.counter(f"urd.{field}", node=name).inc(getattr(urd, field))
        ep = urd.endpoint
        if ep is not None:
            reg.counter("rpc.served", node=name).inc(ep.rpcs_served)
            reg.counter("rpc.duplicates_suppressed", node=name).inc(
                ep.duplicates_suppressed)
        reg.counter("slurmd.busy_retries", node=name).inc(
            node.slurmd.busy_retries)


def collect_resilience(reg: MetricsRegistry, handle) -> None:
    """RPC-hardening counters (only nodes with the layer built)."""
    for name in handle.node_names:
        res = handle.node(name).urd.resilience
        if res is None:
            continue
        counters = res.counters
        for field in _RESILIENCE_FIELDS:
            reg.counter(f"resilience.{field}", node=name).inc(
                getattr(counters, field))
        breakers = res.breakers().values()
        for field in _BREAKER_FIELDS:
            reg.counter(f"resilience.breaker_{field}", node=name).inc(
                sum(getattr(br, field) for br in breakers))
        hist = reg.histogram("resilience.latency_seconds")
        hist.samples.extend(counters.latencies)


def collect_flows(reg: MetricsRegistry, flows) -> None:
    """Flow-engine counters (kept on the scheduler itself)."""
    reg.counter("flow.completed").inc(flows.completed)
    reg.counter("flow.bytes_moved").inc(flows.bytes_moved)
    reg.counter("flow.allocs").inc(flows.alloc_count)
    reg.counter("flow.slots_touched").inc(flows.flows_touched)


def collect_replay(reg: MetricsRegistry, report) -> None:
    """Replay outcome aggregates from a :class:`ReplayReport`."""
    reg.gauge("replay.jobs").set(report.n_jobs)
    reg.gauge("replay.makespan_seconds").set(report.makespan)
    reg.gauge("replay.node_utilization").set(report.node_utilization)
    reg.gauge("replay.bytes_staged").set(report.bytes_staged)
    for state in sorted(report.state_counts):
        reg.gauge("replay.jobs_state", state=state).set(
            report.state_counts[state])


def collect_cluster(reg: MetricsRegistry, handle) -> MetricsRegistry:
    """Everything reachable from a :class:`ClusterHandle`."""
    collect_kernel(reg, handle.sim)
    collect_scheduler(reg, handle.ctld)
    collect_urds(reg, handle)
    collect_resilience(reg, handle)
    collect_flows(reg, handle.fabric.flows)
    return reg
