"""`repro.obs`: the deterministic observability plane.

One queryable telemetry surface over every subsystem the stack grew
across PRs 1–9: sim-time **spans** with parent/child causality (job
lifecycles, NORNS task lifecycles, RPC request/response pairs, flow
lifetimes, fault windows, workflow rounds/epochs), a typed **metrics
registry** (counters / gauges / histograms with label sets), and
deterministic **exporters** (Chrome ``trace_event`` JSON for Perfetto,
JSONL span/metric streams, the ``repro-slurm top`` end-of-run view).

Design invariants:

* **Zero overhead when disabled.**  Every instrumentation site is one
  attribute load and a ``None`` check (``sim.tracer``); no calendar
  events are ever scheduled by the tracer, enabled or not, so a run
  with tracing off is byte-identical to one without the layer at all.
* **Deterministic.**  Span ids are append order, times are sim time,
  snapshots sort canonically — the exported trace is byte-reproducible
  across repeated runs and on the kernel and wire oracles.
* **Per-simulator.**  The tracer rides on the ``Simulator`` instance
  (``sim.tracer``), never on a module global, so fleet runs stay pure
  functions of their RunSpecs.
"""

from repro.obs.trace import Tracer, attach_tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.collect import (
    collect_cluster,
    collect_kernel,
    collect_kernel_stats,
    collect_replay,
    collect_resilience,
    collect_scheduler,
    collect_urds,
    kernel_table,
)
from repro.obs.export import (
    chrome_trace,
    metrics_jsonl,
    spans_jsonl,
    summarize_spans,
)
from repro.obs.views import top_table

__all__ = [
    "Tracer",
    "attach_tracer",
    "MetricsRegistry",
    "collect_cluster",
    "collect_kernel",
    "collect_kernel_stats",
    "collect_replay",
    "collect_resilience",
    "collect_scheduler",
    "collect_urds",
    "kernel_table",
    "chrome_trace",
    "spans_jsonl",
    "metrics_jsonl",
    "summarize_spans",
    "top_table",
]
