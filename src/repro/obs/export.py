"""Deterministic exporters for traces and metrics.

``chrome_trace`` emits Chrome ``trace_event`` JSON (the Perfetto /
``chrome://tracing`` format): one *process* per span category, one
*thread* per track (node, job, workflow...), ``ph:"X"`` complete
events for spans and ``ph:"i"`` instants for marks, timestamps in
integer microseconds of sim time.

Byte determinism is load-bearing (the obs benchmark gates it): events
are emitted in a canonical sort order, JSON uses ``sort_keys`` with
compact separators, and nothing kernel- or frame-dependent (event
counts, wall times) is included — so the exported bytes are identical
across repeated runs, on the seed kernel oracle and with real frame
bytes on every hop (``tests/oracles/``;
``benchmarks/test_obs_overhead.py`` compares the hashes).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import ARGS, CAT, NAME, PARENT, SID, T0, T1, TRACK, Tracer
from repro.util.tables import render_table

__all__ = ["chrome_trace", "spans_jsonl", "metrics_jsonl", "summarize_spans"]


def _us(t: float) -> int:
    return int(round(t * 1e6))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _lanes(tracer: Tracer) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """Assign deterministic (pid, tid) pairs to (category, track)."""
    cats: Dict[str, List[str]] = {}
    for rec in tracer.spans:
        cats.setdefault(rec[CAT], [])
        if rec[TRACK] not in cats[rec[CAT]]:
            cats[rec[CAT]].append(rec[TRACK])
    for mrec in tracer.marks:
        cats.setdefault(mrec[0], [])
        if mrec[2] not in cats[mrec[0]]:
            cats[mrec[0]].append(mrec[2])
    lanes: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for pid, cat in enumerate(sorted(cats), start=1):
        for tid, track in enumerate(sorted(cats[cat]), start=1):
            lanes[(cat, track)] = (pid, tid)
    return lanes


def chrome_trace(tracer: Tracer) -> str:
    """Render the trace as Chrome ``trace_event`` JSON (one string)."""
    lanes = _lanes(tracer)
    events: List[dict] = []
    for (cat, track), (pid, tid) in sorted(lanes.items(), key=lambda kv: kv[1]):
        if tid == 1:
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": cat},
            })
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": track or cat},
        })
    body: List[Tuple[tuple, dict]] = []
    for rec in tracer.spans:
        pid, tid = lanes[(rec[CAT], rec[TRACK])]
        ev = {
            "ph": "X", "name": rec[NAME], "cat": rec[CAT],
            "pid": pid, "tid": tid,
            "ts": _us(rec[T0]), "dur": _us(rec[T1]) - _us(rec[T0]),
        }
        args = dict(rec[ARGS]) if rec[ARGS] else {}
        args["sid"] = rec[SID]
        if rec[PARENT] >= 0:
            args["parent"] = rec[PARENT]
        ev["args"] = args
        body.append(((ev["ts"], pid, tid, 0, rec[SID]), ev))
    for i, mrec in enumerate(tracer.marks):
        cat, name, track, t, parent, args = mrec
        pid, tid = lanes[(cat, track)]
        ev = {
            "ph": "i", "name": name, "cat": cat,
            "pid": pid, "tid": tid, "ts": _us(t), "s": "t",
        }
        if args or parent >= 0:
            a = dict(args) if args else {}
            if parent >= 0:
                a["parent"] = parent
            ev["args"] = a
        body.append(((ev["ts"], pid, tid, 1, i), ev))
    body.sort(key=lambda kv: kv[0])
    events.extend(ev for _k, ev in body)
    return _dumps({"displayTimeUnit": "ms", "traceEvents": events})


def spans_jsonl(tracer: Tracer) -> str:
    """One JSON object per span/mark, in record order (JSONL)."""
    lines = []
    for rec in tracer.spans:
        row = {
            "sid": rec[SID], "cat": rec[CAT], "name": rec[NAME],
            "track": rec[TRACK], "t0": rec[T0], "t1": rec[T1],
        }
        if rec[PARENT] >= 0:
            row["parent"] = rec[PARENT]
        if rec[ARGS]:
            row["args"] = rec[ARGS]
        lines.append(_dumps(row))
    for mrec in tracer.marks:
        cat, name, track, t, parent, args = mrec
        row = {"mark": name, "cat": cat, "track": track, "t": t}
        if parent >= 0:
            row["parent"] = parent
        if args:
            row["args"] = args
        lines.append(_dumps(row))
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_jsonl(registry: MetricsRegistry) -> str:
    """One JSON object per instrument, sorted (JSONL)."""
    lines = [_dumps(row) for row in registry.snapshot()]
    return "\n".join(lines) + ("\n" if lines else "")


def summarize_spans(tracer: Tracer, only: Optional[set] = None) -> str:
    """Per-category span/mark counts as an aligned table."""
    rows = []
    for cat, row in tracer.summary().items():
        if only and cat not in only:
            continue
        rows.append((cat, int(row["spans"]), int(row["marks"]),
                     row["busy_seconds"]))
    return render_table(
        ("category", "spans", "marks", "busy seconds"),
        rows, title="trace summary")
