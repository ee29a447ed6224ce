"""The native JSONL trace format: SWF fields + staging/workflow extras.

One JSON object per line.  An optional first line carries trace
metadata::

    {"meta": {"name": "synthetic", "version": 1, "comments": [...]}}
    {"id": 1, "submit": 0.0, "run": 60.0, "procs": 1, ...}
    {"id": 2, "submit": 30.0, "run": 45.0, "dep": 1,
     "stage_in_bytes": 4000000000, "stage_in_files": 4}

Fields keep SWF semantics (``-1`` = unknown) but only non-default
values are written, so records stay compact and the dump is canonical:
``load_jsonl(dump str)`` returns an equal :class:`Trace` including every
NORNS staging / workflow extension, which plain SWF cannot carry.
"""

from __future__ import annotations

from typing import List

from repro.traces.records import Trace, TraceError, TraceJob
from repro.util.records import RecordCodec, read_jsonl, write_jsonl

__all__ = ["parse_jsonl", "format_jsonl", "load_jsonl", "dump_jsonl"]

#: JSONL key -> TraceJob attribute, in canonical output order.
_KEYS = (
    ("id", "job_id"),
    ("submit", "submit_time"),
    ("wait", "wait_time"),
    ("run", "run_time"),
    ("procs", "procs"),
    ("cpu", "cpu_time"),
    ("mem", "mem"),
    ("req_procs", "requested_procs"),
    ("req_time", "requested_time"),
    ("req_mem", "requested_mem"),
    ("status", "status"),
    ("user", "user"),
    ("group", "group"),
    ("executable", "executable"),
    ("queue", "queue"),
    ("partition", "partition"),
    ("dep", "dep"),
    ("deps", "deps"),
    ("think", "think_time"),
    ("workflow_start", "workflow_start"),
    ("checkpoint", "checkpoint"),
    ("stage_in_bytes", "stage_in_bytes"),
    ("stage_in_files", "stage_in_files"),
    ("stage_out_bytes", "stage_out_bytes"),
    ("stage_out_files", "stage_out_files"),
    ("persist", "persist"),
    ("max_requeues", "max_requeues"),
)

#: Trace-job records; embedded ``{"fault": {...}}`` lines use
#: :data:`repro.faults.plan.FAULT_CODEC`.
_CODEC = RecordCodec(TraceJob, _KEYS, ("id", "submit"), TraceError)


def format_jsonl(trace: Trace) -> str:
    """Render a trace as canonical JSON lines (ends with a newline).

    Embedded fault records (``{"fault": {...}}`` lines, times relative
    to the replay start) come right after the metadata so a resilience
    scenario reads header → failure schedule → workload.
    """
    from repro.faults.plan import FAULT_CODEC
    records = [{"fault": FAULT_CODEC.to_dict(rec)} for rec in trace.faults]
    records.extend(map(_CODEC.to_dict, trace.sorted_jobs()))
    return write_jsonl({"name": trace.name, "version": 1}, trace.comments,
                       records)


def parse_jsonl(text: str, name: str = "jsonl") -> Trace:
    """Parse JSONL text into a :class:`Trace`."""
    from repro.errors import FaultError
    from repro.faults.plan import FAULT_CODEC
    name, comments, rows = read_jsonl(text, name, TraceError)
    jobs: List[TraceJob] = []
    faults: List = []
    from_dict = _CODEC.from_dict
    for lineno, obj in rows:
        if "fault" in obj:
            rec = obj["fault"]
            if rec.__class__ is not dict:
                raise TraceError(
                    f"line {lineno}: 'fault' must be a JSON object")
            try:
                faults.append(FAULT_CODEC.from_dict(rec, f"line {lineno}"))
            except FaultError as exc:
                raise TraceError(str(exc)) from None
        else:
            jobs.append(from_dict(obj, f"line {lineno}"))
    return Trace(name=name, jobs=tuple(jobs), comments=tuple(comments),
                 faults=tuple(faults))


def load_jsonl(path: str, name: str = "") -> Trace:
    """Read a JSONL trace file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_jsonl(fh.read(), name=name or path)


def dump_jsonl(trace: Trace, path: str) -> None:
    """Write a trace to disk as JSON lines (lossless)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_jsonl(trace))
