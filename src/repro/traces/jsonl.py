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

import dataclasses
import json
from typing import Dict, List

from repro.traces.records import Trace, TraceError, TraceJob

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

_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TraceJob)}
_INT_ATTRS = frozenset({
    "job_id", "procs", "requested_procs", "status", "user", "group",
    "executable", "queue", "partition", "dep",
    "stage_in_bytes", "stage_in_files", "stage_out_bytes",
    "stage_out_files", "max_requeues",
})
_BOOL_ATTRS = frozenset({"workflow_start", "persist", "checkpoint"})
_REQUIRED = ("id", "submit")


def _coerce(attr: str, value):
    if attr == "deps":
        if not isinstance(value, (list, tuple)):
            raise TypeError("deps must be a list of job ids")
        return tuple(int(v) for v in value)
    if attr in _BOOL_ATTRS:
        return bool(value)
    if attr in _INT_ATTRS:
        return int(value)
    return float(value)


def _record(job: TraceJob) -> Dict:
    out: Dict = {}
    for key, attr in _KEYS:
        value = getattr(job, attr)
        if key in _REQUIRED or value != _DEFAULTS[attr]:
            out[key] = list(value) if attr == "deps" else value
    return out


def format_jsonl(trace: Trace) -> str:
    """Render a trace as canonical JSON lines (ends with a newline).

    Embedded fault records (``{"fault": {...}}`` lines, times relative
    to the replay start) come right after the metadata so a resilience
    scenario reads header → failure schedule → workload.
    """
    from repro.faults.plan import fault_record_to_dict
    meta: Dict = {"name": trace.name, "version": 1}
    if trace.comments:
        meta["comments"] = list(trace.comments)
    lines = [json.dumps({"meta": meta}, separators=(", ", ": "))]
    for rec in trace.faults:
        lines.append(json.dumps({"fault": fault_record_to_dict(rec)},
                                separators=(", ", ": ")))
    for job in trace.sorted_jobs():
        lines.append(json.dumps(_record(job), separators=(", ", ": ")))
    return "\n".join(lines) + "\n"


def parse_jsonl(text: str, name: str = "jsonl") -> Trace:
    """Parse JSONL text into a :class:`Trace`."""
    from repro.errors import FaultError
    from repro.faults.plan import parse_fault_record
    attr_by_key = dict(_KEYS)
    comments: List[str] = []
    jobs: List[TraceJob] = []
    faults: List = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {lineno}: bad JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise TraceError(f"line {lineno}: expected a JSON object")
        if "meta" in obj:
            meta = obj["meta"]
            if not isinstance(meta, dict):
                raise TraceError(
                    f"line {lineno}: 'meta' must be a JSON object")
            name = meta.get("name", name)
            comments.extend(meta.get("comments", ()))
            continue
        if "fault" in obj:
            try:
                faults.append(parse_fault_record(
                    obj["fault"], where=f"line {lineno}"))
            except FaultError as exc:
                raise TraceError(str(exc)) from None
            continue
        for req in _REQUIRED:
            if req not in obj:
                raise TraceError(f"line {lineno}: record lacks {req!r}")
        fields = {}
        for key, value in obj.items():
            attr = attr_by_key.get(key)
            if attr is None:
                continue  # forward compatibility: ignore unknown keys
            try:
                fields[attr] = _coerce(attr, value)
            except (TypeError, ValueError):
                raise TraceError(
                    f"line {lineno}: bad value {value!r} for {key!r}"
                ) from None
        jobs.append(TraceJob(**fields))
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
