"""Standard Workload Format (SWF) parsing and rendering.

SWF is the de-facto exchange format for batch-scheduler logs (the
Parallel Workloads Archive): ``;``-prefixed header comments followed by
one job per line with 18 whitespace-separated numeric fields::

    ; UnixStartTime: 0
    ; MaxNodes: 34
    1 0 3 60 1 -1 -1 1 120 -1 1 3 -1 -1 -1 -1 -1 -1

Parsing and rendering round-trip: ``parse_swf(format_swf(t))`` yields a
trace equal to ``t`` for every SWF-representable field (the native
staging/workflow extensions live only in the JSONL format, see
:mod:`repro.traces.jsonl`), and ``format_swf`` output is canonical so
``format → parse → format`` is byte-identical.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.traces.records import Trace, TraceError, TraceJob
from repro.util.records import RecordCodec, numbered_lines

__all__ = ["parse_swf", "format_swf", "load_swf", "dump_swf"]

#: The 18 SWF columns: the first 18 TraceJob fields, declared in SWF
#: field order.
_COLUMNS = tuple(f.name for f in dataclasses.fields(TraceJob)[:18])
_CODEC = RecordCodec(TraceJob, [(a, a) for a in _COLUMNS], _COLUMNS,
                     TraceError)


def _num(value: float) -> str:
    """Canonical SWF number: integral values render without a point."""
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def parse_swf(text: str, name: str = "swf") -> Trace:
    """Parse SWF text into a :class:`Trace`.

    Header lines start with ``;`` and are preserved as comments; blank
    lines are skipped; extra trailing fields on a record are tolerated
    (several archive logs append site-specific columns).
    """
    comments: List[str] = []
    jobs: List[TraceJob] = []
    for lineno, line in numbered_lines(text):
        if line.startswith(";"):
            comments.append(line[1:].strip())
            continue
        parts = line.split()
        if len(parts) < len(_COLUMNS):
            raise TraceError(
                f"line {lineno}: {len(parts)} fields, SWF needs "
                f"{len(_COLUMNS)}")
        jobs.append(_CODEC.from_row(parts, f"line {lineno}"))
    return Trace(name=name, jobs=tuple(jobs), comments=tuple(comments))


def format_swf(trace: Trace) -> str:
    """Render a trace as canonical SWF text (ends with a newline)."""
    lines = [f"; {c}".rstrip() for c in trace.comments]
    for job in trace.sorted_jobs():
        lines.append(" ".join(_num(getattr(job, a)) for a in _COLUMNS))
    return "\n".join(lines) + "\n"


def load_swf(path: str, name: str = "") -> Trace:
    """Read an SWF file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_swf(fh.read(), name=name or path)


def dump_swf(trace: Trace, path: str) -> None:
    """Write a trace to disk as SWF (extensions are dropped)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_swf(trace))
