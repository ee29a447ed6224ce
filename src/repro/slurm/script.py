"""Batch-script parsing: ``#SBATCH`` options plus ``#NORNS`` directives.

Implements the user interface of Section III / Listing 1::

    #!/bin/bash
    #SBATCH --job-name=sim-phase2
    #SBATCH --nodes=16
    #SBATCH --time=02:00:00
    #SBATCH --workflow-prior-dependency=1001
    #NORNS stage_in lustre://proj/mesh/ nvme0://mesh/ replicate
    #NORNS stage_out nvme0://out/ lustre://proj/results/ gather
    #NORNS persist store nvme0://mesh/ alice

The shell payload itself is not executed (programs are supplied as
Python step functions); everything the scheduler consumes is parsed
faithfully.
"""

from __future__ import annotations

import math
import re
import shlex
from typing import Optional

from repro.errors import ScriptParseError
from repro.slurm.job import JobSpec, PersistDirective, StageDirective

__all__ = ["parse_batch_script"]

_TIME_RE = re.compile(r"^(?:(\d+)-)?(\d{1,2}):(\d{2})(?::(\d{2}))?$")


def _parse_time_limit(text: str) -> float:
    """Parse Slurm time formats: ``MM``, ``HH:MM``, ``HH:MM:SS``,
    ``D-HH:MM``, ``D-HH:MM:SS`` -> seconds."""
    text = text.strip()
    if text.isdigit():
        return int(text) * 60.0
    m = _TIME_RE.match(text)
    if not m:
        raise ScriptParseError(f"unparseable time limit {text!r}")
    days, a, b, c = m.groups()
    if c is not None:
        hours, minutes, seconds = int(a), int(b), int(c)
    else:
        hours, minutes, seconds = int(a), int(b), 0
    total = ((int(days) if days else 0) * 24 + hours) * 3600 \
        + minutes * 60 + seconds
    if total <= 0:
        raise ScriptParseError(f"time limit {text!r} is not positive")
    return float(total)


def _parse_sbatch(tokens: list[str], fields: dict) -> None:
    for tok in tokens:
        if "=" in tok:
            key, _, value = tok.partition("=")
        else:
            key, value = tok, ""
        key = key.lstrip("-")
        if key == "job-name":
            fields["name"] = value
        elif key == "nodes" or key == "N":
            try:
                nodes = int(value)
            except ValueError:
                raise ScriptParseError(f"bad --nodes value {value!r}") from None
            if nodes < 1:
                # JobSpec says the same, but here the line is known.
                raise ScriptParseError("a job needs at least one node")
            fields["nodes"] = nodes
        elif key == "time" or key == "t":
            fields["time_limit"] = _parse_time_limit(value)
        elif key == "workflow-start":
            fields["workflow_start"] = True
        elif key == "workflow-end":
            fields["workflow_end"] = True
        elif key == "workflow-prior-dependency":
            try:
                fields["workflow_prior_dependency"] = int(value)
            except ValueError:
                raise ScriptParseError(
                    f"bad workflow-prior-dependency {value!r}") from None
        elif key == "priority":
            try:
                priority = float(value)
            except ValueError:
                priority = math.nan
            if not math.isfinite(priority):
                raise ScriptParseError(f"bad --priority value {value!r}")
            fields["base_priority"] = priority
        elif key == "uid" or key == "user":
            fields["user"] = value
        # unknown #SBATCH options are ignored, like real sbatch plugins


def _parse_norns(tokens: list[str], fields: dict) -> None:
    if not tokens:
        raise ScriptParseError("#NORNS directive with no arguments")
    verb, *args = tokens
    if verb in ("stage_in", "stage_out"):
        if len(args) < 2:
            raise ScriptParseError(
                f"#NORNS {verb} needs origin and destination")
        mapping = args[2] if len(args) >= 3 else (
            "scatter" if verb == "stage_in" else "gather")
        directive = StageDirective(direction=verb, origin=args[0],
                                   destination=args[1], mapping=mapping)
        key = "stage_in" if verb == "stage_in" else "stage_out"
        fields[key] = fields.get(key, ()) + (directive,)
    elif verb == "persist":
        if len(args) < 2:
            raise ScriptParseError("#NORNS persist needs operation and location")
        user = args[2] if len(args) >= 3 else ""
        fields["persist"] = fields.get("persist", ()) + (
            PersistDirective(operation=args[0], location=args[1], user=user),)
    else:
        raise ScriptParseError(f"unknown #NORNS directive {verb!r}")


def parse_batch_script(text: str, program=None,
                       dataspaces: Optional[tuple[str, ...]] = None) -> JobSpec:
    """Parse a batch script into a :class:`JobSpec`.

    ``program`` supplies the step function the shell body stands in for;
    ``dataspaces`` overrides the default dataspace grant.
    """
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("#SBATCH"):
            parse, rest = _parse_sbatch, line[len("#SBATCH"):]
        elif line.startswith("#NORNS"):
            parse, rest = _parse_norns, line[len("#NORNS"):]
        else:
            continue
        try:
            parse(shlex.split(rest), fields)
        except (ValueError, ScriptParseError) as e:  # shlex: bad quoting
            raise ScriptParseError(f"line {lineno}: {e}") from None
    if program is not None:
        fields["program"] = program
    if dataspaces is not None:
        fields["dataspaces"] = dataspaces
    return JobSpec(**fields)
