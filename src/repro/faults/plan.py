"""Declarative fault plans: what breaks, when, for how long.

A :class:`FaultRecord` is one scheduled fault — a node crash with a
reboot, a drain window, a urd daemon restart, a NIC/link degradation or
partition, a storage-device brownout, or an armed transfer corruption.
A :class:`FaultPlan` is an ordered, validated collection of records;
the :class:`~repro.faults.engine.FaultInjector` compiles it into
cancellable timeouts on the DES calendar, so a plan replays
bit-identically run after run.

Plans serialize to JSON lines (one record per line, ``meta`` first),
mirroring the trace JSONL conventions: only non-default values are
written, unknown keys are ignored on read (forward compatibility), and
``parse(format(plan)) == plan``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import FaultError
from repro.util.records import RecordCodec, read_jsonl, write_jsonl

__all__ = [
    "FAULT_KINDS", "FaultRecord", "FaultPlan",
    "parse_plan", "format_plan", "load_plan", "dump_plan",
    "FAULT_CODEC",
]

#: Every fault kind the engine knows how to inject.
FAULT_KINDS = (
    "node_crash",        # node down; jobs on it requeue; reboot after
                         # `duration` (0 = stays down)
    "node_drain",        # withdraw from scheduling; resume after
                         # `duration` (0 = until a node_resume record)
    "node_resume",       # explicit drain recovery (a crashed node only
                         # returns via its own reboot)
    "urd_restart",       # daemon restart: queued + in-flight task loss,
                         # E.T.A. state invalidated
    "link_degrade",      # NIC egress+ingress capacity ×= magnitude for
                         # `duration` seconds
    "link_partition",    # link capacity floored to ~zero for `duration`
    "device_degrade",    # storage device bandwidth ×= magnitude for
                         # `duration` (device name in `device`)
    "transfer_corrupt",  # arm the node's urd: next `magnitude` transfers
                         # fail verification and retry with backoff
)

#: Kinds that re-rate a capacity and must not overlap per target.
_WINDOW_KINDS = frozenset({"link_degrade", "link_partition",
                           "device_degrade"})
#: Kinds whose magnitude is a capacity factor in (0, 1].
_FACTOR_KINDS = frozenset({"link_degrade", "device_degrade"})


def _window_resource(rec: "FaultRecord") -> Optional[tuple]:
    """The physical resource a windowed fault re-rates (overlap key).

    Link kinds share one key per node — a degrade and a partition touch
    the same NIC constraints, so they must not overlap either.
    """
    if rec.kind in ("link_degrade", "link_partition"):
        return ("link", rec.target)
    if rec.kind == "device_degrade":
        return ("device", rec.target, rec.device)
    if rec.kind == "node_crash":
        return ("node", rec.target)
    return None


@dataclass(frozen=True)
class FaultRecord:
    """One scheduled fault."""

    time: float            # seconds from injector start (>= 0)
    kind: str              # one of FAULT_KINDS
    target: str = ""       # node name (every kind targets a node)
    duration: float = 0.0  # recovery delay; 0 = permanent/one-shot
    magnitude: float = 1.0 # factor (degrades) or count (corruptions)
    device: str = ""       # device name for device_degrade ("nvme0")
    note: str = ""         # free-form commentary (kept verbatim)

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r} "
                             f"(one of: {', '.join(FAULT_KINDS)})")
        if self.time < 0:
            raise FaultError(f"{self.kind}: negative time {self.time}")
        if self.duration < 0:
            raise FaultError(f"{self.kind}: negative duration")
        if not self.target:
            raise FaultError(f"{self.kind}: needs a target node")
        if self.kind in _FACTOR_KINDS and not 0 < self.magnitude <= 1:
            raise FaultError(
                f"{self.kind}: magnitude {self.magnitude} outside (0, 1]")
        if self.kind == "transfer_corrupt" and self.magnitude < 1:
            raise FaultError(
                f"transfer_corrupt: magnitude {self.magnitude} must be a "
                "count >= 1")
        if self.kind == "device_degrade" and not self.device:
            raise FaultError("device_degrade: needs a device name")

    @property
    def end_time(self) -> float:
        """When the fault's recovery fires (== time for one-shots)."""
        return self.time + self.duration

    def __str__(self) -> str:
        extra = ""
        if self.kind in _WINDOW_KINDS or self.kind in ("node_crash",
                                                       "node_drain"):
            extra = f" for {self.duration:g}s"
        return f"t+{self.time:g}s {self.kind} {self.target}{extra}"


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated set of fault records."""

    name: str = "faults"
    records: Tuple[FaultRecord, ...] = ()
    comments: Tuple[str, ...] = ()

    @property
    def n_faults(self) -> int:
        return len(self.records)

    @property
    def horizon(self) -> float:
        """Last instant the plan touches (fire or recovery)."""
        return max((r.end_time for r in self.records), default=0.0)

    def sorted_records(self) -> List[FaultRecord]:
        """Injection order: by time, then kind/target for stable ties."""
        return sorted(self.records,
                      key=lambda r: (r.time, r.kind, r.target, r.device))

    def validate(self, nodes: Iterable[str] = ()) -> None:
        """Check every record; with ``nodes``, also check the targets.

        Overlapping capacity windows on the same *resource* are
        rejected — including across kinds (a ``link_degrade`` and a
        ``link_partition`` re-rate the same NIC constraints) and
        exactly-touching windows (``b.time == a.end_time``: the second
        fire and the first recovery race at one instant) — because the
        engine restores each constraint to its pre-fault baseline, so
        nested or tied windows would recover out of order.
        """
        known = set(nodes)
        windows: Dict[tuple, List[FaultRecord]] = {}
        for rec in self.records:
            rec.validate()
            if known and rec.target not in known:
                raise FaultError(
                    f"{rec.kind}: unknown target node {rec.target!r}")
            key = _window_resource(rec)
            if key is not None:
                windows.setdefault(key, []).append(rec)
        for key, recs in windows.items():
            recs.sort(key=lambda r: r.time)
            for a, b in zip(recs, recs[1:]):
                if a.duration == 0 or b.time <= a.end_time:
                    raise FaultError(
                        f"overlapping {a.kind}/{b.kind} windows on "
                        f"{'/'.join(key)} (t={a.time:g} for "
                        f"{a.duration:g}s, then t={b.time:g})")


# ----------------------------------------------------------------------
# JSONL serialization (plan files and embedded trace fault lines)
# ----------------------------------------------------------------------
#: JSONL key -> FaultRecord attribute, canonical output order.
_KEYS = (
    ("t", "time"),
    ("kind", "kind"),
    ("node", "target"),
    ("duration", "duration"),
    ("magnitude", "magnitude"),
    ("device", "device"),
    ("note", "note"),
)
#: Plan-file lines and a trace's embedded ``{"fault": {...}}`` lines.
FAULT_CODEC = RecordCodec(FaultRecord, _KEYS, ("t", "kind"), FaultError,
                          validate=True)


def format_plan(plan: FaultPlan) -> str:
    """Render a plan as canonical JSON lines (ends with a newline)."""
    return write_jsonl(
        {"name": plan.name, "kind": "fault-plan", "version": 1},
        plan.comments, map(FAULT_CODEC.to_dict, plan.sorted_records()))


def parse_plan(text: str, name: str = "faults") -> FaultPlan:
    """Parse JSONL text into a :class:`FaultPlan`."""
    name, comments, rows = read_jsonl(text, name, FaultError)
    records = tuple(FAULT_CODEC.from_dict(obj, f"line {lineno}")
                    for lineno, obj in rows)
    plan = FaultPlan(name=name, records=records, comments=tuple(comments))
    plan.validate()
    return plan


def load_plan(path: str, name: str = "") -> FaultPlan:
    """Read a JSONL fault plan from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_plan(fh.read(), name=name or path)


def dump_plan(plan: FaultPlan, path: str) -> None:
    """Write a plan to disk as JSON lines (lossless)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_plan(plan))
