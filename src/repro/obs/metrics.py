"""Typed metrics registry with label sets.

One registry per run: counters, gauges, histograms and info strings
keyed by ``(name, sorted labels)``.  Replay reports, fleet artifacts,
experiment tables and the ``--perf`` footers all render from the same
snapshot, instead of each report format hand-threading its own counter
plumbing (the pre-PR-10 state: kernel ``stats()`` one way, resilience
counters another, scheduler stats a third).

Snapshots are deterministic: instruments sort by ``(name, labels)``,
values are recorded as plain ints/floats, histograms summarize through
:func:`repro.util.stats.summarize`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.util.stats import summarize

__all__ = ["Instrument", "MetricsRegistry"]

_KINDS = ("counter", "gauge", "histogram", "info")


class Instrument:
    """One named metric stream of a fixed kind and label set."""

    __slots__ = ("name", "kind", "labels", "value", "samples")

    def __init__(self, name: str, kind: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.kind = kind
        self.labels = labels
        self.value: float = 0
        self.samples: List[float] = []

    # counter ---------------------------------------------------------

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    # gauge -----------------------------------------------------------

    def set(self, value) -> None:
        self.value = value

    # histogram -------------------------------------------------------

    def observe(self, value: float) -> None:
        self.samples.append(value)

    # export ----------------------------------------------------------

    @property
    def label_str(self) -> str:
        if not self.labels:
            return ""
        return ",".join(f"{k}={v}" for k, v in self.labels)

    def snapshot(self) -> dict:
        row = {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
        }
        if self.kind == "histogram":
            row["count"] = len(self.samples)
            if self.samples:
                s = summarize(self.samples)
                row["summary"] = {
                    "mean": s.mean,
                    "median": s.median,
                    "min": s.min,
                    "max": s.max,
                    "p95": s.p95,
                }
        else:
            row["value"] = self.value
        return row


class MetricsRegistry:
    """Get-or-create registry of :class:`Instrument` objects."""

    __slots__ = ("_instruments",)

    def __init__(self):
        self._instruments: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Instrument] = {}

    def _get(self, name: str, kind: str, labels: dict) -> Instrument:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        inst = self._instruments.get(key)
        if inst is None:
            inst = Instrument(name, kind, key[1])
            self._instruments[key] = inst
        elif inst.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {inst.kind}, not {kind}"
            )
        return inst

    def counter(self, name: str, **labels) -> Instrument:
        return self._get(name, "counter", labels)

    def gauge(self, name: str, **labels) -> Instrument:
        return self._get(name, "gauge", labels)

    def histogram(self, name: str, **labels) -> Instrument:
        return self._get(name, "histogram", labels)

    def info(self, name: str, value: str, **labels) -> Instrument:
        inst = self._get(name, "info", labels)
        inst.value = value
        return inst

    # -- iteration / export -------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def total(self, name: str) -> float:
        """Sum of counter/gauge ``name`` over its label sets (0 when
        absent)."""
        return sum(inst.value for (n, _), inst in self._instruments.items()
                   if n == name)

    def snapshot(self) -> List[dict]:
        """All instruments as plain dicts, sorted by (name, labels)."""
        return [inst.snapshot() for inst in self]

    def rows(self, prefix: str = "") -> List[Tuple[str, object]]:
        """(display name, value) pairs for ``render_table``.

        Histograms render as ``count`` plus mean/p95 rows so the table
        stays two columns wide everywhere it is embedded.
        """
        out: List[Tuple[str, object]] = []
        for inst in self:
            if prefix and not inst.name.startswith(prefix):
                continue
            label = inst.name if not inst.labels else f"{inst.name}{{{inst.label_str}}}"
            if inst.kind == "histogram":
                out.append((f"{label}.count", len(inst.samples)))
                if inst.samples:
                    s = summarize(inst.samples)
                    out.append((f"{label}.mean", s.mean))
                    out.append((f"{label}.p95", s.p95))
            else:
                out.append((label, inst.value))
        return out
