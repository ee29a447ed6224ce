"""Measurement probes: counters, gauges and time series.

The experiment harness needs the same observables the paper reports:
request throughput and latency percentiles (Figs. 4–5), aggregated
bandwidth (Figs. 6–7), per-run bandwidth samples (Figs. 1, 8) and phase
runtimes (Tables III–V).  Components expose these through a shared
:class:`Monitor` so experiments never reach into internals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.core import Simulator

__all__ = ["Counter", "TimeSeries", "Monitor"]


class Counter:
    """A monotonically increasing event counter with a creation time."""

    __slots__ = ("name", "value", "created_at")

    def __init__(self, name: str, created_at: float = 0.0) -> None:
        self.name = name
        self.value = 0
        self.created_at = created_at

    def incr(self, amount: int = 1) -> None:
        self.value += amount

    def rate(self, now: float) -> float:
        """Events per second since creation (0 if no time elapsed)."""
        dt = now - self.created_at
        return self.value / dt if dt > 0 else 0.0


class TimeSeries:
    """Append-only ``(time, value)`` samples with summary helpers."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, t: float, v: float) -> None:
        self.times.append(t)
        self.values.append(v)

    def __len__(self) -> int:
        return len(self.values)

    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def mean(self) -> float:
        return float(np.mean(self.array())) if self.values else float("nan")

    def median(self) -> float:
        return float(np.median(self.array())) if self.values else float("nan")

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.array(), q)) if self.values else float("nan")

    def min(self) -> float:
        return float(np.min(self.array())) if self.values else float("nan")

    def max(self) -> float:
        return float(np.max(self.array())) if self.values else float("nan")

    def sum(self) -> float:
        return float(np.sum(self.array()))


class Monitor:
    """Registry of counters and time series bound to one simulator."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._counters: Dict[str, Counter] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = Counter(name, created_at=self.sim.now)
            self._counters[name] = c
        return c

    def series(self, name: str) -> TimeSeries:
        s = self._series.get(name)
        if s is None:
            s = TimeSeries(name)
            self._series[name] = s
        return s

    def sample(self, name: str, value: float) -> None:
        """Record ``value`` on series ``name`` at the current sim time."""
        self.series(name).record(self.sim.now, value)

    def sample_utilization(self, constraint) -> None:
        """Sample a :class:`~repro.sim.flows.CapacityConstraint` onto
        the ``util:<name>`` series.  The load is summed over the
        constraint's own member flows on read — O(members) per sample,
        never a scan of the global flow set."""
        self.series(f"util:{constraint.name}").record(
            self.sim.now, constraint.utilization)

    def counters(self) -> Dict[str, int]:
        return {k: c.value for k, c in sorted(self._counters.items())}

    def series_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._series))

    def get_series(self, name: str) -> Optional[TimeSeries]:
        return self._series.get(name)
