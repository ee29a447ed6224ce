"""Summary statistics used by the experiment harness.

The paper reports means over 5 repetitions (Tables III–V), medians over
25 repetitions (Figs. 1b, 8), and min/max spreads (Fig. 1a).  A single
:class:`Summary` captures all of these from a sample vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["Summary", "summarize"]


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample."""

    n: int
    mean: float
    median: float
    std: float
    min: float
    max: float
    p5: float
    p95: float

    @property
    def spread(self) -> float:
        """max/min ratio — the paper's "four fold difference" metric."""
        if self.min <= 0:
            return float("inf")
        return self.max / self.min

    def __str__(self) -> str:
        return (f"n={self.n} mean={self.mean:.4g} median={self.median:.4g} "
                f"min={self.min:.4g} max={self.max:.4g} spread={self.spread:.2f}x")


def summarize(samples: Iterable[float]) -> Summary:
    """Compute a :class:`Summary`; raises ``ValueError`` on empty input."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return Summary(
        n=int(arr.size),
        mean=float(np.mean(arr)),
        median=float(np.median(arr)),
        std=float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0,
        min=float(np.min(arr)),
        max=float(np.max(arr)),
        p5=float(np.percentile(arr, 5)),
        p95=float(np.percentile(arr, 95)),
    )
