"""The original global flow engine, retired from ``repro.sim.flows``.

Test fixture only (oracles live under ``tests/``).  The product engine,
:class:`~repro.sim.flows.FlowScheduler`, advances and refills only the
flow component a change touches, in place.  What it replaced is kept
here verbatim as its oracle:

* :func:`max_min_rates` — weighted progressive filling over a whole
  flow set, returning rates (``tests/test_flow_properties.py`` and
  ``tests/test_flow_engine_parity.py`` hold ``FlowScheduler._fill`` to
  it, exactly for integer weights);
* :class:`ReferenceFlowScheduler` — advance every flow and refill the
  whole set on every change (``tests/test_flow_engine_parity.py``,
  ``tests/test_sim_flows.py`` and ``benchmarks/test_flow_throughput.py``
  run identical workloads through both engines and compare completion
  times and order).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import SimError
from repro.sim.core import Event, Simulator
from repro.sim.flows import _EPS, CapacityConstraint, Flow

__all__ = ["ReferenceFlowScheduler", "max_min_rates"]


def max_min_rates(flows: Sequence[Flow]) -> List[float]:
    """Progressive-filling *weighted* max-min fair allocation.

    The original global algorithm.  Rates rise proportionally to flow
    weights; flow rate caps are honoured as single-flow constraints.
    Returns rates aligned with ``flows``.
    """
    n = len(flows)
    rates = [0.0] * n
    frozen = [False] * n
    weights = [f.weight for f in flows]
    # Gather the constraints touched by this flow set, once.
    constraints: Dict[CapacityConstraint, List[int]] = {}
    for i, f in enumerate(flows):
        for c in f.constraints:
            constraints.setdefault(c, []).append(i)
    used = {c: 0.0 for c in constraints}

    unfrozen = n
    # Each iteration freezes at least one flow, so <= n rounds.
    for _round in range(n + 1):
        if unfrozen == 0:
            break
        # delta is the uniform increment of the *normalized* rate
        # (rate/weight) of all unfrozen flows.
        delta = math.inf
        for c, members in constraints.items():
            live_w = sum(weights[i] for i in members if not frozen[i])
            if live_w > 0:
                delta = min(delta, (c.capacity - used[c]) / live_w)
        for i, f in enumerate(flows):
            if not frozen[i] and f.rate_cap is not None:
                delta = min(delta, (f.rate_cap - rates[i]) / weights[i])
        if math.isinf(delta):
            # No constraint and no cap limits the rest: unbounded.
            for i in range(n):
                if not frozen[i]:
                    rates[i] = math.inf
                    frozen[i] = True
            break
        delta = max(delta, 0.0)
        for i in range(n):
            if not frozen[i]:
                rates[i] += delta * weights[i]
        for c, members in constraints.items():
            live_w = sum(weights[i] for i in members if not frozen[i])
            used[c] += delta * live_w
        # Freeze flows limited by a saturated constraint or their cap.
        froze_any = False
        for c, members in constraints.items():
            if c.capacity - used[c] <= _EPS * c.capacity:
                for i in members:
                    if not frozen[i]:
                        frozen[i] = True
                        unfrozen -= 1
                        froze_any = True
        for i, f in enumerate(flows):
            if (not frozen[i] and f.rate_cap is not None
                    and rates[i] >= f.rate_cap - _EPS * f.rate_cap):
                frozen[i] = True
                unfrozen -= 1
                froze_any = True
        if not froze_any:
            # Numerical guard: nothing progressed; stop here.
            break
    return rates


class ReferenceFlowScheduler:
    """The original global O(flows × constraints)-per-change engine.

    Every membership change advances *every* active flow and re-runs
    progressive filling over the whole flow set.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._flows: Dict[Flow, None] = {}
        self._fid = itertools.count(1)
        self._last_update = sim.now
        self._epoch = 0          # invalidates stale wake-up events
        self._completed = 0
        self._bytes_moved = 0.0

    # -- public API ----------------------------------------------------
    def transfer(self, size: float,
                 constraints: Iterable[CapacityConstraint] = (),
                 rate_cap: Optional[float] = None,
                 label: str = "", weight: float = 1.0) -> Event:
        """Start a flow of ``size`` bytes; returns its completion event."""
        if size < 0:
            raise SimError(f"negative transfer size {size}")
        if rate_cap is not None and rate_cap <= 0:
            raise SimError(f"rate_cap must be positive, got {rate_cap}")
        if weight <= 0:
            raise SimError(f"weight must be positive, got {weight}")
        done = self.sim.event(name=f"flow:{label or 'transfer'}")
        flow = Flow(next(self._fid), size, tuple(constraints), rate_cap,
                    done, self.sim.now, label, weight)
        if size == 0:
            flow.finished_at = self.sim.now
            flow.done = None
            done.succeed(flow)
            return done
        if not flow.constraints and rate_cap is None:
            flow.finished_at = self.sim.now
            flow.remaining = 0.0
            self._bytes_moved += flow.size
            self._completed += 1
            flow.done = None
            done.succeed(flow)
            return done
        self._advance()
        self._flows[flow] = None
        for c in flow.constraints:
            c._flows[flow] = None
        self._reallocate()
        return done

    def cancel(self, done_event: Event) -> None:
        """Abort the flow behind ``done_event`` (linear scan, oracle)."""
        target = None
        for f in self._flows:
            if f.done is done_event:
                target = f
                break
        if target is None:
            return
        self._advance()
        if target.remaining == 0.0 and target.finished_at is not None:
            return  # completed during the advance: completion wins
        self._detach(target)
        target.rate = 0.0
        self._reallocate()
        done_event.fail(SimError(f"flow #{target.fid} cancelled"))

    @property
    def active(self) -> int:
        return len(self._flows)

    @property
    def completed(self) -> int:
        return self._completed

    @property
    def bytes_moved(self) -> float:
        return self._bytes_moved

    # -- internals -------------------------------------------------------
    def _detach(self, flow: Flow) -> None:
        self._flows.pop(flow, None)
        for c in flow.constraints:
            c._flows.pop(flow, None)

    def _advance(self) -> None:
        """Progress every flow from the last update instant to now."""
        dt = self.sim.now - self._last_update
        self._last_update = self.sim.now
        if dt <= 0:
            return
        finished: List[Flow] = []
        for f in self._flows:
            f.remaining -= f.rate * dt
            if f.remaining <= _EPS * max(1.0, f.size):
                f.remaining = 0.0
                finished.append(f)
        # Deterministic completion order.
        for f in sorted(finished, key=lambda x: x.fid):
            self._finish(f)

    def _finish(self, flow: Flow) -> None:
        self._detach(flow)
        flow.finished_at = self.sim.now
        flow.rate = 0.0
        self._completed += 1
        self._bytes_moved += flow.size
        done, flow.done = flow.done, None  # no Flow <-> Event cycle
        done.succeed(flow)

    def _reallocate(self) -> None:
        """Recompute max-min fair rates and schedule the next wake-up."""
        self._epoch += 1
        flows = sorted(self._flows, key=lambda f: f.fid)
        if not flows:
            return
        rates = max_min_rates(flows)
        next_done = math.inf
        for f, r in zip(flows, rates):
            f.rate = r
            if r > 0:
                next_done = min(next_done, f.remaining / r)
        if math.isinf(next_done):
            return  # everything stalled (zero rates) — wait for a change
        epoch = self._epoch
        wake = self.sim.timeout(next_done, name="flow:wake")
        wake.add_callback(lambda _ev: self._on_wake(epoch))

    def _on_wake(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # superseded by a later reallocation
        self._advance()
        self._reallocate()
