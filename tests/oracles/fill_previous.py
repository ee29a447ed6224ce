"""The in-place progressive fill as it was before its fast form.

Test fixture only.  :meth:`repro.sim.flows.FlowScheduler._fill` skips
work whose result is already known exactly (one-member constraints ride
the fill level, constraints with no unfrozen member leave the round
loop, constraints that can never bind are pruned, the per-flow
decrements go when each flow has one binder, the deadline comes from
each round's frozen batch).  What it
replaced is kept here verbatim: :func:`fill` is the former
``FlowScheduler._fill`` and :func:`fill_and_deadline` adds the former
per-flow deadline pass of ``FlowScheduler._allocate``.
``tests/test_fill_bit_identity.py`` holds the fast form to these with
``==`` on every rate and on the deadline.
"""

from __future__ import annotations

import math

from repro.sim.flows import _EPS

__all__ = ["fill", "fill_and_deadline"]


def fill(comp) -> None:
    """Weighted progressive filling, in place on one component.

    Same fill semantics as the oracle's global progressive fill,
    walked over the component's constraints and their fid-ordered
    member sets, writing ``Flow.rate`` directly.  Round state lives
    in scratch slots: per constraint the bandwidth used, and the
    weight sum and exact count of unfrozen members (decremented as
    flows freeze, not re-summed every round).
    """
    flows = comp.flows
    cons = comp.constraints
    for c in cons:
        n = len(c._flows)
        c._used = 0.0
        c._live_n = n
        c._live_w = float(n)    # exact while every weight is 1.0
    # Uncapped weight-1 flows all rise by the same additions: they
    # share ``level`` and take it as their rate when they freeze.
    # Only the others accumulate a rate of their own per round.
    own = []
    for f in flows:
        f._frozen = False
        if f.weight != 1.0:
            for c in f.constraints:
                c._live_w = 0.0     # summed exactly in round one
        elif f.rate_cap is None:
            continue
        f.rate = 0.0
        own.append(f)
    level = 0.0
    left = len(flows)
    # Each round freezes at least one flow (or stops).
    while left:
        # delta is the uniform increment of the *normalized* rate
        # (rate/weight) of all unfrozen flows.
        delta = math.inf
        for c in cons:
            if c._live_n <= 0:
                continue
            lw = c._live_w
            if lw <= 0.0:
                # Catastrophic cancellation in the decrements (or
                # a weighted member, first round): re-derive the
                # exact sum in member order.
                lw = 0.0
                for f in c._flows:
                    if not f._frozen:
                        lw += f.weight
                c._live_w = lw
                if lw <= 0.0:
                    continue
            d = (c.capacity - c._used) / lw
            if d < delta:
                delta = d
        for f in own:
            if f.rate_cap is not None:
                d = (f.rate_cap - f.rate) / f.weight
                if d < delta:
                    delta = d
        if delta == math.inf:
            # No constraint and no cap limits the rest: unbounded.
            level = math.inf
            break
        if delta < 0.0:
            delta = 0.0
        level += delta
        # Freeze flows limited by a saturated constraint or their cap.
        froze = []
        for c in cons:
            if c._live_n > 0:
                lw = c._live_w
                if lw > 0:
                    c._used += delta * lw
                if c.capacity - c._used <= _EPS * c.capacity:
                    for f in c._flows:
                        if not f._frozen:
                            f._frozen = True
                            froze.append(f)
        for f in own:
            f.rate += delta * f.weight
            cap = f.rate_cap
            if cap is not None and not f._frozen \
                    and f.rate >= cap - _EPS * cap:
                f._frozen = True
                froze.append(f)
        if not froze:
            # Numerical guard: nothing progressed; stop here.
            break
        for f in froze:
            w = f.weight
            if w == 1.0:
                f.rate = level
            for c in f.constraints:
                c._live_w -= w
                c._live_n -= 1
        left -= len(froze)
        if own:
            own = [f for f in own if not f._frozen]
    if left:
        # Stopped early: unbounded, or left where the guard stopped.
        for f in flows:
            if not f._frozen and (f.weight == 1.0 or level == math.inf):
                f.rate = level


def fill_and_deadline(comp) -> float:
    """:func:`fill`, then the time until the first member completes."""
    next_done = math.inf
    fill(comp)
    for f in comp.flows:
        r = f.rate
        if r > 0:
            nd = f.remaining / r
            if nd < next_done:
                next_done = nd
    return next_done
