"""Property-based tests on the fluid-flow engine's invariants.

The max-min allocation is the load-bearing wall of the whole
reproduction; these properties pin down what must always hold:

* feasibility — no constraint is ever oversubscribed;
* cap respect — no flow exceeds its rate cap;
* work conservation — a saturated constraint's bandwidth is fully used
  whenever an unfrozen flow crosses it;
* weighted fairness — equal-bottleneck flows split proportionally to
  weight;
* completion exactness — a lone flow finishes at size/min(limits).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import CapacityConstraint, FlowScheduler, Simulator
from tests.oracles.flows_reference import max_min_rates
from repro.sim.flows import Flow
from tests.conftest import active_flows


def make_flows(sim, specs, constraints):
    """Build Flow objects (no scheduler) from (size, idxs, cap, weight)."""
    flows = []
    for i, (size, idxs, cap, weight) in enumerate(specs):
        ev = sim.event()
        flows.append(Flow(i + 1, size, [constraints[j] for j in idxs],
                          cap, ev, 0.0, weight=weight))
    return flows


@st.composite
def allocation_cases(draw):
    n_constraints = draw(st.integers(min_value=1, max_value=4))
    capacities = [draw(st.floats(min_value=1.0, max_value=1000.0))
                  for _ in range(n_constraints)]
    n_flows = draw(st.integers(min_value=1, max_value=8))
    specs = []
    for _ in range(n_flows):
        idxs = draw(st.sets(st.integers(0, n_constraints - 1),
                            min_size=1, max_size=n_constraints))
        cap = draw(st.one_of(st.none(),
                             st.floats(min_value=0.5, max_value=500.0)))
        weight = draw(st.floats(min_value=0.1, max_value=10.0))
        specs.append((100.0, sorted(idxs), cap, weight))
    return capacities, specs


class TestAllocationProperties:
    @given(allocation_cases())
    @settings(max_examples=150, deadline=None)
    def test_feasible_and_caps_respected(self, case):
        capacities, specs = case
        sim = Simulator()
        constraints = [CapacityConstraint(f"c{i}", c)
                       for i, c in enumerate(capacities)]
        flows = make_flows(sim, specs, constraints)
        rates = max_min_rates(flows)
        # Feasibility.
        for i, c in enumerate(constraints):
            load = sum(r for f, r in zip(flows, rates)
                       if c in f.constraints)
            assert load <= c.capacity * (1 + 1e-6)
        # Cap respect + non-negativity.
        for f, r in zip(flows, rates):
            assert r >= 0
            if f.rate_cap is not None:
                assert r <= f.rate_cap * (1 + 1e-6)

    @given(allocation_cases())
    @settings(max_examples=150, deadline=None)
    def test_work_conservation(self, case):
        capacities, specs = case
        sim = Simulator()
        constraints = [CapacityConstraint(f"c{i}", c)
                       for i, c in enumerate(capacities)]
        flows = make_flows(sim, specs, constraints)
        rates = max_min_rates(flows)
        # Every flow must be limited by *something*: a saturated
        # constraint on its path or its own cap.
        for f, r in zip(flows, rates):
            capped = f.rate_cap is not None and r >= f.rate_cap * (1 - 1e-6)
            saturated = any(
                sum(r2 for f2, r2 in zip(flows, rates)
                    if c in f2.constraints) >= c.capacity * (1 - 1e-6)
                for c in f.constraints)
            assert capped or saturated

    @given(st.floats(min_value=0.5, max_value=8.0),
           st.floats(min_value=0.5, max_value=8.0))
    @settings(max_examples=50, deadline=None)
    def test_weighted_fairness(self, w1, w2):
        sim = Simulator()
        link = CapacityConstraint("link", 100.0)
        flows = make_flows(sim, [(100.0, [0], None, w1),
                                 (100.0, [0], None, w2)], [link])
        r1, r2 = max_min_rates(flows)
        assert r1 / r2 == pytest.approx(w1 / w2, rel=1e-6)
        assert r1 + r2 == pytest.approx(100.0, rel=1e-6)

    @given(st.floats(min_value=1.0, max_value=1e9),
           st.floats(min_value=1.0, max_value=1e9),
           st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e9)))
    @settings(max_examples=50, deadline=None)
    def test_single_flow_completion_exact(self, size, capacity, cap):
        sim = Simulator()
        fs = FlowScheduler(sim)
        link = CapacityConstraint("link", capacity)
        done = fs.transfer(size, [link], rate_cap=cap)
        sim.run(done)
        expected_rate = capacity if cap is None else min(capacity, cap)
        assert sim.now == pytest.approx(size / expected_rate, rel=1e-6)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e6),
                    min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_bytes_conserved(self, sizes):
        sim = Simulator()
        fs = FlowScheduler(sim)
        link = CapacityConstraint("link", 1000.0)
        for s in sizes:
            fs.transfer(s, [link])
        sim.run()
        assert fs.bytes_moved == pytest.approx(sum(sizes), rel=1e-9)
        assert fs.completed == len(sizes)
        assert active_flows(link) == 0
