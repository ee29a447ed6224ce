"""Equivalence of the incremental flow engine and the global oracle.

The component-partitioned :class:`FlowScheduler` must be behaviourally
identical to :class:`ReferenceFlowScheduler` (the original
advance-everything / re-fill-everything algorithm, kept in
``tests/oracles/flows_reference.py``): same completion
times, same completion *order*, same cancellation outcomes, same byte
accounting.  These tests sweep randomized workloads — disjoint and
overlapping constraint sets, rate caps, weights, staggered arrivals and
mid-flight cancels — through both engines and compare the full
completion traces.  Determinism (two runs of the incremental engine are
bit-identical) and cancel-mid-component edge cases are pinned
separately.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import CapacityConstraint, FlowScheduler, Simulator
from repro.sim.flows import Flow, _Component
from tests.oracles.flows_reference import ReferenceFlowScheduler, max_min_rates
from tests.conftest import active_flows, component_count


# -- workload generation ----------------------------------------------------

def make_workload(seed, n_flows=60, n_groups=4, shared_frac=0.3,
                  cancel_frac=0.0):
    """A reproducible randomized flow workload description.

    Constraints come in ``n_groups`` disjoint *groups* of three (think:
    per-node membus + device read/write) plus one shared backbone, so
    the component structure exercises singletons, small disjoint
    components and one large merged component.  Returns plain data so
    the same workload can be instantiated against either engine.
    """
    rng = random.Random(seed)
    caps = []
    for g in range(n_groups):
        for j in range(3):
            caps.append((f"g{g}c{j}", rng.uniform(50.0, 500.0)))
    caps.append(("backbone", rng.uniform(100.0, 800.0)))
    flows = []
    for i in range(n_flows):
        g = rng.randrange(n_groups)
        idxs = sorted(rng.sample(range(3 * g, 3 * g + 3),
                                 rng.randint(1, 3)))
        if rng.random() < shared_frac:
            idxs.append(3 * n_groups)  # the shared backbone
        size = rng.uniform(10.0, 5000.0)
        rate_cap = rng.uniform(20.0, 300.0) if rng.random() < 0.25 else None
        weight = rng.choice([1.0, 1.0, 1.0, 2.0, 4.0, 0.5])
        start = rng.uniform(0.0, 30.0)
        cancel_after = (rng.uniform(0.05, 20.0)
                        if rng.random() < cancel_frac else None)
        flows.append((start, size, idxs, rate_cap, weight, cancel_after))
    flows.sort(key=lambda spec: spec[0])
    return caps, flows


def run_workload(engine_cls, caps, flows):
    """Drive one workload through an engine; returns the trace."""
    sim = Simulator()
    fs = engine_cls(sim)
    constraints = [CapacityConstraint(name, cap) for name, cap in caps]
    done_order = []
    cancelled = []

    def starter(spec):
        start, size, idxs, rate_cap, weight, cancel_after = spec
        yield sim.timeout(start)
        done = fs.transfer(size, [constraints[j] for j in idxs],
                           rate_cap=rate_cap, weight=weight,
                           label=f"f@{start:.3f}")
        done.add_callback(
            lambda ev: done_order.append((ev.value.fid, sim.now))
            if ev.ok else cancelled.append(sim.now))
        if cancel_after is not None:
            yield sim.timeout(cancel_after)
            if not done.triggered:
                fs.cancel(done)

    for spec in flows:
        sim.process(starter(spec))
    sim.run()
    return {
        "done_order": done_order,
        "cancelled": sorted(cancelled),
        "completed": fs.completed,
        "bytes": fs.bytes_moved,
        "active": fs.active,
        "end": sim.now,
    }


def assert_traces_match(inc, ref):
    assert [fid for fid, _ in inc["done_order"]] == \
        [fid for fid, _ in ref["done_order"]]
    for (fid, t_inc), (_, t_ref) in zip(inc["done_order"],
                                        ref["done_order"]):
        assert t_inc == pytest.approx(t_ref, rel=1e-9, abs=1e-12), \
            f"flow #{fid} finished at {t_inc} vs reference {t_ref}"
    assert inc["completed"] == ref["completed"]
    assert inc["bytes"] == pytest.approx(ref["bytes"], rel=1e-9)
    assert inc["active"] == ref["active"] == 0
    assert len(inc["cancelled"]) == len(ref["cancelled"])
    for t_inc, t_ref in zip(inc["cancelled"], ref["cancelled"]):
        assert t_inc == pytest.approx(t_ref, rel=1e-9, abs=1e-12)


# -- parity -----------------------------------------------------------------

class TestEngineParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_workload_parity(self, seed):
        caps, flows = make_workload(seed)
        inc = run_workload(FlowScheduler, caps, flows)
        ref = run_workload(ReferenceFlowScheduler, caps, flows)
        assert_traces_match(inc, ref)

    @pytest.mark.parametrize("seed", range(8))
    def test_parity_with_cancels(self, seed):
        caps, flows = make_workload(seed + 100, n_flows=50,
                                    cancel_frac=0.3)
        inc = run_workload(FlowScheduler, caps, flows)
        ref = run_workload(ReferenceFlowScheduler, caps, flows)
        assert_traces_match(inc, ref)

    @pytest.mark.parametrize("seed", range(6))
    def test_parity_fully_disjoint(self, seed):
        # shared_frac=0: every group is its own contention component —
        # the regime the incremental engine optimizes hardest.
        caps, flows = make_workload(seed + 200, n_flows=80, n_groups=8,
                                    shared_frac=0.0, cancel_frac=0.1)
        inc = run_workload(FlowScheduler, caps, flows)
        ref = run_workload(ReferenceFlowScheduler, caps, flows)
        assert_traces_match(inc, ref)

    def test_allocator_matches_reference_rates(self):
        # The in-place fill (incremental live weights, shared level for
        # weight-1 flows) must agree with the oracle's max_min_rates
        # on a connected set: exactly for integer-valued
        # weights, to 1e-9 for fractional ones.
        rng = random.Random(7)
        for weights in [(1.0, 2.0, 3.0), (0.5, 1.0, 2.0), (0.3, 1.0, 1.7)]:
            for _ in range(50):
                caps = [rng.uniform(50, 500)] + \
                    [rng.uniform(20, 400) for _ in range(4)]
                specs = [([0, 1 + rng.randrange(4)],
                          rng.uniform(10, 200) if rng.random() < 0.3
                          else None,
                          rng.choice(weights))
                         for _ in range(rng.randint(2, 10))]
                assert_fill_matches_oracle(caps, specs)


# -- the in-place fill against the oracle -------------------------------------

def fill_in_place(caps, specs):
    """Run ``FlowScheduler._fill`` on a hand-built component.

    ``specs`` is ``(constraint indices, rate_cap, weight)`` per flow, in
    fid order.  Returns ``(constraints, flows)`` with ``rate`` filled.
    """
    sim = Simulator()
    constraints = [CapacityConstraint(f"c{i}", cap)
                   for i, cap in enumerate(caps)]
    comp = _Component(1, 0.0)
    for fid, (idxs, rate_cap, weight) in enumerate(specs, start=1):
        f = Flow(fid, 100.0, [constraints[j] for j in idxs], rate_cap,
                 sim.event(), 0.0, weight=weight)
        f.rate = -1.0   # stale; the fill must overwrite it
        comp.flows[f] = None
        for c in f.constraints:
            c._flows[f] = None
            comp.constraints[c] = None
    comp.classify()
    FlowScheduler._fill(comp)
    return constraints, list(comp.flows)


def assert_fill_matches_oracle(caps, specs):
    """Rates equal the oracle's — exactly when every weight is
    integer-valued (live-weight sums and decrements are then exact),
    to 1e-9 otherwise — and carry the max-min certificate."""
    constraints, flows = fill_in_place(caps, specs)
    got = [f.rate for f in flows]
    want = max_min_rates(flows)
    if all(f.weight.is_integer() for f in flows):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-9)
    saturated = set()
    for c in constraints:
        assert c.load <= c.capacity * (1 + 1e-9)
        if c.load >= c.capacity * (1 - 1e-8):
            saturated.add(c)
    for f in flows:
        # Every flow is held back by something: a saturated medium it
        # crosses or its own cap (or nothing limits it at all).
        at_cap = f.rate_cap is not None \
            and f.rate >= f.rate_cap * (1 - 1e-8)
        assert at_cap or saturated.intersection(f.constraints) \
            or (math.isinf(f.rate) and f.rate_cap is None)


@st.composite
def bipartite_cases(draw, weights):
    n_cons = draw(st.integers(1, 12))
    caps = [draw(st.floats(1.0, 1000.0)) for _ in range(n_cons)]
    specs = []
    for _ in range(draw(st.integers(1, 40))):
        idxs = draw(st.sets(st.integers(0, n_cons - 1), max_size=4))
        rate_cap = draw(st.one_of(st.none(), st.floats(0.5, 500.0)))
        specs.append((sorted(idxs), rate_cap, draw(weights)))
    return caps, specs


class TestFillProperties:
    @given(bipartite_cases(st.sampled_from([1.0, 2.0, 3.0])))
    @settings(max_examples=200, deadline=None)
    def test_integer_weights_match_oracle_exactly(self, case):
        assert_fill_matches_oracle(*case)

    @given(bipartite_cases(st.floats(0.1, 10.0)))
    @settings(max_examples=200, deadline=None)
    def test_float_weights_match_oracle_to_1e9(self, case):
        assert_fill_matches_oracle(*case)


# -- what the fill relies on ------------------------------------------------

class CheckedScheduler(FlowScheduler):
    """Asserts the adjacency invariants after every reallocation."""

    def __init__(self, sim, constraints):
        super().__init__(sim)
        self.watched = constraints
        self.checks = 0
        self.merges = 0
        self.splits = 0

    def _allocate(self, comp):
        super()._allocate(comp)
        self.checks += 1
        for c in self.watched:
            fids = [f.fid for f in c._flows]
            assert fids == sorted(set(fids)), f"{c.name}: {fids}"
            assert c.load == sum(f.rate for f in c._flows)
            if not c._flows:
                assert c.load == 0.0 and c.utilization == 0.0
        for c in comp.constraints:
            assert c.load <= c.capacity * (1 + 1e-9)

    def _attach(self, flow):
        before = component_count(self)
        comp = super()._attach(flow)
        self.merges += component_count(self) < before
        return comp

    def _rebuild(self, comp):
        parts = super()._rebuild(comp)
        self.splits += len(parts) > 1
        return parts


class TestFillInvariants:
    def test_members_stay_fid_ordered_and_load_is_derived(self):
        runs = [self.drive(seed) for seed in range(6)]
        # The sweep as a whole must have exercised both graph changes.
        assert sum(fs.merges for fs in runs) > 0
        assert sum(fs.splits for fs in runs) > 0

    @staticmethod
    def drive(seed):
        # Few backbone flows: groups keep merging through one and
        # splitting apart again when it leaves.
        caps, flows = make_workload(seed + 300, n_flows=60,
                                    shared_frac=0.1, cancel_frac=0.25)
        sim = Simulator()
        constraints = [CapacityConstraint(name, cap) for name, cap in caps]
        fs = CheckedScheduler(sim, constraints)
        rng = random.Random(seed)

        def starter(spec):
            start, size, idxs, rate_cap, weight, cancel_after = spec
            yield sim.timeout(start)
            done = fs.transfer(size, [constraints[j] for j in idxs],
                               rate_cap=rate_cap, weight=weight)
            done.add_callback(lambda ev: None)
            if cancel_after is not None:
                yield sim.timeout(cancel_after)
                if not done.triggered:
                    fs.cancel(done)

        def degrader():
            # Fault-style capacity changes on busy and idle media alike.
            for _ in range(40):
                yield sim.timeout(rng.uniform(0.2, 1.5))
                c = rng.choice(constraints)
                fs.set_capacity(c, c.capacity * rng.choice([0.25, 0.5, 2.0]))

        for spec in flows:
            sim.process(starter(spec))
        sim.process(degrader())
        sim.run()
        assert fs.active == 0 and fs.checks > len(flows)
        for c in constraints:
            assert c.load == 0.0
            # A drained link (capacity mutated to zero) reads 0%, not NaN.
            c.capacity = 0.0
            assert c.utilization == 0.0
        return fs


# -- determinism ------------------------------------------------------------

class TestDeterminism:
    def test_two_runs_identical_traces(self):
        caps, flows = make_workload(42, n_flows=70, cancel_frac=0.2)
        a = run_workload(FlowScheduler, caps, flows)
        b = run_workload(FlowScheduler, caps, flows)
        # Bit-identical, not approximately equal.
        assert a["done_order"] == b["done_order"]
        assert a["cancelled"] == b["cancelled"]
        assert a["bytes"] == b["bytes"]
        assert a["end"] == b["end"]


# -- cancel-mid-component edge cases ---------------------------------------

class TestCancelMidComponent:
    def test_cancel_bridge_flow_splits_component(self):
        # Flow B bridges links 1 and 2; cancelling it must split the
        # component and speed both survivors up to their full links.
        sim = Simulator()
        fs = FlowScheduler(sim)
        l1 = CapacityConstraint("l1", 100.0)
        l2 = CapacityConstraint("l2", 100.0)
        a = fs.transfer(1000.0, [l1])
        b = fs.transfer(1000.0, [l1, l2])
        c = fs.transfer(1000.0, [l2])
        b.add_callback(lambda ev: None)  # awaited: cancel won't raise
        assert component_count(fs) == 1

        observed = []

        def canceller():
            yield sim.timeout(2.0)
            fs.cancel(b)
            observed.append(component_count(fs))

        sim.process(canceller())
        sim.run(a)
        # a moved 100B by t=2 (50 B/s shared with b), then 900B at
        # 100 B/s once the bridge is gone.
        assert sim.now == pytest.approx(11.0)
        assert observed == [2]  # the component split on the cancel
        sim.run(c)
        assert sim.now == pytest.approx(11.0)
        assert b.ok is False

    def test_cancel_at_completion_instant_completion_wins(self):
        # The flow's last byte moves at t=10; a cancel issued at the
        # same instant must deliver the completion, not fail it.
        sim = Simulator()
        fs = FlowScheduler(sim)
        link = CapacityConstraint("link", 100.0)
        done = fs.transfer(1000.0, [link])
        outcomes = []
        done.add_callback(lambda ev: outcomes.append(ev.ok))

        def canceller():
            yield sim.timeout(10.0)
            fs.cancel(done)  # must not raise, must not fail the event

        sim.process(canceller())
        sim.run()
        assert outcomes == [True]
        assert fs.completed == 1

    def test_cancel_last_member_leaves_clean_component_state(self):
        sim = Simulator()
        fs = FlowScheduler(sim)
        link = CapacityConstraint("link", 100.0)
        done = fs.transfer(500.0, [link])
        done.add_callback(lambda ev: None)
        fs.cancel(done)
        assert fs.active == 0
        assert component_count(fs) == 0
        assert active_flows(link) == 0
        assert link.load == 0.0
        # The engine keeps working afterwards.
        d2 = fs.transfer(100.0, [link])
        sim.run(d2)
        assert sim.now == pytest.approx(1.0)

    def test_cancel_in_merged_component_keeps_survivor_rates(self):
        # Merge three node-local components through a backbone flow,
        # then cancel the backbone flow: locals must decouple again.
        sim = Simulator()
        fs = FlowScheduler(sim)
        nodes = [CapacityConstraint(f"n{i}", 100.0) for i in range(3)]
        backbone = CapacityConstraint("bb", 30.0)
        locals_ = [fs.transfer(1000.0, [nodes[i]]) for i in range(3)]
        assert component_count(fs) == 3
        spanning = fs.transfer(10000.0, [backbone, *nodes])
        spanning.add_callback(lambda ev: None)
        assert component_count(fs) == 1

        observed = []

        def canceller():
            yield sim.timeout(1.0)
            fs.cancel(spanning)
            observed.append(component_count(fs))

        sim.process(canceller())
        for ev in locals_:
            sim.run(ev)
        # The spanning flow freezes at 30 B/s (backbone), so each local
        # mops up 70 B/s.  After the cancel locals run at 100 B/s:
        # t=1: locals moved 70B; remaining 930B at 100 B/s -> t=10.3.
        assert sim.now == pytest.approx(10.3)
        assert observed == [3]  # the cancel decoupled the three nodes
        assert component_count(fs) == 0

    def test_cancel_unknown_event_is_noop(self):
        sim = Simulator()
        fs = FlowScheduler(sim)
        ev = sim.event()
        fs.cancel(ev)  # must not raise
        assert not ev.triggered

    def test_cancel_after_completion_is_noop(self):
        sim = Simulator()
        fs = FlowScheduler(sim)
        link = CapacityConstraint("link", 100.0)
        done = fs.transfer(100.0, [link])
        sim.run(done)
        fs.cancel(done)  # event already succeeded; O(1) no-op
        assert done.ok is True


# -- incremental bookkeeping invariants -------------------------------------

class TestIncrementalBookkeeping:
    def test_disjoint_components_never_cross_advance(self):
        # With k disjoint links, per-change work must not scale with the
        # total flow count: flows_touched stays O(changes), far below
        # the O(changes × flows) a global engine would pay.
        sim = Simulator()
        fs = FlowScheduler(sim)
        links = [CapacityConstraint(f"l{i}", 100.0) for i in range(50)]
        for i in range(200):
            fs.transfer(100.0 * (1 + i % 7), [links[i % 50]])
        sim.run()
        assert fs.completed == 200
        # Every component holds at most 4 flows (200 flows / 50 links),
        # so no advance or allocation ever scans more than 4 flows.
        assert fs.flows_touched <= 4 * (2 * 200 + 200)

    def test_constraint_load_is_maintained_not_recomputed(self):
        sim = Simulator()
        fs = FlowScheduler(sim)
        link = CapacityConstraint("link", 100.0)
        fs.transfer(1000.0, [link])
        fs.transfer(1000.0, [link])
        sim.run(until=1.0)
        assert link.load == pytest.approx(100.0)
        assert link.utilization == pytest.approx(1.0)
        sim.run()
        assert link.load == 0.0
        assert link.utilization == 0.0

    def test_single_flow_component_closed_form(self):
        sim = Simulator()
        fs = FlowScheduler(sim)
        r = CapacityConstraint("read", 60.0)
        w = CapacityConstraint("write", 40.0)
        done = fs.transfer(400.0, [r, w], weight=3.0)
        sim.run(done)
        # min(60, 40) = 40 B/s regardless of weight when alone.
        assert sim.now == pytest.approx(10.0)

    def test_weighted_share_in_merged_component(self):
        sim = Simulator()
        fs = FlowScheduler(sim)
        link = CapacityConstraint("link", 90.0)
        heavy = fs.transfer(600.0, [link], weight=2.0)
        light = fs.transfer(300.0, [link], weight=1.0)
        sim.run(heavy)
        # heavy: 60 B/s, light: 30 B/s -> both end at t=10.
        assert sim.now == pytest.approx(10.0)
        sim.run(light)
        assert sim.now == pytest.approx(10.0)
