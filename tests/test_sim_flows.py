"""Tests for the max-min fair fluid-flow engine.

These pin down the bandwidth-sharing semantics every higher layer
(PFS contention, NIC sharing, per-stream protocol caps) relies on.
"""

import weakref

import pytest

from repro.errors import SimError
from repro.obs.trace import attach_tracer
from repro.sim import CapacityConstraint, FlowScheduler, Simulator
from tests.oracles.flows_reference import ReferenceFlowScheduler
from tests.conftest import active_flows


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fs(sim):
    return FlowScheduler(sim)


class TestSingleFlow:
    def test_completion_time_is_size_over_capacity(self, sim, fs):
        link = CapacityConstraint("link", 100.0)
        done = fs.transfer(1000.0, [link])
        sim.run(done)
        assert sim.now == pytest.approx(10.0)

    def test_rate_cap_limits_single_flow(self, sim, fs):
        link = CapacityConstraint("link", 100.0)
        done = fs.transfer(100.0, [link], rate_cap=10.0)
        sim.run(done)
        assert sim.now == pytest.approx(10.0)

    def test_zero_size_completes_instantly(self, sim, fs):
        link = CapacityConstraint("link", 100.0)
        done = fs.transfer(0.0, [link])
        sim.run(done)
        assert sim.now == 0.0

    def test_unconstrained_flow_is_instant(self, sim, fs):
        done = fs.transfer(1e12, [])
        sim.run(done)
        assert sim.now == 0.0

    def test_negative_size_rejected(self, fs):
        with pytest.raises(SimError):
            fs.transfer(-1, [])

    def test_flow_records_mean_rate(self, sim, fs):
        link = CapacityConstraint("link", 50.0)
        done = fs.transfer(100.0, [link])
        flow = sim.run(done)
        assert flow.mean_rate == pytest.approx(50.0)
        assert flow.elapsed == pytest.approx(2.0)


class TestFairSharing:
    def test_two_equal_flows_halve_the_link(self, sim, fs):
        link = CapacityConstraint("link", 100.0)
        d1 = fs.transfer(500.0, [link])
        d2 = fs.transfer(500.0, [link])
        sim.run(d1)
        # Both share 50 B/s, finish together at t=10.
        assert sim.now == pytest.approx(10.0)
        sim.run(d2)
        assert sim.now == pytest.approx(10.0)

    def test_short_flow_departure_speeds_up_survivor(self, sim, fs):
        link = CapacityConstraint("link", 100.0)
        short = fs.transfer(100.0, [link])   # shares 50 -> done at t=2
        long = fs.transfer(500.0, [link])
        sim.run(short)
        assert sim.now == pytest.approx(2.0)
        sim.run(long)
        # long moved 100B by t=2, then 400B at full 100 B/s -> t=6.
        assert sim.now == pytest.approx(6.0)

    def test_late_arrival_slows_existing_flow(self, sim, fs):
        link = CapacityConstraint("link", 100.0)

        def starter():
            yield sim.timeout(1.0)
            done2 = fs.transfer(300.0, [link])
            yield done2

        first = fs.transfer(400.0, [link])
        sim.process(starter())
        sim.run(first)
        # first: 100B alone in [0,1), then 50 B/s shared.
        # Remaining 300 at 50 B/s: but second (300B) finishes at t=7,
        # both have 300B at t=1 -> both finish t=7.
        assert sim.now == pytest.approx(7.0)

    def test_capped_flow_leaves_headroom(self, sim, fs):
        link = CapacityConstraint("link", 100.0)
        capped = fs.transfer(100.0, [link], rate_cap=20.0)
        greedy = fs.transfer(400.0, [link])
        sim.run(capped)
        # capped runs at 20, greedy mops up 80 -> both end at t=5.
        assert sim.now == pytest.approx(5.0)
        sim.run(greedy)
        assert sim.now == pytest.approx(5.0)

    def test_max_min_over_two_links(self, sim, fs):
        # Flow A uses link1 only; flows B, C traverse link1+link2(small).
        link1 = CapacityConstraint("l1", 100.0)
        link2 = CapacityConstraint("l2", 20.0)
        b = fs.transfer(100.0, [link1, link2])
        c = fs.transfer(100.0, [link1, link2])
        a = fs.transfer(800.0, [link1])
        sim.run(b)
        # B and C get 10 each (bottleneck link2); A gets the remaining 80.
        assert sim.now == pytest.approx(10.0)
        sim.run(a)
        assert sim.now == pytest.approx(10.0)

    def test_aggregate_scales_linearly_until_core_saturates(self, sim, fs):
        # N capped flows through a big core: throughput = N*cap until
        # N*cap >= core. Mirrors Figs. 6-7 structure.
        core = CapacityConstraint("core", 100.0)
        dones = [fs.transfer(10.0, [core], rate_cap=10.0) for _ in range(5)]
        for d in dones:
            sim.run(d)
        assert sim.now == pytest.approx(1.0)  # 5 flows * 10 = 50 < 100

    def test_oversubscribed_core_shares_fairly(self, sim, fs):
        core = CapacityConstraint("core", 40.0)
        dones = [fs.transfer(10.0, [core], rate_cap=10.0) for _ in range(8)]
        for d in dones:
            sim.run(d)
        # 8 flows want 80, core caps at 40 -> each gets 5 -> 2 seconds.
        assert sim.now == pytest.approx(2.0)


class TestCancel:
    def test_cancel_fails_event_and_frees_bandwidth(self, sim, fs):
        link = CapacityConstraint("link", 100.0)
        d1 = fs.transfer(1000.0, [link])
        d2 = fs.transfer(400.0, [link])
        failures = []
        d1.add_callback(lambda e: failures.append(e.ok))

        def canceller():
            yield sim.timeout(2.0)
            fs.cancel(d1)

        sim.process(canceller())
        sim.run(d2)
        # d2 had 300B left at t=2, then full 100 B/s -> t=5.
        assert sim.now == pytest.approx(5.0)
        assert failures == [False]

    def test_cancel_unknown_event_is_noop(self, sim, fs):
        ev = sim.event()
        fs.cancel(ev)  # must not raise
        assert not ev.triggered

    def test_cancel_settles_co_members_at_their_old_rate_first(self, sim,
                                                                fs):
        # Three flows at 30 B/s each on a 90 B/s link.  At t=2 the
        # survivors have 240 B and 840 B left; from then on they get
        # 45 B/s each, then the long one runs alone at 90 B/s.
        link = CapacityConstraint("link", 90.0)
        short = fs.transfer(300.0, [link])
        doomed = fs.transfer(900.0, [link])
        long_ = fs.transfer(900.0, [link])
        doomed.add_callback(lambda e: None)
        ends = {}
        short.add_callback(lambda e: ends.setdefault("short", sim.now))
        long_.add_callback(lambda e: ends.setdefault("long", sim.now))

        def canceller():
            yield sim.timeout(2.0)
            fs.cancel(doomed)

        sim.process(canceller())
        sim.run()
        assert ends["short"] == pytest.approx(2.0 + 240.0 / 45.0)
        assert ends["long"] == pytest.approx(2.0 + 240.0 / 45.0
                                             + 600.0 / 90.0)
        assert fs.bytes_moved == pytest.approx(1200.0)


class TestSetCapacity:
    def test_degrade_mid_flight_keeps_the_bytes_already_moved(self, sim,
                                                              fs):
        # 50 B/s each until t=2 (100 B moved), then 25 B/s each.
        link = CapacityConstraint("link", 100.0)
        dones = [fs.transfer(1000.0, [link]) for _ in range(2)]

        def degrade():
            yield sim.timeout(2.0)
            fs.set_capacity(link, 50.0)

        sim.process(degrade())
        sim.run(dones[-1])
        assert sim.now == pytest.approx(2.0 + 900.0 / 25.0)
        assert link.capacity == 50.0

    def test_recovery_mid_flight_speeds_flows_up(self, sim, fs):
        link = CapacityConstraint("link", 10.0)
        done = fs.transfer(100.0, [link])

        def recover():
            yield sim.timeout(5.0)
            fs.set_capacity(link, 50.0)

        sim.process(recover())
        sim.run(done)
        assert sim.now == pytest.approx(5.0 + 50.0 / 50.0)

    def test_idle_constraint_takes_the_value_for_the_next_transfer(self,
                                                                   sim, fs):
        link = CapacityConstraint("link", 100.0)
        sim.run(fs.transfer(100.0, [link]))     # attached, then idle again
        fs.set_capacity(link, 25.0)
        assert link.capacity == 25.0 and active_flows(link) == 0
        start = sim.now
        sim.run(fs.transfer(100.0, [link]))
        assert sim.now - start == pytest.approx(4.0)

    def test_unchanged_or_nonpositive_capacity(self, sim, fs):
        link = CapacityConstraint("link", 100.0)
        fs.set_capacity(link, 100.0)
        assert link.capacity == 100.0
        with pytest.raises(SimError, match="positive capacity"):
            fs.set_capacity(link, 0.0)


class TestFlowSpans:
    def test_span_ends_where_the_flow_ends_or_is_cancelled(self, sim, fs):
        tracer = attach_tracer(sim, ["flow"])
        link = CapacityConstraint("link", 100.0)
        doomed = fs.transfer(1000.0, [link], label="doomed")
        kept = fs.transfer(400.0, [link], label="kept")
        doomed.add_callback(lambda e: None)

        def canceller():
            yield sim.timeout(2.0)
            fs.cancel(doomed)

        sim.process(canceller())
        sim.run(kept)
        spans = {name: (t0, t1, args["status"])
                 for _sid, _parent, cat, name, _track, t0, t1, args
                 in tracer.spans if cat == "flow"}
        assert spans == {"doomed": (0.0, 2.0, "cancelled"),
                         "kept": (0.0, pytest.approx(5.0), "finished")}


class TestAccounting:
    def test_bytes_moved_and_completed(self, sim, fs):
        link = CapacityConstraint("link", 100.0)
        for size in (100.0, 200.0, 300.0):
            fs.transfer(size, [link])
        sim.run()
        assert fs.completed == 3
        assert fs.bytes_moved == pytest.approx(600.0)
        assert fs.active == 0

    def test_constraint_load_and_utilization(self, sim, fs):
        link = CapacityConstraint("link", 100.0)
        fs.transfer(1000.0, [link])
        fs.transfer(1000.0, [link])
        sim.run(until=1.0)
        assert active_flows(link) == 2
        assert link.load == pytest.approx(100.0)
        assert link.utilization == pytest.approx(1.0)
        sim.run()
        assert sim.now == pytest.approx(20.0)
        assert link.utilization == 0.0

    def test_utilization_of_dead_link_is_zero(self):
        link = CapacityConstraint("link", 100.0)
        link.capacity = 0.0          # drained after construction
        assert link.utilization == 0.0

    @pytest.mark.parametrize("capacity", [0.0, -1.0])
    def test_constructor_rejects_nonpositive_capacity(self, capacity):
        with pytest.raises(SimError, match="positive capacity"):
            CapacityConstraint("bad", capacity)


class Label(str):
    """A weakref-able flow label (``Flow`` has no ``__weakref__``)."""


@pytest.mark.parametrize("engine", [FlowScheduler, ReferenceFlowScheduler])
@pytest.mark.parametrize("size,constrained", [(100.0, True), (0.0, True),
                                              (100.0, False)])
def test_finished_flow_is_freed_without_collector(sim, engine, size,
                                                  constrained, no_collector):
    """The completion event carries the flow as its value, so the flow
    must let go of the event: shared, instantaneous and empty transfers
    alike are reclaimed by reference counting."""
    fs = engine(sim)
    link = CapacityConstraint("link", 100.0)
    label = Label("tagged")
    seen = weakref.ref(label)
    done = fs.transfer(size, [link] if constrained else [], label=label)
    del label
    flow = sim.run(done)
    assert flow.label == "tagged" and flow.finished_at == sim.now
    assert flow.done is None
    del flow, done
    assert seen() is None
