"""Tests for Resource / Store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.errors import SimError
from repro.sim import Resource, Simulator, Store
from tests.conftest import resource_in_use, resource_queue_len


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_grants_up_to_capacity(self, sim):
        res = Resource(sim, capacity=2)
        r1, r2, r3 = res.request(), res.request(), res.request()
        sim.run(until=0)
        assert r1.triggered and r2.triggered and not r3.triggered
        assert resource_in_use(res) == 2 and resource_queue_len(res) == 1

    def test_release_wakes_fifo_waiter(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(i, hold):
            req = res.request()
            yield req
            order.append(("acq", i))
            yield sim.timeout(hold)
            res.release()
            order.append(("rel", i))

        for i in range(3):
            sim.process(worker(i, 1.0))
        sim.run()
        assert order == [("acq", 0), ("rel", 0), ("acq", 1),
                         ("rel", 1), ("acq", 2), ("rel", 2)]

    def test_release_idle_raises(self, sim):
        with pytest.raises(SimError):
            Resource(sim).release()

    def test_capacity_validation(self, sim):
        with pytest.raises(SimError):
            Resource(sim, capacity=0)

    def test_cancel_pending_request(self, sim):
        res = Resource(sim, capacity=1)
        first = res.request()
        second = res.request()
        sim.run(until=0)
        res.cancel(second)
        res.release()
        assert resource_in_use(res) == 0
        assert first.triggered


class TestStore:
    def test_fifo_order(self, sim):
        st = Store(sim)
        for i in range(3):
            st.put(i)
        got = []

        def consumer():
            for _ in range(3):
                v = yield st.get()
                got.append(v)

        sim.run(sim.process(consumer()))
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self, sim):
        st = Store(sim)
        got = []

        def consumer():
            v = yield st.get()
            got.append((sim.now, v))

        def producer():
            yield sim.timeout(5)
            yield st.put("item")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(5, "item")]

    def test_bounded_put_blocks(self, sim):
        st = Store(sim, capacity=1)
        timeline = []

        def producer():
            yield st.put("a")
            timeline.append(("put-a", sim.now))
            yield st.put("b")
            timeline.append(("put-b", sim.now))

        def consumer():
            yield sim.timeout(3)
            v = yield st.get()
            timeline.append((f"got-{v}", sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert ("put-a", 0) in timeline
        assert ("put-b", 3) in timeline  # unblocked by the get at t=3

    def test_priority_store_orders_by_priority(self, sim):
        st = Store(sim, priority=True)
        st.put((5, "low"))
        st.put((1, "high"))
        st.put((3, "mid"))
        got = []

        def consumer():
            for _ in range(3):
                v = yield st.get()
                got.append(v)

        sim.run(sim.process(consumer()))
        assert got == ["high", "mid", "low"]

    def test_priority_ties_fifo(self, sim):
        st = Store(sim, priority=True)
        for i in range(4):
            st.put((1, i))
        assert st.items == [0, 1, 2, 3]

    def test_try_get(self, sim):
        st = Store(sim)
        assert st.try_get() == (False, None)
        st.put("x")
        sim.run(until=0)
        assert st.try_get() == (True, "x")

    def test_len_and_items(self, sim):
        st = Store(sim)
        st.put("a")
        st.put("b")
        assert len(st) == 2
        assert st.items == ["a", "b"]


#: One step of a Store history: put an item, park a getter, trigger a
#: parked getter from outside the store (a cancelled wait), drain,
#: non-blocking get, or let the kernel dispatch what is due.
STORE_OPS = hst.lists(hst.one_of(
    hst.tuples(hst.just("put"), hst.integers(0, 99)),
    hst.just(("get",)),
    hst.tuples(hst.just("trigger"), hst.integers(0, 40)),
    hst.just(("drain",)),
    hst.just(("try_get",)),
    hst.just(("run",)),
), max_size=60)


def replay_store(ops, **store_kwargs):
    """Apply ``ops`` to a fresh store; return everything observable:
    the dispatch log (which put / which getter fired, in kernel order,
    with the item each getter got), drain and try_get results, what is
    left queued and the kernel's event count."""
    sim = Simulator()
    store = Store(sim, **store_kwargs)
    log, getters = [], []
    for op in ops:
        kind = op[0]
        if kind == "put":
            store.put(op[1]).add_callback(
                lambda _e, i=op[1]: log.append(("put", i)))
        elif kind == "get":
            ev = store.get()
            ev.add_callback(
                lambda e, k=len(getters): log.append(("get", k, e.value)))
            getters.append(ev)
        elif kind == "trigger":
            if getters:
                ev = getters[op[1] % len(getters)]
                if not ev.triggered:
                    ev.succeed("elsewhere")
        elif kind == "drain":
            log.append(("drain", store.drain()))
        elif kind == "try_get":
            log.append(("try_get", store.try_get()))
        else:
            sim.run()
    sim.run()
    return log, store.items, sim.event_count


class TestStoreFastPath:
    """The unbounded FIFO store's inline put/get against the general
    path, which a huge capacity selects for the very same history."""

    def test_constructor_arguments_select_the_path(self, sim):
        assert Store(sim)._simple
        assert not Store(sim, capacity=10**9)._simple
        assert not Store(sim, priority=True)._simple

    @settings(max_examples=300, deadline=None)
    @given(STORE_OPS)
    def test_same_items_to_same_getters_in_same_order(self, ops):
        assert replay_store(ops) == replay_store(ops, capacity=10**9)

    def test_cancelled_getter_is_skipped(self):
        ops = [("get",), ("get",), ("trigger", 0), ("put", 7), ("run",)]
        log, left, _ = replay_store(ops)
        assert log == [("get", 0, "elsewhere"), ("put", 7), ("get", 1, 7)]
        assert left == []
        assert (log, left) == replay_store(ops, capacity=10**9)[:2]
