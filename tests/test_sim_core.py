"""Unit tests for the DES kernel (Simulator/Event/Process)."""

import weakref

import pytest

from repro.errors import Interrupted, InvalidEventState, SimError, SimulationEnded
from repro.sim import Simulator
from tests.oracles.kernel_reference import ReferenceSimulator


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        sim.run()
        assert ev.processed and ev.ok and ev.value == 42

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(InvalidEventState):
            ev.succeed(2)

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(InvalidEventState):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(InvalidEventState):
            _ = ev.value

    def test_callback_after_processed_fires_immediately(self, sim):
        ev = sim.event()
        ev.succeed("x")
        sim.run()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        assert got == ["x"]

    def test_unhandled_failed_event_raises_from_run(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            sim.run()


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        t = sim.timeout(5.0)
        sim.run(t)
        assert sim.now == 5.0

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimError):
            sim.timeout(-1)

    def test_timeouts_fire_in_order(self, sim):
        order = []
        for d in (3.0, 1.0, 2.0):
            sim.timeout(d, value=d).add_callback(lambda e: order.append(e.value))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_fifo(self, sim):
        order = []
        for i in range(5):
            sim.timeout(1.0, value=i).add_callback(lambda e: order.append(e.value))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcess:
    def test_process_returns_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        p = sim.process(proc())
        assert sim.run(p) == "done"
        assert sim.now == 1

    def test_process_sees_event_value(self, sim):
        def proc():
            v = yield sim.timeout(2, value="payload")
            return v

        assert sim.run(sim.process(proc())) == "payload"

    def test_nested_processes_compose(self, sim):
        def child():
            yield sim.timeout(3)
            return 7

        def parent():
            v = yield sim.process(child())
            return v * 2

        assert sim.run(sim.process(parent())) == 14
        assert sim.now == 3

    def test_exception_propagates_through_yield(self, sim):
        def failing():
            yield sim.timeout(1)
            raise RuntimeError("inner")

        def catching():
            try:
                yield sim.process(failing())
            except RuntimeError as e:
                return f"caught {e}"

        assert sim.run(sim.process(catching())) == "caught inner"

    def test_uncaught_process_exception_surfaces_at_run(self, sim):
        def failing():
            yield sim.timeout(1)
            raise KeyError("k")

        p = sim.process(failing())
        with pytest.raises(KeyError):
            sim.run(p)

    def test_yield_non_event_fails_process(self, sim):
        def bad():
            yield 42

        p = sim.process(bad())
        with pytest.raises(SimError, match="must yield Event"):
            sim.run(p)

    def test_yield_already_processed_event_continues_immediately(self, sim):
        ev = sim.event()
        ev.succeed("v")
        sim.run()

        def proc():
            x = yield ev
            return x

        assert sim.run(sim.process(proc())) == "v"
        assert sim.now == 0

    def test_interrupt_raises_inside_process(self, sim):
        log = []

        def victim():
            try:
                yield sim.timeout(100)
            except Interrupted as i:
                log.append(i.cause)
            yield sim.timeout(1)
            return "recovered"

        def attacker(v):
            yield sim.timeout(5)
            v.interrupt(cause="preempt")

        v = sim.process(victim())
        sim.process(attacker(v))
        assert sim.run(v) == "recovered"
        assert log == ["preempt"]
        assert sim.now == 6

    def test_interrupt_dead_process_is_error(self, sim):
        def quick():
            yield sim.timeout(1)

        p = sim.process(quick())
        sim.run(p)
        with pytest.raises(SimError):
            p.interrupt()

    def test_is_alive_lifecycle(self, sim):
        def proc():
            yield sim.timeout(1)

        p = sim.process(proc())
        assert p.is_alive
        sim.run(p)
        assert not p.is_alive


class TestSimulatorRun:
    def test_run_until_time(self, sim):
        hits = []
        sim.timeout(1).add_callback(lambda e: hits.append(1))
        sim.timeout(10).add_callback(lambda e: hits.append(10))
        sim.run(until=5)
        assert hits == [1]
        assert sim.now == 5

    def test_run_until_past_raises(self, sim):
        sim.run(until=5)
        with pytest.raises(SimError):
            sim.run(until=1)

    def test_step_on_empty_calendar_raises(self, sim):
        with pytest.raises(SimulationEnded):
            sim.step()

    def test_run_until_event_that_never_fires(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationEnded):
            sim.run(ev)

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_event_count_increments(self, sim):
        sim.timeout(1)
        sim.timeout(2)
        sim.run()
        assert sim.event_count == 2

    def test_cancellable_timeout_fires_like_timeout(self, sim):
        hits = []
        h = sim.cancellable_timeout(5.0, value="v")
        h.event.add_callback(lambda e: hits.append((sim.now, e.value)))
        assert h.active
        sim.run()
        assert hits == [(5.0, "v")]
        assert not h.active

    def test_cancelled_timeout_runs_no_callbacks(self, sim):
        hits = []
        h = sim.cancellable_timeout(5.0)
        h.event.add_callback(lambda e: hits.append(sim.now))
        assert h.cancel() is True
        assert h.cancel() is False  # idempotent
        assert not h.active
        sim.run()
        assert hits == []
        assert sim.now == 5.0  # the lazy entry still advanced the clock

    def test_cancelled_timeout_not_counted_as_processed(self, sim):
        h = sim.cancellable_timeout(1.0)
        h.cancel()
        sim.timeout(2.0)
        sim.run()
        assert sim.event_count == 1  # only the real timeout counted

    def test_cancel_after_fire_is_noop(self, sim):
        h = sim.cancellable_timeout(1.0)
        sim.run()
        assert h.cancel() is False

    def test_cancellable_timeout_absolute_time(self, sim):
        sim.timeout(3.0)
        sim.run()
        fired = []
        h = sim.cancellable_timeout(at=7.5)
        h.event.add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [7.5]

    def test_cancellable_timeout_argument_validation(self, sim):
        with pytest.raises(SimError):
            sim.cancellable_timeout()  # neither delay nor at
        with pytest.raises(SimError):
            sim.cancellable_timeout(1.0, at=2.0)  # both
        with pytest.raises(SimError):
            sim.cancellable_timeout(at=-1.0)  # in the past

    def test_determinism_same_seeded_program(self):
        def run_once():
            s = Simulator()
            trace = []

            def proc(i):
                yield s.timeout(0.1 * i)
                trace.append((s.now, i))
                yield s.timeout(1)
                trace.append((s.now, i))

            for i in range(10):
                s.process(proc(i))
            s.run()
            return trace

        assert run_once() == run_once()


class TestCancellableTimeoutChurn:
    """The fault injectors lean on cancellable timeouts under churn:
    many armed entries, cancellations racing fires at the same instant,
    and supersede-style reschedule loops."""

    def test_cancel_then_fire_same_timestamp(self, sim):
        # Two entries at the same instant; the first one's callback
        # cancels the second before it pops: it must not fire.
        fired = []
        a = sim.cancellable_timeout(5.0, name="a")
        b = sim.cancellable_timeout(5.0, name="b")
        a.event.add_callback(lambda e: (fired.append("a"), b.cancel()))
        b.event.add_callback(lambda e: fired.append("b"))
        sim.run()
        assert fired == ["a"]
        assert not b.active

    def test_fire_then_cancel_same_timestamp(self, sim):
        # Reverse order: by the time the canceller runs, its target
        # already fired at the same instant — cancel() reports False
        # and the callback has run.
        fired = []
        b = sim.cancellable_timeout(5.0, name="b")
        b.event.add_callback(lambda e: fired.append("b"))
        a = sim.cancellable_timeout(5.0, name="a")
        a.event.add_callback(lambda e: fired.append(("a", b.cancel())))
        sim.run()
        assert fired == ["b", ("a", False)]

    def test_cancelled_entries_not_counted_under_churn(self, sim):
        handles = [sim.cancellable_timeout(1.0 + 0.001 * i)
                   for i in range(200)]
        for h in handles[1::2]:      # cancel every other entry
            assert h.cancel()
        survivors = []
        for i, h in enumerate(handles[0::2]):
            h.event.add_callback(lambda e, i=i: survivors.append(i))
        sim.run()
        assert survivors == list(range(100))
        # Only the surviving entries count as processed events.
        assert sim.event_count == 100

    def test_supersede_reschedule_loop(self, sim):
        # The flow-engine / injector pattern: each fire re-arms a new
        # timeout and cancels the stale one; exactly one chain of fires
        # survives, at the rescheduled instants.
        fires = []
        state = {}

        def arm(delay):
            old = state.get("h")
            if old is not None:
                old.cancel()
            h = sim.cancellable_timeout(delay)
            h.event.add_callback(on_fire)
            state["h"] = h

        def on_fire(_e):
            fires.append(sim.now)
            if len(fires) < 3:
                arm(1.0)

        arm(5.0)
        arm(2.0)   # supersedes the 5s entry
        sim.run()
        assert fires == [2.0, 3.0, 4.0]
        # 3 fires + 2 stale (5s original + final chain leftovers): only
        # non-cancelled entries were counted as processed.
        assert sim.event_count == 3

    def test_cancel_mid_run_from_process(self, sim):
        # A process cancelling a timeout it previously armed, while
        # other timeouts at the same instant fire normally.
        h = sim.cancellable_timeout(10.0)
        hits = []
        h.event.add_callback(lambda e: hits.append("cancelled-one"))

        def proc():
            yield sim.timeout(10.0 - 1e-9)
            h.cancel()
            yield sim.timeout(1.0)
            hits.append("proc-done")

        sim.process(proc())
        sim.run()
        assert hits == ["proc-done"]


class Sentinel:
    """Weakref-able stand-in for whatever a process holds."""


@pytest.mark.parametrize("kernel", [Simulator, ReferenceSimulator])
class TestProcessIsFreedByRefcount:
    """A finished process must not wait for the cyclic collector: the
    process, its generator frame and its result go the moment the last
    outside reference does (the ``Process`` code is shared by both
    kernels, so both are driven)."""

    def test_finished_process_releases_result_and_frame(
            self, kernel, no_collector):
        sim = kernel()
        seen = []

        def proc():
            held, result = Sentinel(), Sentinel()
            seen.extend((weakref.ref(held), weakref.ref(result)))
            yield sim.timeout(1)
            return result

        p = sim.process(proc())
        sim.run()
        assert p.value is seen[1]()
        del p
        assert [r() for r in seen] == [None, None]

    def test_failed_process_releases_frame(self, kernel, no_collector):
        sim = kernel()
        seen = []

        def proc():
            held = Sentinel()
            seen.append(weakref.ref(held))
            yield sim.timeout(1)
            raise ValueError("boom")

        p = sim.process(proc())
        sim.run()
        # The failure still names where it happened ...
        assert p.value.__traceback__.tb_frame.f_code.co_name == "proc"
        assert seen[0]() is not None      # ... and that frame holds it
        del p
        assert seen[0]() is None

    def test_bad_yield_releases_suspended_generator(
            self, kernel, no_collector):
        sim = kernel()
        seen = []

        def proc():
            held = Sentinel()
            seen.append(weakref.ref(held))
            yield "not an event"
            yield held                    # keeps the frame's reference

        p = sim.process(proc())
        sim.run()
        assert isinstance(p.value, SimError)
        # The generator never finished, yet nothing keeps it any more.
        assert seen[0]() is None

    def test_failure_still_propagates_to_a_waiter(self, kernel):
        sim = kernel()

        def child():
            yield sim.timeout(1)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return str(exc)

        assert sim.run(sim.process(parent())) == "boom"

    def test_interrupt_queued_as_process_finishes_is_stale(self, kernel):
        """Two interrupts at one instant: the first runs the generator
        to completion, the second finds a finished process and must be
        a harmless wake-up (it holds its own bound resume hook)."""
        sim = kernel()

        def victim():
            try:
                yield sim.timeout(100)
            except Interrupted as i:
                return i.cause

        def attacker(v):
            yield sim.timeout(5)
            v.interrupt("first")
            v.interrupt("second")

        v = sim.process(victim())
        sim.process(attacker(v))
        sim.run()
        assert v.value == "first" and not v.is_alive
        assert sim.now == 100             # the orphaned timeout fires
        # boot x2, t=5 timeout, two kicks, both processes' own events,
        # the orphaned t=100 timeout
        assert sim.event_count == 8
        with pytest.raises(SimError):
            v.interrupt()
