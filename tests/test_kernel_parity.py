"""Fast-kernel vs reference-kernel parity and hot-path edge cases.

The flattened-calendar kernel (:class:`Simulator`) must be
observationally identical to the tuple-heap oracle
(:class:`ReferenceSimulator`, ``tests/oracles/kernel_reference.py``): same dispatch order, same virtual times,
same event counts, for any workload.  These tests drive both kernels
through randomized mixed workloads and through the specific edge cases
the fast path restructures (lazy-cancel compaction, batched
same-instant pops, the churn-free process resume path, tombstoned
callback removal).
"""

import random

import pytest

from repro.errors import Interrupted, SimulationEnded
from repro.sim import Simulator, Store, all_of, any_of
from tests.oracles.kernel_reference import ReferenceSimulator

KERNELS = [Simulator, ReferenceSimulator]
KERNEL_IDS = ["fast", "reference"]


# ---------------------------------------------------------------------------
# Randomized parity: identical dispatch traces on both kernels
# ---------------------------------------------------------------------------

def run_random_workload(sim_cls, seed: int):
    """A seeded mixed workload that records its full dispatch trace.

    Every callback appends ``(now, tag)`` — if the two kernels disagree
    on ordering anywhere, the traces diverge.
    """
    rng = random.Random(seed)
    sim = sim_cls()
    trace = []

    def note(tag):
        def cb(ev):
            trace.append((sim.now, tag, ev.ok))
        return cb

    # Plain timeouts on a quantized grid (forces same-instant batches).
    for i in range(rng.randint(50, 120)):
        delay = 0.25 * rng.randint(0, 12)
        sim.timeout(delay).add_callback(note(f"t{i}"))

    # Cancellable timeouts, some cancelled before, some after, firing.
    handles = []
    for i in range(rng.randint(30, 80)):
        h = sim.cancellable_timeout(delay=0.25 * rng.randint(0, 20))
        h.event.add_callback(note(f"c{i}"))
        handles.append(h)
    for h in rng.sample(handles, len(handles) // 2):
        h.cancel()

    # Store ping-pong through a bounded queue.
    store = Store(sim, capacity=rng.randint(1, 4))
    n_msgs = rng.randint(10, 40)

    def producer():
        for i in range(n_msgs):
            yield store.put(i)
            trace.append((sim.now, f"put{i}", True))

    def consumer():
        for i in range(n_msgs):
            got = yield store.get()
            trace.append((sim.now, f"got{got}", True))
            if i % 3 == 0:
                yield sim.timeout(0.25 * rng.randint(0, 3))

    sim.process(producer())
    sim.process(consumer())

    # Interruptible sleepers + a deterministic interrupter.
    n_interrupts = rng.randint(2, 6)

    def sleeper(k, expected):
        got = 0
        while got < expected:
            try:
                yield sim.timeout(1000.0)
            except Interrupted as exc:
                got += 1
                trace.append((sim.now, f"intr{k}:{exc.cause}", False))

    per = [0, 0]
    for i in range(n_interrupts):
        per[i % 2] += 1
    victims = [sim.process(sleeper(k, per[k])) for k in range(2)
               if per[k] > 0]

    def interrupter():
        for i in range(n_interrupts):
            yield sim.timeout(0.25 * rng.randint(1, 8))
            victims[i % len(victims)].interrupt(i)

    sim.process(interrupter())

    # Conditions over same-instant event groups.
    group = [sim.timeout(2.0, value=i) for i in range(4)]
    any_of(sim, group).add_callback(note("any"))
    all_of(sim, group).add_callback(note("all"))

    sim.run()
    return trace, sim.event_count, sim.now


@pytest.mark.parametrize("seed", [1, 7, 42, 1234, 99999])
def test_randomized_dispatch_parity(seed):
    fast_trace, fast_count, fast_now = run_random_workload(
        Simulator, seed)
    ref_trace, ref_count, ref_now = run_random_workload(
        ReferenceSimulator, seed)
    assert fast_trace == ref_trace
    assert fast_count == ref_count
    assert fast_now == ref_now
    assert len(fast_trace) > 100  # the workload actually ran


# ---------------------------------------------------------------------------
# run(until=Event) edge cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sim_cls", KERNELS, ids=KERNEL_IDS)
def test_run_until_failing_event_raises(sim_cls):
    sim = sim_cls()

    def failer():
        yield sim.timeout(1.0)
        raise RuntimeError("stage-in failed")

    proc = sim.process(failer())
    with pytest.raises(RuntimeError, match="stage-in failed"):
        sim.run(proc)
    assert sim.now == 1.0


@pytest.mark.parametrize("sim_cls", KERNELS, ids=KERNEL_IDS)
def test_run_until_never_fired_event_raises_ended(sim_cls):
    sim = sim_cls()
    never = sim.event()
    sim.timeout(3.0)
    with pytest.raises(SimulationEnded):
        sim.run(never)


@pytest.mark.parametrize("sim_cls", KERNELS, ids=KERNEL_IDS)
def test_run_until_already_processed_event_returns_immediately(sim_cls):
    sim = sim_cls()
    ev = sim.timeout(1.0, value="done")
    sim.run()
    assert sim.run(ev) == "done"  # add_callback fires synchronously


# ---------------------------------------------------------------------------
# Interrupt racing an already-fired target
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sim_cls", KERNELS, ids=KERNEL_IDS)
def test_interrupt_beats_same_instant_timeout(sim_cls):
    """An interrupt lands URGENT at the same instant the awaited timeout
    fires NORMAL: the process must see the Interrupted first, and the
    stale timeout wakeup must not resume it a second time."""
    sim = sim_cls()
    log = []
    box = {}

    def worker():
        try:
            yield sim.timeout(5.0)
            log.append("timeout")
        except Interrupted as exc:
            log.append(f"interrupted:{exc.cause}")
        yield sim.timeout(10.0)
        log.append("second")

    def kicker():
        # Scheduled before the worker exists, so at t=5 this NORMAL
        # entry dispatches first and posts the URGENT kick, which then
        # preempts the worker's not-yet-dispatched timeout entry.
        yield sim.timeout(5.0)
        box["worker"].interrupt("kick")

    sim.process(kicker())
    box["worker"] = sim.process(worker())
    sim.run()
    assert log == ["interrupted:kick", "second"]
    assert sim.now == 15.0  # stale t=5 wakeup did not double-resume


@pytest.mark.parametrize("sim_cls", KERNELS, ids=KERNEL_IDS)
def test_interrupt_while_parked_on_processed_event(sim_cls):
    """Interrupting a process whose awaited event has already been
    PROCESSED (shared event, observed by someone else first)."""
    sim = sim_cls()
    shared = sim.timeout(1.0, value="x")
    log = []

    def late_waiter():
        yield sim.timeout(2.0)
        got = yield shared  # already PROCESSED: resumes without parking
        log.append(got)
        try:
            yield sim.timeout(100.0)
        except Interrupted:
            log.append("intr")

    proc = sim.process(late_waiter())

    def kicker():
        yield sim.timeout(3.0)
        proc.interrupt()

    sim.process(kicker())
    sim.run()
    assert log == ["x", "intr"]


# ---------------------------------------------------------------------------
# Lazy cancel + compaction
# ---------------------------------------------------------------------------

def test_cancel_compact_fire_ordering():
    """Force a compaction between cancels and later firings: survivors
    must fire at their exact times in their original order."""
    sim = Simulator()
    fired = []
    survivors = []
    doomed = []
    for i in range(3000):
        h = sim.cancellable_timeout(delay=10.0 + i * 0.5)
        if i % 10 == 0:
            h.event.add_callback(
                lambda ev, i=i: fired.append((sim.now, i)))
            survivors.append((10.0 + i * 0.5, i))
        else:
            doomed.append(h)
    for h in doomed:
        h.cancel()  # 2700 cancels >> live: compaction must kick in
    stats_mid = sim.stats()
    assert stats_mid["compactions"] >= 1
    assert stats_mid["pending"] == len(survivors)
    sim.run()
    assert fired == survivors
    assert sim.stats()["pending"] == 0


@pytest.mark.parametrize("sim_cls", KERNELS, ids=KERNEL_IDS)
def test_cancelled_entries_never_fire(sim_cls):
    sim = sim_cls()
    fired = []
    handles = [sim.cancellable_timeout(delay=float(i % 7) + 1.0)
               for i in range(200)]
    for h in handles:
        h.event.add_callback(lambda ev: fired.append(sim.now))
    for h in handles[::2]:
        h.cancel()
    sim.run()
    assert len(fired) == 100
    assert sim.stats()["defunct_skips"] + sim.stats()["compactions"] > 0


def test_reference_kernel_never_compacts():
    sim = ReferenceSimulator()
    for i in range(5000):
        sim.cancellable_timeout(delay=1.0 + i).cancel()
    assert sim.stats()["compactions"] == 0
    assert sim.stats()["kernel"] == "reference"
    sim.run()
    assert sim.stats()["defunct_skips"] == 5000


# ---------------------------------------------------------------------------
# Conditions under batched same-instant pops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sim_cls", KERNELS, ids=KERNEL_IDS)
def test_condition_winner_under_batched_pops(sim_cls):
    """Many events share one instant; any_of must pick the first in
    schedule order on both kernels, and all_of must see every value."""
    sim = sim_cls()
    events = [sim.timeout(4.0, value=i) for i in range(32)]
    winner = any_of(sim, events)
    everything = all_of(sim, events)
    sim.run()
    assert list(winner.value.values()) == [0]
    assert list(everything.value.values()) == list(range(32))
    assert sim.now == 4.0


# ---------------------------------------------------------------------------
# Event.remove_callback regression (satellite 1)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sim_cls", KERNELS, ids=KERNEL_IDS)
def test_remove_callback_preserves_order(sim_cls):
    sim = sim_cls()
    ev = sim.event()
    got = []

    def mk(tag):
        def cb(_ev):
            got.append(tag)
        return cb

    a, b, c, d = mk("a"), mk("b"), mk("c"), mk("d")
    for cb in (a, b, c, d):
        ev.add_callback(cb)
    ev.remove_callback(b)  # middle removal: tombstoned, order kept
    ev.succeed()
    sim.run()
    assert got == ["a", "c", "d"]


@pytest.mark.parametrize("sim_cls", KERNELS, ids=KERNEL_IDS)
def test_remove_callback_lifo_and_refire(sim_cls):
    """The hot pattern: the last-added callback is removed (any_of
    losers, superseded waits).  Tail removals must actually shrink the
    list, and removing everything must leave a firable empty event."""
    sim = sim_cls()
    ev = sim.event()
    cbs = []

    def mk(i):
        def cb(_ev):
            raise AssertionError(f"removed callback {i} ran")
        return cb

    for i in range(50):
        cb = mk(i)
        cbs.append(cb)
        ev.add_callback(cb)
    for cb in reversed(cbs):
        ev.remove_callback(cb)
    assert ev.callbacks in (None, [])  # tail-pops shed tombstones
    ev.succeed("ok")
    sim.run()
    assert ev.value == "ok"


@pytest.mark.parametrize("sim_cls", KERNELS, ids=KERNEL_IDS)
def test_remove_single_callback(sim_cls):
    sim = sim_cls()
    ev = sim.event()

    def cb(_ev):
        raise AssertionError("removed callback ran")

    ev.add_callback(cb)
    ev.remove_callback(cb)
    ev.succeed()
    sim.run()
    assert ev.processed


@pytest.mark.parametrize("sim_cls", KERNELS, ids=KERNEL_IDS)
def test_remove_missing_callback_is_noop(sim_cls):
    sim = sim_cls()
    ev = sim.event()
    ev.add_callback(lambda e: None)
    ev.remove_callback(lambda e: None)  # different object: no-op
    ev.succeed()
    sim.run()
    assert ev.processed


# ---------------------------------------------------------------------------
# stats() honesty
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sim_cls", KERNELS, ids=KERNEL_IDS)
def test_stats_shape_and_honest_pending(sim_cls):
    sim = sim_cls()
    sim.timeout(1.0)
    sim.timeout(2.0)
    h = sim.cancellable_timeout(delay=3.0)
    h.cancel()
    stats = sim.stats()
    assert set(stats) == {"kernel", "events", "pending", "defunct_pending",
                          "defunct_skips", "compactions"}
    assert stats["pending"] == 2  # cancelled entry excluded
    assert sim.pending_count == 2
    assert stats["defunct_pending"] == 1
    sim.run()
    stats = sim.stats()
    assert stats["pending"] == 0
    assert stats["events"] == sim.event_count == 2
