"""What one control-plane operation costs: events and Python calls.

Three operations cross the kernel -> Store -> Fabric -> Mercury ->
resilience -> urd path at volume, and each is pinned here per operation:

* a heartbeat probe (``norns.ping`` through an armed resilience layer,
  almost all of an armed chaos replay's events),
* a status poll through Mercury ``norns.submit`` (the Fig. 5 path),
* a status poll over the user AF_UNIX socket (the Fig. 4 path).

Event counts are exact and every event is named: a change that adds,
drops or merges one shows up as a changed name, not just a number.
Python calls (``sys.setprofile`` ``call`` events, which include
generator resumptions) are upper bounds at what the kernel and the lazy
wire frames spend today; a change may lower them, not raise them.
Nothing here reads a clock.  The README's "What one control-plane
operation costs" table is this file in prose.
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.cluster import build, nextgenio, replay_scale
from repro.net.mercury import _deliver_response, _Guard, _serve
from repro.net.sockets import Credentials, _land
from repro.norns import NornsClient, TaskType
from repro.norns.resources import memory_region, posix_path
from repro.norns.urd import GID_NORNS_USER
from repro.sim import Process, Store
from repro.wire import make_frame, open_frame
from repro.wire import norns_proto as proto

USER = Credentials(uid=1000, gid=100, groups=frozenset({GID_NORNS_USER}))
JOB = 91_000

#: Events of one heartbeat probe, in dispatch order.
PROBE_EVENTS = ("interval timeout", "request hop", "incoming put",
                "incoming get", "service", "dispatch boot", "dispatch exit",
                "response hop", "reply", "guarded", "deadline")
#: Events of one Mercury ``norns.submit`` status poll, in dispatch order.
MERCURY_POLL_EVENTS = ("request hop", "incoming put", "incoming get",
                       "service", "dispatch boot", "handler boot", "accept",
                       "urd service", "handler exit", "dispatch exit",
                       "response hop", "reply")
#: Events of one AF_UNIX status poll, in dispatch order.
UNIX_POLL_EVENTS = ("request hop", "server inbox put", "server inbox get",
                    "accept", "urd service", "response hop",
                    "client inbox put", "client inbox get")

#: Upper bounds on Python calls per operation, at what they cost since
#: requests are served by dispatch events instead of a process each (and
#: a socket hop carries its payload instead of a closure); before, a
#: probe cost 38, a Mercury poll 63 and an AF_UNIX poll 70, and before
#: the hop path was flattened, 93, 100 and 84.
PROBE_CALLS = 31
MERCURY_POLL_CALLS = 56
UNIX_POLL_CALLS = 66


def _role(process_name: str) -> str:
    """Which process of the stack a process name belongs to."""
    if ":hb:" in process_name:
        return "heartbeat monitor"
    if process_name.startswith("hg:"):
        return "progress loop"
    if process_name == "handler":
        return "handler"
    if process_name.endswith(":conn"):
        return "urd connection"
    return "client"


def name_event(ev) -> str:
    """Name a calendar entry by what it does on the control path."""
    if isinstance(ev, Process):
        return f"{_role(ev.name)} exit"
    name = ev.name
    if name.endswith((":put", ":get")):
        store, op = name.rsplit(":", 1)
        if store.startswith("hg:"):
            return f"incoming {op}"
        side = "server" if ":server:" in store else "client"
        return f"{side} inbox {op}"
    if name.endswith(":accept:request"):
        return "accept"
    if name.startswith("rpc:"):
        return "guarded" if name.endswith(":guarded") else "reply"
    cbs = ev.callbacks
    if cbs is _serve:               # the progress loop's hand-off
        return "dispatch boot"
    if cbs is None and name.startswith("hg:"):
        return "dispatch exit"      # posted by _Dispatch.finish
    if cbs is _deliver_response:
        return "response hop"
    if getattr(cbs, "__func__", None) is Store.put:
        return "request hop"
    if getattr(cbs, "__func__", None) is _Guard.settle:
        return "deadline"
    if isinstance(cbs, list):       # Channel.send's hop + the sender
        assert cbs[0] is _land
        sender = _role(cbs[-1].__self__.name)
        return "response hop" if sender == "urd connection" else "request hop"
    owner = cbs.__self__              # a process's resume hook
    if name:
        return f"{_role(owner.name)} boot"
    return {"heartbeat monitor": "interval timeout",
            "progress loop": "service"}.get(_role(owner.name), "urd service")


def dispatched(sim, until: float = float("inf")) -> list[str]:
    """Step the kernel through ``until`` (default: until it is idle);
    the name of every event dispatched."""
    names = []
    dispatch = sim._dispatch_one

    def record(ev):
        if not ev._defunct:
            names.append(name_event(ev))
        dispatch(ev)

    sim._dispatch_one = record
    try:
        while sim.peek() <= until and sim.peek() != float("inf"):
            sim.step()
    finally:
        del sim._dispatch_one
    return names


def python_calls(run) -> int:
    """``call`` events the profiler sees while ``run()`` runs."""
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def per_op(names: list[str], ops: int) -> Counter:
    """The event-name multiset one operation contributes."""
    counts = Counter(names)
    assert all(n % ops == 0 for n in counts.values()), counts
    return Counter({k: n // ops for k, n in counts.items()})


def calls_per_op(measure, size: int) -> float:
    """Python calls per operation in steady state.

    ``measure(k)`` runs a fresh scenario of size ``k`` under the
    profiler and returns ``(calls, operations)``; the difference
    between sizes ``size`` and ``2 * size`` drops what a run costs once
    (starting the client, ``run()`` itself).
    """
    calls, ops = measure(size)
    calls2, ops2 = measure(2 * size)
    assert ops2 > ops > 0
    return (calls2 - calls) / (ops2 - ops)


def poll_calls(poller):
    """``measure`` for :func:`calls_per_op` over a polling scenario."""
    def measure(polls):
        sim, poll = poller(polls)
        return python_calls(lambda: sim.run(sim.process(poll()))), polls
    return measure


# -- heartbeat probe -------------------------------------------------------

ROUNDS = 5           # heartbeat intervals per measured window


def armed_ring():
    """A 4-node replay cluster, every node heartbeating its ring
    successor as the fault injector arms it; first round done."""
    handle = build(replay_scale(n_nodes=4), seed=0)
    names = sorted(handle.nodes)
    for i, name in enumerate(names):
        handle.nodes[name].urd.resilience.arm(
            watch=(names[(i + 1) % len(names)],))
    sim = handle.sim
    # Probes go out every 2 s from arming; half-way between two rounds
    # every earlier probe, its 1 s deadline included, is over.
    sim.run(until=sim.now + 3.5)
    return handle, names


def probes(handle, names) -> int:
    return sum(handle.nodes[n].urd.resilience.counters.heartbeat_probes
               for n in names)


def test_probe_dispatches_eleven_named_events():
    handle, names = armed_ring()
    sim = handle.sim
    first, events = probes(handle, names), sim.event_count
    window = dispatched(sim, sim.now + 2.0 * ROUNDS)
    n = probes(handle, names) - first
    assert n == 4 * ROUNDS
    assert sim.event_count - events == len(window) == 11 * n
    assert per_op(window, n) == Counter(PROBE_EVENTS)


def test_probe_dispatch_order():
    """A single monitor: one probe's events in the order they run (in
    the ring, the four monitors' probes interleave)."""
    handle = build(replay_scale(n_nodes=4), seed=0)
    names = sorted(handle.nodes)
    handle.nodes[names[0]].urd.resilience.arm(watch=(names[1],))
    sim = handle.sim
    sim.run(until=sim.now + 3.5)
    assert dispatched(sim, sim.now + 2.0) == list(PROBE_EVENTS)


def test_probe_python_call_budget():
    def measure(rounds):
        handle, names = armed_ring()
        first = probes(handle, names)
        sim = handle.sim
        calls = python_calls(lambda: sim.run(until=sim.now + 2.0 * rounds))
        return calls, probes(handle, names) - first

    assert calls_per_op(measure, ROUNDS) <= PROBE_CALLS


# -- Mercury status poll ---------------------------------------------------

POLLS = 50


def mercury_poller(polls: int = POLLS):
    """A client node with one finished task on the target urd; returns
    the kernel and a process that makes ``polls`` status polls."""
    handle = build(nextgenio(n_nodes=2, workers=8), seed=0)
    sim = handle.sim
    target, client = handle.node_names
    ep = handle.network.endpoint(client)
    reg = proto.NORNS_PROTOCOL
    task = []

    def submit():
        raw = yield ep.call(target, "norns.submit", make_frame(
            reg, proto.IotaskSubmitRequest(
                task_type=proto.IOTASK_COPY,
                input=proto.ResourceDesc(kind=proto.KIND_MEMORY, size=1),
                output=proto.ResourceDesc(
                    kind=proto.KIND_POSIX_PATH, nsid="tmp0://",
                    path="/budget/0.dat"),
                pid=0, admin=True)))
        task.append(open_frame(reg, raw).task_id)
        yield sim.timeout(1.0)        # the copy is done; only polls run

    handle.run(submit())

    def poll():
        for _ in range(polls):
            raw = yield ep.call(target, "norns.submit", make_frame(
                reg, proto.IotaskStatusRequest(task_id=task[0], pid=0)))
            assert open_frame(reg, raw).error_code == proto.ERR_SUCCESS

    return sim, poll


def test_mercury_poll_dispatches_twelve_named_events():
    sim, poll = mercury_poller()
    sim.process(poll())
    names = dispatched(sim)
    assert names[0] == "client boot" and names[-1] == "client exit"
    body = names[1:-1]
    assert len(body) == 12 * POLLS
    assert body[:12] == list(MERCURY_POLL_EVENTS)
    assert per_op(body, POLLS) == Counter(MERCURY_POLL_EVENTS)


def test_mercury_poll_python_call_budget():
    assert calls_per_op(poll_calls(mercury_poller), POLLS) \
        <= MERCURY_POLL_CALLS


# -- AF_UNIX status poll ---------------------------------------------------

def unix_poller(polls: int = POLLS):
    """A connected user client with one finished task on its node's
    urd; returns the kernel and a process that makes ``polls`` polls."""
    handle = build(nextgenio(n_nodes=1, workers=8), seed=0)
    sim = handle.sim
    node = handle.nodes[handle.node_names[0]]
    cli = NornsClient(sim, node.hub, USER, pid=50_000,
                      socket_path=node.urd.config.user_socket)
    task = cli.iotask_init(TaskType.COPY, memory_region(1 << 20),
                           posix_path("tmp0://", "/budget/poll.dat"))

    def setup():
        ctl = node.slurmd.ctl()
        yield from ctl.register_job(
            JOB, ctl.job_init([node.name], ["tmp0://"]))
        yield from ctl.add_process(JOB, 50_000, 1000, 100)
        ctl.close()
        yield from cli.submit(task)
        yield sim.timeout(1.0)        # the copy is done; only polls run

    handle.run(setup())

    def poll():
        for _ in range(polls):
            yield from cli.error(task)

    return sim, poll


def test_unix_poll_dispatches_eight_named_events():
    sim, poll = unix_poller()
    sim.process(poll())
    names = dispatched(sim)
    assert names[0] == "client boot" and names[-1] == "client exit"
    body = names[1:-1]
    assert len(body) == 8 * POLLS
    assert body[:8] == list(UNIX_POLL_EVENTS)
    assert per_op(body, POLLS) == Counter(UNIX_POLL_EVENTS)


def test_unix_poll_python_call_budget():
    assert calls_per_op(poll_calls(unix_poller), POLLS) <= UNIX_POLL_CALLS
