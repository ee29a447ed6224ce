"""The fast in-place fill equals its former form bit for bit.

:meth:`FlowScheduler._fill` skips round work whose result is already
known exactly: constraints with no unfrozen member leave the round
loop, constraints that can never bind are pruned by the cached per-flow
bound ``_ub``, a fill where each flow has one binder runs its rounds
once per class of equal (capacity, member count), and the deadline
comes from each round's frozen batch.  Every other fill, of one flow or
many, runs the same round loop as the former fill.  Every
``sim_digest`` and exact counter of the benchmark depends on each rate
and deadline being the same float as before (a last-bit change moves a
wake instant), so these tests compare with ``==`` against the verbatim
former fill in ``tests/oracles/fill_previous.py``, float weights
included: on hand-built components, and on a whole engine run whose
components, class tables and bounds went through attach, finish, cancel
and ``set_capacity``.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationEnded
from repro.net.fabric import Fabric
from repro.net.mercury import MercuryNetwork
from repro.sim import Simulator
from repro.sim import flows as flows_module
from repro.sim.flows import (
    _FOLD_MIN, _LINK_MAX, _PRUNE_MARGIN, CapacityConstraint, Flow,
    FlowScheduler, _bound, _Component,
)
from repro.util import GiB
from tests.oracles.fill_previous import fill_and_deadline
from tests.test_flow_engine_parity import bipartite_cases


def build(caps, specs, remaining):
    """A hand-built component: ``specs`` is ``(constraint indices,
    rate_cap, weight)`` per flow in fid order, ``remaining`` its bytes
    left.  Constraints enter the component in index order."""
    sim = Simulator()
    constraints = [CapacityConstraint(f"c{i}", cap)
                   for i, cap in enumerate(caps)]
    comp = _Component(1, 0.0)
    for (idxs, rate_cap, weight), left in zip(specs, remaining):
        f = Flow(len(comp.flows) + 1, left, [constraints[j] for j in idxs],
                 rate_cap, sim.event(), 0.0, weight=weight)
        f.rate = -1.0   # stale; the fill must overwrite it
        comp.flows[f] = None
        for c in f.constraints:
            c._flows[f] = None
    for c in constraints:
        if c._flows:
            comp.constraints[c] = None
    comp.classify()
    return comp


def assert_bit_identical(caps, specs, remaining):
    old = build(caps, specs, remaining)
    new = build(caps, specs, remaining)
    want = fill_and_deadline(old)
    got = FlowScheduler._fill(new)
    assert [f.rate for f in new.flows] == [f.rate for f in old.flows]
    assert got == want


# -- cases --------------------------------------------------------------------

#: Capacities that collide: exact ties, neighbours within 1e-9, powers
#: of two (exact sums), and 1e18 "unlimited" links.
BASES = [1.0, 3.0, 1000.0, 2.0 ** 30, 1.7e9, 1.825e9, 6.25e9, 1e18]
capacities = st.one_of(
    st.sampled_from(BASES),
    st.builds(lambda b, k: b * (1 + k * 1e-10),
              st.sampled_from(BASES), st.integers(-12, 12)),
    st.builds(lambda b, k: b + k * math.ulp(b),
              st.sampled_from(BASES), st.integers(-3, 3)),
    st.floats(1.0, 1e12),
)
remainders = st.one_of(st.sampled_from([1.0, 2.0 ** 24, 16.0 * 2 ** 20]),
                       st.floats(1.0, 1e12))


@st.composite
def bipartite_with_remaining(draw, weights):
    caps, specs = draw(bipartite_cases(weights))
    remaining = draw(st.lists(remainders, min_size=len(specs),
                              max_size=len(specs)))
    return caps, specs, remaining


@st.composite
def mesh_cases(draw):
    """The bulk-transfer mesh in miniature: nodes on a ring, each flow
    crossing its source's egress, the core, its peer's ingress and one
    connection cap shared by one or two flows."""
    n_nodes = draw(st.integers(2, 8))
    nic = draw(capacities)
    core = draw(capacities)
    caps = [core]
    egress = [len(caps) + i for i in range(n_nodes)]
    caps += [nic] * n_nodes
    ingress = [len(caps) + i for i in range(n_nodes)]
    caps += [draw(st.sampled_from([nic, draw(capacities)]))
             for _ in range(n_nodes)]
    weights = draw(st.sampled_from(["ones", "mixed"]))
    specs = []
    open_conn = None    # a connection cap still waiting for its second flow
    for i in range(n_nodes):
        for s in range(draw(st.integers(1, 4))):
            peer = (i + 1 + s % min(4, n_nodes - 1)) % n_nodes
            src, dst = (i, peer) if s % 2 == 0 else (peer, i)
            if open_conn is not None and draw(st.booleans()):
                conn, open_conn = open_conn, None
            else:
                conn = len(caps)
                caps.append(draw(capacities))
                if draw(st.booleans()):
                    open_conn = conn
            idxs = [egress[src], 0, ingress[dst], conn]
            rate_cap = None
            if draw(st.integers(0, 9)) == 0:
                # A rate cap equal to a capacity on the path, or not.
                rate_cap = draw(st.one_of(
                    st.sampled_from([caps[j] for j in idxs]), capacities))
            weight = 1.0
            if weights == "mixed" and draw(st.booleans()):
                weight = draw(st.one_of(st.sampled_from([0.5, 2.0, 3.0]),
                                        st.floats(0.1, 10.0)))
            specs.append((idxs, rate_cap, weight))
    remaining = draw(st.lists(remainders, min_size=len(specs),
                              max_size=len(specs)))
    return caps, specs, remaining


# -- the tests ------------------------------------------------------------------

class TestFillBitIdentity:
    @given(bipartite_with_remaining(st.sampled_from([1.0])))
    @settings(max_examples=150, deadline=None)
    # One flow: only a rate cap; over an infinite capacity; over two
    # equal capacities (two binders: the round loop); below _FOLD_MIN.
    @example(([], [([], 2.0, 1.0)], [7.0]))
    @example(([math.inf], [([0], None, 1.0)], [7.0]))
    @example(([3.0, 3.0], [([0, 1], None, 1.0)], [7.0]))
    @example(([_FOLD_MIN / 4], [([0], None, 1.0)], [7.0]))
    def test_weight_one_bipartite(self, case):
        assert_bit_identical(*case)

    @given(bipartite_with_remaining(st.one_of(st.just(1.0),
                                              st.floats(0.1, 10.0))))
    @settings(max_examples=150, deadline=None)
    # One weighted flow, alone in its component.
    @example(([5.0, 3.0], [([0, 1], 4.0, 2.5)], [7.0]))
    @example(([5.0], [([0], None, 1e-3)], [7.0]))
    def test_float_weights_bipartite(self, case):
        assert_bit_identical(*case)

    @given(mesh_cases())
    @settings(max_examples=150, deadline=None)
    @example(([2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
              [([1, 0, 4, 5], None, 1.0), ([2, 0, 3, 6], None, 1.0),
               ([1, 0, 4, 7], None, 1.0), ([2, 0, 3, 8], None, 1.0)],
              [4.0, 4.0, 2.0, 8.0]))
    def test_mesh_shaped(self, case):
        assert_bit_identical(*case)

    @pytest.mark.parametrize("caps, specs", [
        # Zero headroom: the one-member cap is exactly the level the
        # shared constraint saturates at, and a rate cap equals it.
        ([2.0, 1.0, 1.0], [([0, 1], None, 1.0), ([0, 2], 1.0, 1.0)]),
        # Tied and 1e-9-near one-member capacities.
        ([10.0, 1.0, 1.0, 1.0 + 1e-9, 1.0 - 1e-9],
         [([0, 1], None, 1.0), ([0, 2], None, 1.0),
          ([0, 3], None, 1.0), ([0, 4], None, 1.0)]),
        # Capacities the prune never drops: infinite, and below
        # _FOLD_MIN where subnormal round-off is absolute.
        ([8.0, math.inf, _FOLD_MIN / 4, 5e-324, 3.0],
         [([0, 1], None, 1.0), ([0, 2], None, 1.0),
          ([0, 3], None, 1.0), ([0, 4], None, 1.0)]),
        ([math.inf, math.inf], [([0], None, 1.0), ([0, 1], None, 1.0)]),
        # Unbounded: nothing but infinite links, no caps.
        ([1e18, math.inf], [([0], None, 1.0), ([1], None, 1.0)]),
        # Weighted component: nothing is pruned.
        ([4.0, 1.0, 3.0], [([0, 1], None, 0.3), ([0, 2], None, 1.0),
                           ([0], None, 1.7)]),
        # A flow with no constraint but its cap.
        ([5.0], [([], 2.0, 1.0), ([0], None, 1.0), ([0], None, 1.0)]),
        # Unbounded flows beside one with as many binders as there are
        # flows: the binder count alone must not take the shortcut.
        ([1.0, 1.0, 2.0], [([], None, 1.0), ([], None, 1.0),
                           ([], None, 1.0), ([0, 1, 2], 1.0, 1.0)]),
        # One binder per flow: a shared link, a private link, a cap.
        ([4.0, 3.0, 1e18], [([0, 2], None, 1.0), ([0, 2], None, 1.0),
                            ([1, 2], None, 1.0), ([2], 0.5, 1.0)]),
        # Two binders on one flow (its link and its cap) beside flows
        # with one each.
        ([4.0, 3.0, 1e18], [([0, 2], None, 1.0), ([0, 2], 1.5, 1.0),
                            ([1, 2], None, 1.0)]),
        # An infinite link is a binder that saturates in round one.
        ([math.inf, 3.0], [([0], None, 1.0), ([1], None, 1.0)]),
    ])
    def test_edges(self, caps, specs):
        assert_bit_identical(caps, specs, [1.0 + i for i in range(len(specs))])


# -- the prune and the cached state ---------------------------------------------

#: ``n * U`` equals ``cap * PRUNE_EDGE`` exactly at the prune threshold.
PRUNE_EDGE = 1.0 - _PRUNE_MARGIN


def hub_capacity(draw, n, ub_max):
    """A hub's capacity near where ``n`` members at ``ub_max`` would fill
    it (``n * U == cap``) or where the prune starts (``n * U == cap *
    (1 - margin)``), a few ulps either side; or a capacity the prune
    must leave alone (1e18 is pruned; inf and sub-``_FOLD_MIN`` are not)."""
    return draw(st.one_of(
        st.builds(lambda base, k: base + k * math.ulp(base),
                  st.sampled_from([n * ub_max, n * ub_max / PRUNE_EDGE,
                                   n * ub_max * (1 + 4e-9)]),
                  st.integers(-4, 4)),
        st.sampled_from([1e18, math.inf, _FOLD_MIN / 4, 5e-324,
                         _FOLD_MIN]),
        capacities,
    ))


@st.composite
def hub_cases(draw):
    """Flows over one or two hubs, each flow bounded by a private link
    or a rate cap (which then sets its ``_ub``); the hub capacities sit
    at the edges of the prune rule."""
    n = draw(st.integers(1, 8))
    weights = draw(st.sampled_from(["ones", "mixed"]))
    caps = [None, None]         # the two hubs, filled in below
    specs = []
    bounds = []
    for i in range(n):
        idxs = [0]
        ub = math.inf
        if draw(st.integers(0, 4)):
            caps.append(draw(capacities))
            idxs.append(len(caps) - 1)
            ub = caps[-1]
        rate_cap = None
        if ub == math.inf or draw(st.booleans()):
            rate_cap = draw(st.one_of(capacities, st.just(ub)))
            if rate_cap == math.inf:
                rate_cap = draw(capacities)
            ub = min(ub, rate_cap)
        bounds.append(ub)
        weight = 1.0
        if weights == "mixed" and draw(st.booleans()):
            weight = draw(st.floats(0.1, 10.0))
        specs.append((idxs, rate_cap, weight))
    second = [i for i in range(n) if draw(st.booleans())]
    caps[0] = hub_capacity(draw, n, max(bounds))
    if second:
        for i in second:
            specs[i][0].append(1)
        caps[1] = hub_capacity(draw, len(second),
                               max(bounds[i] for i in second))
    else:
        caps[1] = 1.0           # carries no flow: not in the component
    remaining = draw(st.lists(remainders, min_size=n, max_size=n))
    return caps, specs, remaining


class TestPruneBitIdentity:
    @given(hub_cases())
    @settings(max_examples=300, deadline=None)
    def test_hub_at_the_prune_edges(self, case):
        assert_bit_identical(*case)

    @pytest.mark.parametrize("scale", [1.0, PRUNE_EDGE, 1 / PRUNE_EDGE])
    @pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
    def test_two_members_at_the_edge(self, scale, ulps):
        # Two flows bounded at 3.0 (a link, a rate cap) share a hub.
        base = 6.0 / scale
        hub = base + ulps * math.ulp(base)
        assert_bit_identical([hub, 3.0], [([0, 1], None, 1.0),
                                          ([0], 3.0, 1.0)], [5.0, 7.0])

    def test_a_hub_nobody_can_fill_keeps_no_round_state(self):
        comp = build([1e18, 5.0, 6.0], [([0, 1], None, 1.0),
                                         ([0, 2], None, 1.0)], [1.0, 2.0])
        hub = next(iter(comp.constraints))
        # Each flow's one binder is its link: nothing decrements the hub.
        hub._used = hub._live_w = "untouched"
        FlowScheduler._fill(comp)
        assert hub._used == hub._live_w == "untouched"
        assert [f.rate for f in comp.flows] == [5.0, 6.0]

    def test_a_rate_cap_sets_the_bound(self):
        # Both flows are capped at 1.0, far below their 10.0 links, so
        # the 3.0 hub cannot fill: 2 * 1.0 < 3.0.
        comp = build([3.0, 10.0, 10.0], [([0, 1], 1.0, 1.0),
                                         ([0, 2], 1.0, 1.0)], [1.0, 1.0])
        assert [f._ub for f in comp.flows] == [1.0, 1.0]
        hub = next(iter(comp.constraints))
        hub._used = "untouched"
        FlowScheduler._fill(comp)
        assert hub._used == "untouched"


# -- the one-binder class rounds ------------------------------------------------

#: Binder capacities a class can share: the common ones, and two below
#: ``_FOLD_MIN`` (where subnormal round-off is absolute).
BINDER_CAPS = st.one_of(capacities,
                        st.sampled_from([_FOLD_MIN / 4, 5e-324]))


@st.composite
def one_binder_cases(draw):
    """Weight-1 components in which every flow has exactly one binder:
    1-, 2- and 3-member constraints and rate caps, with capacities from
    a small pool (equal classes, and equal capacities at different
    member counts) or apart, some below ``_FOLD_MIN``, under zero to
    two hubs wide enough to be pruned, some a few ulps past the prune
    threshold."""
    pool = draw(st.lists(BINDER_CAPS, min_size=1, max_size=3))
    caps = []
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from([1, 2, 3, "cap"]))
        cap = draw(st.one_of(st.sampled_from(pool), BINDER_CAPS))
        if kind == "cap":
            specs.append(([], cap, 1.0))
            continue
        caps.append(cap)
        specs += [([len(caps) - 1], None, 1.0) for _ in range(kind)]
    specs = draw(st.permutations(specs))
    ub_max = max(caps[idxs[0]] if rate_cap is None else rate_cap
                 for idxs, rate_cap, _ in specs)
    for _ in range(draw(st.integers(0, 2))):
        members = draw(st.lists(st.integers(0, len(specs) - 1),
                                min_size=1, unique=True))
        load = len(members) * ub_max
        base = load / PRUNE_EDGE
        hub = draw(st.sampled_from([
            h for h in (base + 2 * math.ulp(base), base * 2.0, 1e18)
            if load < h * PRUNE_EDGE and h >= _FOLD_MIN
        ] or [2.0 * _FOLD_MIN]))
        caps.append(hub)
        for i in members:
            specs[i][0].append(len(caps) - 1)
    remaining = draw(st.lists(remainders, min_size=len(specs),
                              max_size=len(specs)))
    return caps, specs, remaining


def mesh_component():
    """A ``mesh_cases`` component where only the connection caps bind:
    four nodes on a ring, NICs and core far above what their members
    could carry, connection links of 3.0 and 3.5, two of them shared."""
    caps = [400.0] + [40.0] * 8 + [3.0, 3.5, 3.0, 3.5, 3.0, 3.5]
    egress, ingress, conns = [1, 2, 3, 4], [5, 6, 7, 8], range(9, 15)
    specs = []
    for i, conn in enumerate([9, 10, 11, 12, 13, 14, 9, 10]):
        src, dst = i % 4, (i + 1 + i // 4) % 4
        specs.append(([egress[src], 0, ingress[dst], conn], None, 1.0))
    assert set(conns) == {s[0][3] for s in specs}
    return caps, specs, [1.0 + i for i in range(len(specs))]


def refuse(*_args):
    raise AssertionError("took the class rounds")


class TestClassRounds:
    @given(one_binder_cases())
    @settings(max_examples=150, deadline=None)
    def test_one_binder_components(self, case):
        with mock.patch.object(flows_module, "_one_binder_fill",
                               wraps=flows_module._one_binder_fill) as spy:
            assert_bit_identical(*case)
        assert spy.call_count == 1

    def test_a_mesh_component_takes_the_class_rounds(self, monkeypatch):
        assert_bit_identical(*mesh_component())
        monkeypatch.setattr(flows_module, "_one_binder_fill", refuse)
        with pytest.raises(AssertionError, match="class rounds"):
            FlowScheduler._fill(build(*mesh_component()))

    def test_a_shared_component_does_not(self, monkeypatch):
        # The core binds beside the connection links: two binders a flow.
        caps, specs, remaining = mesh_component()
        caps[0] = 12.0
        monkeypatch.setattr(flows_module, "_one_binder_fill", refuse)
        assert_bit_identical(caps, specs, remaining)


# -- a whole engine run against the former fill -----------------------------------

def assert_classes_exact(comp):
    """``comp.classes`` holds every link in the class of its (capacity,
    member count) and nothing else, ``comp.hubs`` every wider
    constraint and nothing else, and the per-flow tallies
    equal a recount, so a fill never needs ``classify()``."""
    want = {}
    hubs = set()
    for c in comp.constraints:
        n = len(c._flows)
        if n > _LINK_MAX:
            hubs.add(c)
        else:
            want.setdefault((c.capacity, n), set()).add(c)
    assert {key: set(members) for key, members in comp.classes.items()} \
        == want
    assert set(comp.hubs) == hubs
    ubs = {}
    capped = {}
    for f in comp.flows:
        assert f._ub == _bound(f.rate_cap, f.constraints)
        ubs[f._ub] = ubs.get(f._ub, 0) + 1
        if f.rate_cap is not None:
            capped.setdefault(f.rate_cap, set()).add(f)
    assert comp.ubs == ubs
    assert max(comp.ubs) == max(f._ub for f in comp.flows)
    assert comp.weighted == sum(f.weight != 1.0 for f in comp.flows)
    assert {cap: set(members) for cap, members in comp.capped.items()} \
        == capped


def checked(fill):
    """``fill`` behind a check that the scheduler kept the class table
    and the per-flow tallies exact: an upkeep bug in attach, detach,
    merge or split fails here (the fill trusts them and re-derives
    nothing)."""
    def run(comp):
        assert_classes_exact(comp)
        return fill(comp)
    return staticmethod(run)


def churn_run(seed):
    """A seeded mesh churn: flows arrive over NICs (and some over a core)
    that the prune drops, and per-connection links that bind, or loop
    back over their node's membus; some are cancelled,
    and a degrader raises and lowers connection links (a flow's bound)
    and hubs (which may turn from never-binding to binding and back).
    Every step checks each component's class table and tallies; the run
    is bounded, so a fill that stalls the clock fails instead of hanging.
    Returns the completion order and instants and the cancel instants."""
    rng = random.Random(seed)
    sim = Simulator()
    fs = FlowScheduler(sim)
    nodes = 6
    core = CapacityConstraint("core", 40.0 * nodes)
    egress = [CapacityConstraint(f"n{i}:out", 40.0) for i in range(nodes)]
    ingress = [CapacityConstraint(f"n{i}:in", 40.0) for i in range(nodes)]
    membus = [CapacityConstraint(f"n{i}:membus", 6.0) for i in range(nodes)]
    conns = {}
    trace = []

    def conn(src, dst):
        c = conns.get((src, dst))
        if c is None:
            c = conns[src, dst] = CapacityConstraint(
                f"conn{src}->{dst}", rng.choice([3.0, 3.5, 4.0]))
        return c

    def check_classes():
        for comp in fs._comps:
            assert_classes_exact(comp)

    def flow(i):
        yield sim.timeout(rng.uniform(0.0, 20.0))
        check_classes()
        src = rng.randrange(nodes)
        dst = (src + rng.randint(1, 3)) % nodes
        path = [egress[src], ingress[dst], conn(src, dst)]
        if rng.random() < 0.3:
            # Most flows skip the core, so components split and merge.
            path.insert(1, core)
        elif rng.random() < 0.2:
            # A loopback bulk names its node's membus twice.
            path = [membus[src], conn(src, src), membus[src]]
        rate_cap = rng.choice([None, None, None, 2.5, 3.5])
        weight = 1.0 if rng.random() < 0.9 else rng.choice([2.0, 0.7])
        done = fs.transfer(rng.uniform(5.0, 60.0), path,
                           rate_cap=rate_cap, weight=weight, label=f"f{i}")
        done.add_callback(lambda ev: trace.append(
            (ev.value.label if ev.ok else "cancel", sim.now)))
        check_classes()
        if rng.random() < 0.15:
            yield sim.timeout(rng.uniform(0.1, 5.0))
            if not done.triggered:
                fs.cancel(done)

    def degrader():
        for _ in range(40):
            yield sim.timeout(rng.uniform(0.1, 1.0))
            if conns and rng.random() < 0.5:
                c = conns[rng.choice(sorted(conns))]
                # Lifted above the NICs, a link no longer bounds its
                # flows: the NIC they cross must come back into the fill.
                fs.set_capacity(c, rng.choice([1.0, 3.0, 50.0, 200.0]))
            else:
                c = rng.choice(egress + ingress + membus + [core])
                fs.set_capacity(c, rng.choice([2.0, 8.0, 40.0, 1e18]))
            check_classes()

    for i in range(70):
        sim.process(flow(i))
    sim.process(degrader())
    for _ in range(50_000):
        try:
            sim.step()
        except SimulationEnded:
            break
    else:
        pytest.fail("the run did not drain")
    assert fs.active == 0
    return trace


def against_the_former_fill(run, monkeypatch):
    """``run()`` with the fill (class table checked before every call),
    then with ``_fill`` swapped for the former fill; returns both."""
    with monkeypatch.context() as m:
        m.setattr(FlowScheduler, "_fill", checked(FlowScheduler._fill))
        got = run()
    with monkeypatch.context() as m:
        m.setattr(FlowScheduler, "_fill", staticmethod(fill_and_deadline))
        want = run()
    return got, want


@pytest.mark.parametrize("seed", range(8))
def test_engine_run_matches_the_former_fill(seed, monkeypatch):
    got, want = against_the_former_fill(lambda: churn_run(seed), monkeypatch)
    assert got == want


def test_a_repeated_constraint_counts_once(monkeypatch):
    """A flow that names ``c`` twice joins a ``c`` with one member:
    ``c``'s count goes 1 -> 2 once (``Flow`` collapses the repeat), and
    the run equals the former fill's."""
    def run():
        sim = Simulator()
        fs = FlowScheduler(sim)
        c = CapacityConstraint("c", 10.0)
        x = CapacityConstraint("x", 3.0)
        ends = []
        for size, path in [(50.0, [c]), (20.0, [c, x, c]), (9.0, [x, c, c])]:
            done = fs.transfer(size, path)
            done.add_callback(lambda ev: ends.append((ev.value.fid, sim.now)))
        flows = list(fs._flows)
        assert [f.constraints for f in flows] == [(c,), (c, x), (x, c)]
        (comp,) = fs._comps
        assert comp.classes == {(3.0, 2): {x: None}}
        assert comp.hubs == {c: None}
        sim.run()
        return ends

    got, want = against_the_former_fill(run, monkeypatch)
    assert got == want
    assert [fid for fid, _ in got] == [3, 1, 2]


def test_loopback_bulk_over_a_busy_membus(monkeypatch):
    """A Mercury bulk whose target is its own node crosses the membus
    twice (route and extras) while another stream is on that membus."""
    def run():
        sim = Simulator()
        fabric = Fabric(sim, core_bandwidth=100 * GiB)
        for name in ("alpha", "beta"):
            fabric.add_node(name, nic_bandwidth=12 * GiB,
                            membus_bandwidth=4 * GiB)
        net = MercuryNetwork(sim, fabric, plugin="ofi+tcp")
        ep = net.endpoint("alpha")
        membus = fabric.port("alpha").membus
        rc = CapacityConstraint("alpha:dev", 3 * GiB)
        ends = []
        events = [
            fabric.flows.transfer(8 * GiB, [membus], label="stream"),
            ep.bulk_push("alpha", 2 * GiB, extra_constraints=(membus,)),
            ep.bulk_pull("alpha", 3 * GiB, extra_constraints=(rc, membus)),
            ep.bulk_push("beta", 1 * GiB, extra_constraints=(membus,)),
        ]
        for i, ev in enumerate(events):
            ev.add_callback(lambda _e, i=i: ends.append((i, sim.now)))
        sim.run()
        assert fabric.flows.active == 0
        return ends

    got, want = against_the_former_fill(run, monkeypatch)
    assert got == want
    assert len(got) == 4
