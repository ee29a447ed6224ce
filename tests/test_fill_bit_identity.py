"""The fast in-place fill equals its former form bit for bit.

:meth:`FlowScheduler._fill` skips round work whose result is already
known exactly: weight-1 one-member constraints ride the fill level,
constraints with no unfrozen member leave the round loop, and the
deadline comes from each round's frozen batch.  Every ``sim_digest`` and
exact counter of the benchmark depends on each rate and deadline being
the same float as before (a last-bit change moves a wake instant), so
these tests compare with ``==`` against the verbatim former fill in
``tests/oracles/fill_previous.py``, float weights included.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import Simulator
from repro.sim.flows import (
    _FOLD_MIN, CapacityConstraint, Flow, FlowScheduler, _Component,
)
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
    def test_weight_one_bipartite(self, case):
        assert_bit_identical(*case)

    @given(bipartite_with_remaining(st.one_of(st.just(1.0),
                                              st.floats(0.1, 10.0))))
    @settings(max_examples=150, deadline=None)
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
        # Capacities the fold leaves in the round loop: infinite, and
        # below the floor where its window bound holds.
        ([8.0, math.inf, _FOLD_MIN / 4, 5e-324, 3.0],
         [([0, 1], None, 1.0), ([0, 2], None, 1.0),
          ([0, 3], None, 1.0), ([0, 4], None, 1.0)]),
        ([math.inf, math.inf], [([0], None, 1.0), ([0, 1], None, 1.0)]),
        # Unbounded: nothing but infinite links, no caps.
        ([1e18, math.inf], [([0], None, 1.0), ([1], None, 1.0)]),
        # Weighted component: one-member constraints stay in the loop.
        ([4.0, 1.0, 3.0], [([0, 1], None, 0.3), ([0, 2], None, 1.0),
                           ([0], None, 1.7)]),
        # A flow with no constraint but its cap.
        ([5.0], [([], 2.0, 1.0), ([0], None, 1.0), ([0], None, 1.0)]),
    ])
    def test_edges(self, caps, specs):
        assert_bit_identical(caps, specs, [1.0 + i for i in range(len(specs))])
