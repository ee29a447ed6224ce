"""Decision parity: the incremental conservative pass vs its frozen oracle.

``tests/oracles/conservative_reference.py`` is the pass as it stood
before the promise state was carried through ``schedule()``: it rebuilds
``promised`` / ``safe`` / ``usable`` for every candidate.  The shipped
pass must return the same ``[(job_id, nodes, backfilled)]`` list on
every state — order, node tuple and flag — because a replay's digest is
a function of exactly that list.

States are random but seeded: 4-64 nodes whose names do *not* sort
numerically, 0-100% busy, drained nodes (free and held), pinned jobs
(on idle, busy or drained nodes), jobs wider than the machine, a handful
of distinct time limits and start times so promise deadlines, borrow
windows and release events tie, with and without the data-aware
selector, at every reservation depth the pass treats specially.
"""

import random

import pytest

from repro.slurm import NodeSelector
from repro.slurm.job import Job, JobSpec, JobState
from repro.slurm.policies import SchedulerState, create_policy
from repro.slurm.scheduler import PriorityCalculator

from tests.oracles.conservative_reference import ReferenceConservativePolicy

NOW = 1000.0
#: few distinct values on purpose: equal limits and equal expected ends
#: are where tie order in the timeline and `>=` vs `>` mistakes show.
LIMITS = (50.0, 100.0, 100.0, 200.0, 400.0, 1600.0)
STARTS = (NOW - 300.0, NOW - 100.0, NOW - 100.0, NOW)
SEEDS = range(120)
DEPTHS = (0, 1, 8)


def random_state(seed: int) -> SchedulerState:
    rng = random.Random(seed)
    n_nodes = rng.randint(4, 64)
    nodes = [f"node{i}" for i in range(n_nodes)]    # node10 < node2
    selector = NodeSelector() if rng.random() < 0.5 else None
    state = SchedulerState(PriorityCalculator(age_weight=1.0),
                           selector=selector, free_nodes=nodes)

    # Running jobs hold a random share of the machine (0%..100%).
    pool = nodes[:]
    rng.shuffle(pool)
    busy = pool[:int(round(rng.choice((0.0, 0.3, 0.6, 0.9, 0.97, 1.0))
                           * n_nodes))]
    while busy:
        width = min(len(busy), rng.randint(1, 4))
        held, busy = tuple(busy[:width]), busy[width:]
        r = Job(JobSpec(name="r", nodes=width,
                        time_limit=rng.choice(LIMITS)), submit_time=0.0)
        state.allocate(r, held)
        r.allocated_nodes = held
        # No start time: the pass falls back to now + time_limit.
        r.start_time = rng.choice(STARTS + (None,))
        r.set_state(JobState.RUNNING)

    # Drained/down nodes, free or held alike.
    for node in rng.sample(nodes, rng.choice((0, 0, 1, n_nodes // 4))):
        state.set_unavailable(node)

    widest = min(n_nodes, 8)
    for i in range(rng.randint(5, 60)):
        kind = rng.random()
        if kind < 0.15:         # pinned: to idle nodes, or to any at all
            idle = state.free.sorted()
            among = idle if len(idle) >= 3 and rng.random() < 0.6 else nodes
            pinned = tuple(rng.sample(among, rng.randint(1, min(3, n_nodes))))
            spec = JobSpec(name=f"p{i}", nodes=len(pinned), nodelist=pinned,
                           time_limit=rng.choice(LIMITS))
        elif kind < 0.20:       # can never fit: reserves "everything"
            spec = JobSpec(name=f"p{i}", nodes=n_nodes + rng.randint(1, 3),
                           time_limit=rng.choice(LIMITS))
        else:
            spec = JobSpec(name=f"p{i}", nodes=rng.randint(1, widest),
                           time_limit=rng.choice(LIMITS),
                           base_priority=float(rng.randint(0, 3)))
        j = Job(spec, submit_time=float(rng.randint(0, 20)))
        if selector is not None and rng.random() < 0.5:
            j.data_hints = tuple(rng.sample(nodes, min(3, n_nodes)))
        state.enqueue(j)
    return state


def decisions(policy, state):
    return [(d.job.job_id, d.nodes, d.backfilled)
            for d in policy.schedule(state, NOW)]


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_same_decisions_as_the_frozen_pass(seed, depth):
    state = random_state(seed)
    want = decisions(ReferenceConservativePolicy(max_reservations=depth),
                     state)
    got = decisions(create_policy("conservative", max_reservations=depth),
                    state)
    assert got == want


class _Probe(ReferenceConservativePolicy):
    """The oracle, recording each ``fits`` verdict per job: the frozen
    code asks about ``free``, then ``safe``, then ``usable``."""

    def __init__(self, depth):
        super().__init__(max_reservations=depth)
        self.verdicts = {}

    def fits(self, job, available):
        ok = ReferenceConservativePolicy.fits(job, available)
        self.verdicts.setdefault(job.job_id, []).append(ok)
        return ok


def test_the_states_cover_the_cases_that_matter():
    """The generator is only a gate if it reaches every branch: direct
    and backfilled starts, pinned starts, starts on borrowed (promised)
    nodes, borrows refused, and passes that run out of both free nodes
    and reservation depth with jobs still queued (the early exit)."""
    seen = dict.fromkeys(("direct", "backfilled", "pinned", "borrowed",
                          "borrow_refused", "exhausted"), 0)
    for seed in SEEDS:
        state = random_state(seed)
        for depth in DEPTHS:
            probe = _Probe(depth)
            made = probe.schedule(state, NOW)
            for d in made:
                seen["backfilled" if d.backfilled else "direct"] += 1
                seen["pinned"] += bool(d.job.spec.nodelist)
            asked_usable = [v for v in probe.verdicts.values()
                            if len(v) == 3]
            seen["borrowed"] += sum(v[2] for v in asked_usable)
            seen["borrow_refused"] += sum(not v[2] for v in asked_usable)
            seen["exhausted"] += (
                sum(len(d.nodes) for d in made) == len(state.free)
                and state.pending_count > len(made) + depth)
    assert all(count >= 10 for count in seen.values()), seen
