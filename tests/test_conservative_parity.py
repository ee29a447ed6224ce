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

The *deep-queue* states further down are the ones the pass's early exit
is for: 200-2000 pending behind a machine that is 95-100% busy, where
after a handful of jobs nothing — or exactly one job, somewhere — can
still start.  There the shipped pass runs first, on a queue nobody has
pruned yet, and the oracle second.
"""

import random

import pytest

from repro.slurm import NodeSelector
from repro.slurm.job import Job, JobSpec, JobState
from repro.slurm.policies import SchedulerState, create_policy
from repro.slurm.scheduler import PriorityCalculator
from repro.slurm.workflow import WorkflowManager

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


# ----------------------------------------------------------------------
# Deep queues: where the pass stops before the end of the queue
# ----------------------------------------------------------------------
DEEP_SEEDS = range(8)
FIT_AT = ("head", "middle", "end", "absent")
#: running jobs end at NOW + {100, 300, 400, 1300, 1500, 1600}, several
#: ways each: every promise deadline and release event has a twin.
DEEP_RUN_LIMITS = (400.0, 400.0, 1600.0)
#: queued filler outlasts the usual borrow window (free nodes promised
#: at the first completion, NOW + 100); 300 and 400 fit the rarer ones,
#: ending exactly on the deadline (borrowable: ``>=``).
DEEP_LIMITS = (300.0, 400.0, 1600.0, 1600.0, 1600.0)


def deep_state(seed: int, fit_at: str, pinned: bool):
    """(state, the fitting job or None).  ``fit_at`` puts one 1-node job
    short enough for the usual borrow window — on odd seeds ending
    exactly on its deadline — at that place in the queue."""
    rng = random.Random(1000 + seed)
    n_nodes = 64
    nodes = [f"node{i}" for i in range(n_nodes)]
    workflows = WorkflowManager()
    state = SchedulerState(PriorityCalculator(age_weight=1.0),
                           workflows=workflows, free_nodes=nodes)
    pool = nodes[:]
    rng.shuffle(pool)
    # Spread over the seeds, not drawn: a lone free node whose promise
    # the fitting job meets to the second, with no shorter stale job of
    # its width about, is where an off-by-one in the exit's test shows
    # (``<`` for ``<=``, ``bisect_right`` for ``bisect_left``).
    n_free = (1, 2, 0, 1, 3, 1, 2, 1)[seed % 8]
    fit_limit = (50.0, 100.0)[seed % 2]
    gone_width = (1, 3)[seed // 2 % 2]
    busy = pool[:n_nodes - n_free]
    while busy:
        width = min(len(busy), rng.randint(1, 4))
        held, busy = tuple(busy[:width]), busy[width:]
        r = Job(JobSpec(name="r", nodes=width,
                        time_limit=rng.choice(DEEP_RUN_LIMITS)),
                submit_time=0.0)
        state.allocate(r, held)
        r.allocated_nodes = held
        r.start_time = rng.choice((NOW - 300.0, NOW - 100.0, NOW))
        r.set_state(JobState.RUNNING)

    # Priority falls with submit time (equal base priority, age weight
    # 1): the queue order is the order of the loop below.
    n_pending = rng.choice((200, 500, 2000))
    slot = {"head": 0, "middle": n_pending // 2, "end": n_pending - 1,
            "absent": -1}[fit_at]
    root = fit = None
    for i in range(n_pending):
        submit = float(i) / 4.0
        kind = rng.random()
        if i == slot:
            spec = JobSpec(name="fit", nodes=1, time_limit=fit_limit)
        elif i < 10:
            # Wider than what is free: the head of the queue blocks and
            # takes the reservation depth, promising the free nodes.
            spec = JobSpec(name=f"p{i}", nodes=4, time_limit=1600.0)
        elif i == 12:
            # Cancelled behind the scheduler's back below: the shortest
            # job of its width, until a walk reaches and prunes it.
            spec = JobSpec(name="gone", nodes=gone_width, time_limit=10.0)
        elif i == 14:
            spec = JobSpec(name="root", nodes=4, time_limit=1600.0,
                           workflow_start=True)
        elif i in (16, n_pending - 2):
            # Not runnable while ``root`` is pending, yet the shortest
            # of its width in the shape index.
            spec = JobSpec(name="dep", nodes=2, time_limit=20.0,
                           workflow_prior_dependency=root.job_id)
        elif pinned and kind < 0.03:
            spec = JobSpec(name=f"p{i}", nodes=2,
                           nodelist=tuple(rng.sample(nodes, 2)),
                           time_limit=rng.choice(DEEP_LIMITS))
        else:
            spec = JobSpec(name=f"p{i}", nodes=rng.randint(1, 4),
                           time_limit=rng.choice(DEEP_LIMITS))
        j = Job(spec, submit_time=submit)
        if spec.workflow_start or spec.workflow_prior_dependency:
            workflows.place_job(j)
        state.enqueue(j)
        if spec.name == "root":
            root = j
        elif spec.name == "fit":
            fit = j
        elif spec.name == "gone":
            j.set_state(JobState.CANCELLED)
    return state, fit


def count_pulls(state):
    """Make ``state`` count the jobs its walks hand out."""
    pulls = [0]
    walk = state.iter_eligible

    def counted(now):
        for job in walk(now):
            pulls[0] += 1
            yield job
    state.iter_eligible = counted
    return pulls


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("pinned", (False, True), ids=("plain", "pinned"))
@pytest.mark.parametrize("fit_at", FIT_AT)
@pytest.mark.parametrize("seed", DEEP_SEEDS)
def test_deep_queue_same_decisions_as_the_frozen_pass(seed, fit_at, pinned,
                                                      depth):
    state, _fit = deep_state(seed, fit_at, pinned)
    got = decisions(create_policy("conservative", max_reservations=depth),
                    state)
    want = decisions(ReferenceConservativePolicy(max_reservations=depth),
                     state)
    assert got == want


def test_the_deep_states_cover_the_cases_that_matter():
    """Both sides of the exit: passes that stop early, passes that must
    not (the fitting job is placed from the middle and from the very
    end of the queue, on a borrowed node), pinned jobs holding the exit
    off, and the stale witness still indexed when the pass stops."""
    seen = dict.fromkeys(("stopped_early", "walked_to_the_end",
                          "fit_from_middle", "fit_from_end",
                          "fit_borrowed", "pinned_held_exit_off",
                          "stale_witness_left"), 0)
    for seed in DEEP_SEEDS:
        for fit_at in FIT_AT:
            for pinned in (False, True):
                state, fit = deep_state(seed, fit_at, pinned)
                queued = state.pending_count
                pulls = count_pulls(state)
                made = create_policy("conservative").schedule(state, NOW)
                early = pulls[0] < queued // 2
                seen["stopped_early"] += early
                seen["walked_to_the_end"] += pulls[0] >= queued - 4
                placed = [d for d in made if d.job is fit]
                seen["fit_from_middle"] += bool(placed) and fit_at == "middle"
                seen["fit_from_end"] += bool(placed) and fit_at == "end"
                seen["fit_borrowed"] += bool(placed) and placed[0].backfilled
                seen["pinned_held_exit_off"] += (
                    pinned and not early and not placed
                    and sum(len(d.nodes) for d in made) < len(state.free))
                seen["stale_witness_left"] += early and any(
                    job.state is JobState.CANCELLED
                    for _key, job in state._pending)
    assert all(count >= 3 for count in seen.values()), seen


def test_the_pass_stops_once_nothing_queued_can_start():
    """Work, not time: one free node, the reservation depth used up by
    the head of the queue, and the only job that fits in the middle of
    500.  The walk must reach it — and stop right after placing it."""
    nodes = [f"n{i:02d}" for i in range(16)]
    state = SchedulerState(PriorityCalculator(age_weight=1.0),
                           free_nodes=nodes)
    for i in range(0, 15, 3):
        r = Job(JobSpec(name="r", nodes=3, time_limit=400.0),
                submit_time=0.0)
        state.allocate(r, tuple(nodes[i:i + 3]))
        r.allocated_nodes = tuple(nodes[i:i + 3])
        r.start_time = NOW - 100.0
        r.set_state(JobState.RUNNING)
    for i in range(500):
        spec = JobSpec(name="fit", nodes=1, time_limit=50.0) if i == 250 \
            else JobSpec(name=f"p{i}", nodes=2, time_limit=1600.0)
        state.enqueue(Job(spec, submit_time=float(i)))
    pulls = count_pulls(state)
    made = create_policy("conservative", max_reservations=2).schedule(
        state, NOW)
    assert [d.job.spec.name for d in made] == ["fit"]
    assert pulls[0] == 252      # ... the fit job, and one blocked job more
