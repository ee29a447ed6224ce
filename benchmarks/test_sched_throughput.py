"""Schedule-pass throughput: pending-jobs/sec through each policy.

The scheduler hot path the trace replayer leans on is the *pass*: one
invocation of ``policy.schedule`` over the controller's incremental
``SchedulerState``.  This benchmark times passes over hand-built states
with 1k and 10k pending jobs for every registered policy, in two
shapes, so the perf trajectory of the scheduling engine is tracked
release over release alongside the paper-figure benchmarks:

* ``half_busy`` — 128 nodes, 64 free, jobs up to 16 wide: a pass places
  a dozen jobs and the cost is spread over placements and reservations.
* ``backlog`` — 64 nodes, 62 held, jobs up to 4 wide: the shape of
  ``bench/``'s ``sched_backlog`` workload, which this micro-gate answers
  to.  The first few jobs take the last free nodes and the reservation
  depth, and the pass cost is what every *later* job in the queue costs.
* ``late_fit`` — the backlog machine with a queue of jobs too wide for
  the two free nodes, except the very last one: the one shape where a
  ``conservative`` pass must *not* stop early.

Time is reported, work is pinned: ``PULLS`` is the exact number of jobs
each lazily walking policy takes from the queue, the same at 1k and at
10k pending — a pass costs what it decides, not what is queued.

Set ``SCHED_BENCH_QUICK=1`` (the CI quick mode) to bench the 1k size
only.
"""

from __future__ import annotations

import os

import pytest

from repro.slurm.job import Job, JobSpec, JobState
from repro.slurm.policies import SchedulerState, available_policies, \
    create_policy
from repro.slurm.scheduler import PriorityCalculator

SIZES = [1000] if os.environ.get("SCHED_BENCH_QUICK") else [1000, 10000]
#: shape -> (nodes, nodes held by running jobs, narrowest and widest
#: pending job).
SHAPES = {"half_busy": (128, 64, 1, 16), "backlog": (64, 62, 1, 4),
          "late_fit": (64, 62, 3, 4)}
#: (policy, shape) -> jobs pulled from the queue walk by one pass, at
#: any queue length: placements + reservations + the job the pass
#: stopped at.  (EASY and staging-aware read the whole queue.)
PULLS = {("conservative", "backlog"): 10, ("fifo", "backlog"): 2,
         ("conservative", "half_busy"): 15, ("fifo", "half_busy"): 7}


def build_state(n_pending: int, shape: str = "half_busy") -> SchedulerState:
    """A machine of the given shape, its held nodes taken by 2-node
    running jobs, and ``n_pending`` queued jobs with mixed widths and
    limits (deterministic, no RNG).  ``late_fit`` ends the queue with
    its only job that fits, and starts the running jobs at the pass's
    ``now`` so the promises on the free nodes leave a window to borrow."""
    n_nodes, n_held, narrowest, widest = SHAPES[shape]
    nodes = [f"n{i:03d}" for i in range(n_nodes)]
    state = SchedulerState(PriorityCalculator(), free_nodes=nodes)
    for i in range(0, n_held, 2):
        r = Job(JobSpec(name=f"r{i}", nodes=2,
                        time_limit=600.0 + 37.0 * i),
                submit_time=0.0)
        held = (nodes[i], nodes[i + 1])
        state.allocate(r, held)
        r.allocated_nodes = held
        r.start_time = float(n_pending if shape == "late_fit" else i)
        r.set_state(JobState.RUNNING)
    for i in range(n_pending):
        spec = JobSpec(name=f"p{i}",
                       nodes=narrowest + (i * 7) % (widest - narrowest + 1),
                       time_limit=300.0 + 60.0 * (i % 9),
                       base_priority=float(i % 5))
        if shape == "late_fit" and i == n_pending - 1:
            # lowest priority class, youngest: last in the queue.
            spec = JobSpec(name="fit", nodes=1, time_limit=60.0)
        state.enqueue(Job(spec, submit_time=float(i) * 0.25))
    return state


def count_pulls(state: SchedulerState) -> list:
    """Make ``state`` count the jobs its queue walks hand out (the
    counter lives here, not in ``src/``)."""
    pulls = [0]
    walk = state.iter_eligible

    def counted(now):
        for job in walk(now):
            pulls[0] += 1
            yield job
    state.iter_eligible = counted
    return pulls


POLICIES = [name for name, _ in available_policies()]


def bench_pass(benchmark, policy_name: str, shape: str, n_pending: int):
    state = build_state(n_pending, shape)
    policy = create_policy(policy_name)
    now = float(n_pending)     # every job has aged; none is clamped

    # A pass reads the state and returns decisions without mutating it
    # (slurmctld applies them), so repeated passes are identical work.
    pulls = count_pulls(state)
    decisions = policy.schedule(state, now)
    assert decisions, f"{policy_name}: pass produced no decisions"
    assert pulls[0] == PULLS.get((policy_name, shape), n_pending)
    del state.iter_eligible     # time the walk itself, uncounted

    result = benchmark.pedantic(policy.schedule, args=(state, now),
                                rounds=3, iterations=1)
    per_pass = benchmark.stats.stats.mean
    benchmark.extra_info["policy"] = policy_name
    benchmark.extra_info["shape"] = shape
    benchmark.extra_info["pending_jobs"] = n_pending
    benchmark.extra_info["decisions"] = len(result)
    benchmark.extra_info["pending_jobs_per_sec"] = n_pending / per_pass
    print(f"\n  {policy_name:>14} {shape:>9} @ {n_pending:>5} pending: "
          f"{1000 * per_pass:.1f} ms/pass "
          f"({n_pending / per_pass:,.0f} pending-jobs/s, "
          f"{len(result)} decisions)")
    return result


@pytest.mark.parametrize("n_pending", SIZES)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_schedule_pass_throughput(benchmark, policy_name, n_pending):
    bench_pass(benchmark, policy_name, "half_busy", n_pending)


@pytest.mark.parametrize("n_pending", SIZES)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_backlog_pass_throughput(benchmark, policy_name, n_pending):
    bench_pass(benchmark, policy_name, "backlog", n_pending)


@pytest.mark.parametrize("n_pending", SIZES)
def test_late_fit_is_not_cut_short(benchmark, n_pending):
    """The other side of the exit: the only job that fits is the last
    of the queue, so the pass reads all of it and places that job."""
    made = bench_pass(benchmark, "conservative", "late_fit", n_pending)
    assert [d.job.spec.name for d in made] == ["fit"]
