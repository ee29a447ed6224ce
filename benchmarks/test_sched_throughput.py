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
#: shape -> (nodes, nodes held by running jobs, widest pending job).
SHAPES = {"half_busy": (128, 64, 16), "backlog": (64, 62, 4)}


def build_state(n_pending: int, shape: str = "half_busy") -> SchedulerState:
    """A machine of the given shape, its held nodes taken by 2-node
    running jobs, and ``n_pending`` queued jobs with mixed widths and
    limits (deterministic, no RNG)."""
    n_nodes, n_held, widest = SHAPES[shape]
    nodes = [f"n{i:03d}" for i in range(n_nodes)]
    state = SchedulerState(PriorityCalculator(), free_nodes=nodes)
    for i in range(0, n_held, 2):
        r = Job(JobSpec(name=f"r{i}", nodes=2,
                        time_limit=600.0 + 37.0 * i),
                submit_time=0.0)
        held = (nodes[i], nodes[i + 1])
        state.allocate(r, held)
        r.allocated_nodes = held
        r.start_time = float(i)
        r.set_state(JobState.RUNNING)
    for i in range(n_pending):
        j = Job(JobSpec(name=f"p{i}", nodes=1 + (i * 7) % widest,
                        time_limit=300.0 + 60.0 * (i % 9),
                        base_priority=float(i % 5)),
                submit_time=float(i) * 0.25)
        state.enqueue(j)
    return state


POLICIES = [name for name, _ in available_policies()]


def bench_pass(benchmark, policy_name: str, shape: str, n_pending: int):
    state = build_state(n_pending, shape)
    policy = create_policy(policy_name)
    now = float(n_pending)     # every job has aged; none is clamped

    # A pass reads the state and returns decisions without mutating it
    # (slurmctld applies them), so repeated passes are identical work.
    decisions = policy.schedule(state, now)
    assert decisions, f"{policy_name}: pass produced no decisions"

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


@pytest.mark.parametrize("n_pending", SIZES)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_schedule_pass_throughput(benchmark, policy_name, n_pending):
    bench_pass(benchmark, policy_name, "half_busy", n_pending)


@pytest.mark.parametrize("n_pending", SIZES)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_backlog_pass_throughput(benchmark, policy_name, n_pending):
    bench_pass(benchmark, policy_name, "backlog", n_pending)
