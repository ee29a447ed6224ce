"""Backfill on/off ablation through the full controller."""

import pytest

from repro.slurm import JobState, SlurmConfig
from repro.slurm.job import JobSpec

from tests.conftest import build_slurm_cluster


def compute(seconds):
    def program(ctx):
        yield ctx.compute(seconds)
    return program


def run_scenario(policy: str):
    """Long 3-node job, blocked 4-node job, tiny 1-node job."""
    c, ctld = build_slurm_cluster(4, config=SlurmConfig(policy=policy))
    long = ctld.submit(JobSpec(name="long", nodes=3, time_limit=500,
                               program=compute(400)))
    big = ctld.submit(JobSpec(name="big", nodes=4, time_limit=100,
                              program=compute(50)))
    tiny = ctld.submit(JobSpec(name="tiny", nodes=1, time_limit=50,
                               program=compute(20)))
    for j in (long, big, tiny):
        c.sim.run(j.done)
    return c, ctld, long, big, tiny


class TestBackfillAblation:
    def test_backfill_lets_tiny_overtake(self):
        c, ctld, long, big, tiny = run_scenario("backfill")
        rec_tiny = ctld.accounting.get(tiny.job_id)
        rec_big = ctld.accounting.get(big.job_id)
        # tiny backfilled onto the idle node and finished before big
        # even started.
        assert rec_tiny.end_time < rec_big.alloc_time

    def test_fifo_makes_tiny_wait(self):
        c, ctld, long, big, tiny = run_scenario("fifo")
        rec_tiny = ctld.accounting.get(tiny.job_id)
        rec_big = ctld.accounting.get(big.job_id)
        # Strict FIFO: tiny may not overtake the blocked big job.
        assert rec_tiny.alloc_time >= rec_big.alloc_time

    def test_all_jobs_complete_either_way(self):
        for policy in ("backfill", "fifo"):
            _c, _ctld, long, big, tiny = run_scenario(policy)
            assert {long.state, big.state, tiny.state} == \
                {JobState.COMPLETED}
