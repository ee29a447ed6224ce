"""Tests for the pluggable scheduling-policy engine.

Covers the registry, per-policy decision logic against hand-built
scheduler states, the backfill edge cases the issue calls out (cancel
of the reservation-holding job, selector interaction with reserved nodes), and end-to-end policy
selection through the controller.
"""

import pytest

from repro.errors import SlurmError
from repro.slurm import JobSpec, JobState, NodeSelector, SlurmConfig
from repro.slurm.job import Job, StageDirective
from repro.slurm.policies import (
    SchedulerState, SchedulingPolicy, available_policies, create_policy,
    register_policy,
)
from repro.slurm.scheduler import PriorityCalculator

from tests.conftest import build_slurm_cluster


def job(name="j", nodes=1, submit=0.0, prio=0.0, limit=100.0, **kw):
    spec = JobSpec(name=name, nodes=nodes, base_priority=prio,
                   time_limit=limit, **kw)
    return Job(spec, submit_time=submit)


def running(name, nodes, limit, started=0.0):
    r = job(name, nodes=len(nodes), limit=limit)
    r.allocated_nodes = tuple(nodes)
    r.start_time = started
    r.set_state(JobState.RUNNING)
    return r


def make_state(free, pending=(), running_jobs=(), selector=None,
               estimator=None):
    state = SchedulerState(PriorityCalculator(age_weight=1.0),
                           selector=selector, free_nodes=free,
                           stage_in_estimator=estimator)
    for j in pending:
        state.enqueue(j)
    for r in running_jobs:
        state.allocate(r, r.allocated_nodes)
    return state


def compute(seconds):
    def program(ctx):
        yield ctx.compute(seconds)
    return program


class TestRegistry:
    def test_at_least_four_policies_registered(self):
        names = {name for name, _ in available_policies()}
        assert {"fifo", "backfill", "conservative",
                "staging-aware"} <= names
        assert len(names) >= 4

    def test_every_policy_has_a_summary(self):
        for name, summary in available_policies():
            assert summary, f"policy {name} has no summary"

    def test_unknown_policy_raises(self):
        with pytest.raises(SlurmError, match="unknown scheduling policy"):
            create_policy("round-robin")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SlurmError, match="duplicate"):
            @register_policy
            class Clash(SchedulingPolicy):   # pragma: no cover
                name = "fifo"
                summary = "clash"

                def schedule(self, state, now):
                    return []

    def test_unnamed_policy_rejected(self):
        with pytest.raises(SlurmError, match="no name"):
            @register_policy
            class NoName(SchedulingPolicy):   # pragma: no cover
                summary = "anonymous"

                def schedule(self, state, now):
                    return []


class TestFifoPolicy:
    def test_first_blocked_job_stops_the_pass(self):
        policy = create_policy("fifo")
        a = job("a", nodes=4, submit=0.0)
        b = job("b", nodes=1, submit=1.0)
        state = make_state(["n0", "n1"], pending=[a, b])
        assert policy.schedule(state, 10.0) == []

    def test_in_order_allocation(self):
        policy = create_policy("fifo")
        a = job("a", nodes=1, submit=0.0)
        b = job("b", nodes=1, submit=1.0)
        state = make_state(["n0", "n1"], pending=[b, a])
        decisions = policy.schedule(state, 10.0)
        assert [d.job.spec.name for d in decisions] == ["a", "b"]
        assert not any(d.backfilled for d in decisions)


class TestEasyPolicy:
    def test_backfill_fills_spare_nodes(self):
        policy = create_policy("backfill")
        blocked = job("big", nodes=4, submit=0.0)
        small = job("small", nodes=1, submit=1.0, limit=10.0)
        r = running("run", ("n2", "n3"), limit=1000.0)
        state = make_state(["n0", "n1", "n2", "n3"],
                           pending=[blocked, small], running_jobs=[r])
        decisions = policy.schedule(state, 5.0)
        names = {d.job.spec.name: d for d in decisions}
        assert "big" not in names
        assert names["small"].backfilled

    def test_backfill_respects_reservation(self):
        policy = create_policy("backfill")
        blocked = job("big", nodes=3, submit=0.0)
        long_job = job("long", nodes=2, submit=1.0, limit=100000.0)
        r = running("run", ("n1", "n2"), limit=50.0)
        state = make_state(["n0", "n1", "n2"],
                           pending=[blocked, long_job], running_jobs=[r])
        assert policy.schedule(state, 5.0) == []


class TestConservativePolicy:
    def _contrast_state(self, selector=None):
        """EASY starts ``late`` on the node promised to the second
        blocked job; conservative keeps the promise."""
        # n3 busy until t=20, n4 until t=50; n0..n2 free.
        r1 = running("r1", ("n3",), limit=20.0)
        r2 = running("r2", ("n4",), limit=50.0)
        # head: pinned to the busy nodes -> blocked, reserves {n0,n1}
        # (shadow picks the first nodes by name at the first release).
        head = job("head", nodes=2, prio=10.0,
                   nodelist=("n3", "n4"), limit=100.0)
        # second: needs 2 nodes for a long time -> blocked under both;
        # conservative reserves {n2,n3} for it at t=20.
        second = job("second", nodes=2, prio=5.0, limit=1000.0)
        # late: would finish at t=25 — after both reservation starts.
        late = job("late", nodes=1, prio=1.0, limit=25.0)
        state = make_state(["n0", "n1", "n2", "n3", "n4"],
                           pending=[head, second, late],
                           running_jobs=[r1, r2], selector=selector)
        return state

    def test_easy_overtakes_second_blocked_job(self):
        decisions = create_policy("backfill").schedule(
            self._contrast_state(), 0.0)
        assert [d.job.spec.name for d in decisions] == ["late"]
        assert decisions[0].nodes == ("n2",)   # outside EASY's one res

    def test_conservative_keeps_every_promise(self):
        decisions = create_policy("conservative").schedule(
            self._contrast_state(), 0.0)
        assert decisions == []   # late would delay second's t=20 start

    def test_short_job_may_still_borrow_reserved_nodes(self):
        state = self._contrast_state()
        quick = job("quick", nodes=1, prio=0.5, limit=15.0)
        state.enqueue(quick)
        decisions = create_policy("conservative").schedule(state, 0.0)
        assert [d.job.spec.name for d in decisions] == ["quick"]
        assert decisions[0].backfilled

    def test_reservation_depth_cap(self):
        policy = create_policy("conservative", max_reservations=0)
        blocked = job("big", nodes=3)
        tiny = job("tiny", nodes=1, submit=1.0, limit=5.0)
        r = running("run", ("n1", "n2"), limit=50.0)
        state = make_state(["n0"], pending=[blocked, tiny],
                           running_jobs=[r])
        decisions = policy.schedule(state, 0.0)
        # No reservations exist, so nothing constrains the backfill.
        assert [d.job.spec.name for d in decisions] == ["tiny"]


class TestSelectorReservedInteraction:
    def _state(self, extra_pending, selector):
        r1 = running("r1", ("n3",), limit=20.0)
        r2 = running("r2", ("n4",), limit=50.0)
        head = job("head", nodes=2, prio=10.0,
                   nodelist=("n3", "n4"), limit=100.0)
        return make_state(["n0", "n1", "n2"],
                          pending=[head] + extra_pending,
                          running_jobs=[r1, r2], selector=selector)

    def test_backfill_avoids_reserved_nodes_despite_hint(self):
        # The selector prefers the hinted node n0, but n0 belongs to
        # the head job's reservation and the backfill candidate fits
        # outside it — placement must respect the reservation over the
        # data-locality preference.
        selector = NodeSelector(None, data_aware=True)
        filler = job("filler", nodes=1, prio=1.0, limit=99999.0)
        filler.data_hints = ("n0",)
        state = self._state([filler], selector)
        decisions = create_policy("backfill").schedule(state, 0.0)
        names = {d.job.spec.name: d for d in decisions}
        assert names["filler"].nodes == ("n2",)

    def test_short_backfill_on_reserved_nodes_follows_selector(self):
        # A job that cannot fit outside the reservation but finishes
        # before the shadow time may take reserved nodes — and there
        # the selector's hint ordering applies.
        selector = NodeSelector(None, data_aware=True)
        wide = job("wide", nodes=2, prio=1.0, limit=10.0)
        wide.data_hints = ("n1",)
        state = self._state([wide], selector)
        decisions = create_policy("backfill").schedule(state, 0.0)
        names = {d.job.spec.name: d for d in decisions}
        assert names["wide"].nodes == ("n1", "n0")  # hint first


class TestStagingAwarePolicy:
    def _staged_job(self, name, submit, eta_key):
        j = job(name, submit=submit, stage_in=(StageDirective(
            "stage_in", f"lustre://{eta_key}/", "nvme0://in/", "single"),))
        return j

    def test_expensive_staging_deprioritized(self):
        etas = {"slow": 500.0, "fast": 0.0}

        def estimator(j):
            return etas[j.spec.name]

        slow = self._staged_job("slow", 0.0, "slow")
        fast = self._staged_job("fast", 0.0, "fast")
        state = make_state(["n0"], pending=[slow, fast],
                           estimator=estimator)
        decisions = create_policy("staging-aware").schedule(state, 10.0)
        assert decisions[0].job is fast
        # Plain EASY would have started `slow` (same priority, lower
        # job id wins the tie).
        state2 = make_state(["n0"], pending=[slow, fast],
                            estimator=estimator)
        decisions2 = create_policy("backfill").schedule(state2, 10.0)
        assert decisions2[0].job is slow

    def test_local_data_boosts_priority(self):
        fresh = job("fresh", submit=100.0)
        resident = self._staged_job("resident", 0.0, "d")
        resident.data_hints = ("n0",)
        state = make_state(["n0"], pending=[fresh, resident],
                           estimator=lambda j: 0.0)
        # With a 1800 s-of-age bonus, resident overtakes the much
        # fresher job even though both aged equally since submission.
        decisions = create_policy("staging-aware").schedule(state, 200.0)
        assert decisions[0].job is resident

    def test_degrades_to_easy_without_staging(self):
        for now in (5.0, 500.0):
            a = job("a", nodes=4, submit=0.0)
            b = job("b", nodes=1, submit=1.0, limit=10.0)
            r = running("run", ("n2", "n3"), limit=1000.0)
            sa = create_policy("staging-aware").schedule(
                make_state(["n0", "n1", "n2", "n3"], pending=[a, b],
                           running_jobs=[r]), now)
            easy = create_policy("backfill").schedule(
                make_state(["n0", "n1", "n2", "n3"], pending=[a, b],
                           running_jobs=[r]), now)
            assert [(d.job.spec.name, d.nodes, d.backfilled)
                    for d in sa] == \
                [(d.job.spec.name, d.nodes, d.backfilled) for d in easy]


class TestControllerIntegration:
    def test_policy_selected_via_config(self):
        _c, ctld = build_slurm_cluster(2, config=SlurmConfig(policy="fifo"))
        assert ctld.policy.name == "fifo"
        assert ctld.config.policy == "fifo"

    def test_cancel_of_reservation_holding_job_unblocks_queue(self):
        """Cancelling the blocked head job must drop its reservation so
        jobs it was starving start on the next pass."""
        c, ctld = build_slurm_cluster(4)
        long = ctld.submit(JobSpec(name="long", nodes=3, time_limit=500,
                                   program=compute(400)))
        big = ctld.submit(JobSpec(name="big", nodes=4, time_limit=100,
                                  program=compute(50)))
        # Too long to backfill ahead of big's reservation.
        fat = ctld.submit(JobSpec(name="fat", nodes=1, time_limit=100000,
                                  program=compute(30)))
        c.sim.run(until=10.0)
        assert big.state == JobState.PENDING
        assert fat.state == JobState.PENDING   # starved by reservation
        ctld.cancel(big.job_id)
        c.sim.run(fat.done)
        assert fat.state == JobState.COMPLETED
        rec = ctld.accounting.get(fat.job_id)
        assert rec.alloc_time == pytest.approx(10.0)
        c.sim.run(long.done)
        assert long.state == JobState.COMPLETED
        assert big.state == JobState.CANCELLED

    def test_cancel_during_staging_wakes_the_scheduler(self):
        """Cancelling a job mid-stage-in must re-kick the scheduler
        once its nodes come back, or pending jobs starve on an idle
        cluster (regression: the release path returned without a
        wake-up)."""
        from repro.util.units import GB

        c, ctld = build_slurm_cluster(2)
        c.sim.run(c.pfs.write("node0", "/proj/in/big.dat", 40 * GB))
        t0 = c.sim.now
        stager = ctld.submit(JobSpec(
            name="stager", nodes=2, time_limit=500,
            program=compute(5),
            stage_in=(StageDirective("stage_in", "lustre://proj/in/",
                                     "nvme0://in/", "single"),)))
        waiter = ctld.submit(JobSpec(name="waiter", nodes=1,
                                     time_limit=50,
                                     program=compute(5)))
        c.sim.run(until=t0 + 2.0)
        assert stager.state == JobState.CONFIGURING   # staging 40 GB
        ctld.cancel(stager.job_id)
        c.sim.run(waiter.done)
        assert waiter.state == JobState.COMPLETED
        assert stager.state == JobState.CANCELLED

    def test_every_policy_completes_a_mixed_workload(self):
        for name, _ in available_policies():
            c, ctld = build_slurm_cluster(
                4, config=SlurmConfig(policy=name))
            jobs = [
                ctld.submit(JobSpec(name="wide", nodes=3, time_limit=200,
                                    program=compute(60))),
                ctld.submit(JobSpec(name="full", nodes=4, time_limit=100,
                                    program=compute(30))),
                ctld.submit(JobSpec(name="slim", nodes=1, time_limit=50,
                                    program=compute(10))),
            ]
            for j in jobs:
                c.sim.run(j.done)
            assert {j.state for j in jobs} == {JobState.COMPLETED}, name
