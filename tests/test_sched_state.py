"""Unit tests for the incremental scheduler state and its ordered-set
helper (the O(1) free-node bookkeeping every policy works on)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.slurm.job import Job, JobSpec, JobState, StageDirective
from repro.slurm.policies import SchedulerState
from repro.slurm.scheduler import PriorityCalculator
from repro.slurm.workflow import WorkflowManager
from repro.util.ordered_set import OrderedNodeSet


def job(name="j", nodes=1, submit=0.0, prio=0.0, limit=100.0, **kw):
    spec = JobSpec(name=name, nodes=nodes, base_priority=prio,
                   time_limit=limit, **kw)
    return Job(spec, submit_time=submit)


class TestOrderedNodeSet:
    def test_sorted_view_and_membership(self):
        s = OrderedNodeSet(["n2", "n0", "n1"])
        assert s.sorted() == ["n0", "n1", "n2"]
        assert "n1" in s and "n9" not in s
        assert len(s) == 3 and list(s) == ["n0", "n1", "n2"]

    def test_removal_is_lazy_but_views_are_clean(self):
        s = OrderedNodeSet(["n0", "n1", "n2", "n3"])
        s.discard("n1")
        s.remove("n3")
        assert len(s) == 2
        assert s.sorted() == ["n0", "n2"]
        with pytest.raises(KeyError):
            s.remove("n3")

    def test_readd_after_discard_does_not_duplicate(self):
        # Regression: a stale copy left by a lazy removal must not
        # coexist with the re-added member (jobs were handed the same
        # node twice).
        s = OrderedNodeSet(["n0", "n1"])
        s.discard("n0")
        s.add("n0")
        assert s.sorted() == ["n0", "n1"]
        assert len(s) == 2

    def test_copy_is_independent(self):
        s = OrderedNodeSet(["n0", "n1"])
        dup = s.copy()
        dup.discard("n0")
        assert "n0" in s and "n0" not in dup

    def test_bulk_ops_and_superset(self):
        s = OrderedNodeSet(["n0", "n1", "n2"])
        s.discard_many(["n0", "n2"])
        s.update(["n4", "n3"])
        assert s.sorted() == ["n1", "n3", "n4"]
        assert s.issuperset(["n1", "n4"])
        assert not s.issuperset(["n0"])
        assert s.as_set() == {"n1", "n3", "n4"}


def make_state(free=(), age_weight=1.0, workflows=None, estimator=None):
    return SchedulerState(PriorityCalculator(age_weight=age_weight),
                          workflows=workflows, free_nodes=free,
                          stage_in_estimator=estimator)


class TestPendingQueue:
    def test_priority_order_base_then_age_then_id(self):
        state = make_state()
        low = job("low", submit=10.0)
        old = job("old", submit=0.0)
        vip = job("vip", submit=10.0, prio=100.0)
        for j in (low, old, vip):
            state.enqueue(j)
        names = [j.spec.name for j in state.eligible(20.0)]
        assert names == ["vip", "old", "low"]

    def test_equal_priority_ties_break_by_job_id(self):
        state = make_state()
        a = job("a", submit=5.0)
        b = job("b", submit=5.0)
        state.enqueue(b)
        state.enqueue(a)
        assert [j.spec.name for j in state.eligible(9.0)] == \
            (["a", "b"] if a.job_id < b.job_id else ["b", "a"])

    def test_order_matches_live_priority_sort(self):
        # The static index must agree with sorting by priority(now) for
        # any now at-or-after every submit time (the only regime the
        # controller can be in) — the property the incremental queue
        # relies on.
        state = make_state()
        jobs = [job(f"j{i}", submit=float(i * 7 % 13),
                    prio=float(i % 3)) for i in range(20)]
        for j in jobs:
            state.enqueue(j)
        calc = state.priorities
        for now in (13.0, 50.0, 1e6):
            expected = sorted(jobs, key=lambda j:
                              (-calc.priority(j, now), j.job_id))
            assert state.eligible(now) == expected

    def test_workflow_jobs_age_from_workflow_creation(self):
        wm = WorkflowManager()
        first = job("first", submit=0.0, workflow_start=True)
        wm.place_job(first)
        first.set_state(JobState.COMPLETED)
        late = job("late", submit=500.0,
                   workflow_prior_dependency=first.job_id)
        wm.place_job(late)
        solo = job("solo", submit=400.0)
        state = make_state(workflows=wm)
        state.enqueue(solo)
        state.enqueue(late)
        # late inherits the workflow's age (ref 0.0) and outranks solo.
        assert [j.spec.name for j in state.eligible(600.0)] == \
            ["late", "solo"]

    def test_non_runnable_workflow_jobs_are_held_back(self):
        wm = WorkflowManager()
        first = job("first", submit=0.0, workflow_start=True)
        wm.place_job(first)
        dep = job("dep", submit=1.0,
                  workflow_prior_dependency=first.job_id)
        wm.place_job(dep)
        state = make_state(workflows=wm)
        state.enqueue(first)
        state.enqueue(dep)
        assert [j.spec.name for j in state.eligible(2.0)] == ["first"]
        first.set_state(JobState.COMPLETED)
        state.dequeue(first)
        assert [j.spec.name for j in state.eligible(3.0)] == ["dep"]

    def test_dequeue_and_lazy_pruning(self):
        state = make_state()
        a, b, c = job("a"), job("b"), job("c")
        for j in (a, b, c):
            state.enqueue(j)
        state.dequeue(b)
        assert state.pending_count == 2
        # A job cancelled behind the scheduler's back self-heals out.
        c.set_state(JobState.CANCELLED)
        assert [j.spec.name for j in state.eligible(0.0)] == ["a"]
        assert state.pending_count == 1

    def test_pruning_drops_every_stale_entry_and_its_key(self):
        state = make_state()
        jobs = [job(f"j{i}") for i in range(7)]
        for j in jobs:
            state.enqueue(j)
        gone = (jobs[0], jobs[3], jobs[4], jobs[6])     # ends, neighbours
        for j in gone:
            j.set_state(JobState.CANCELLED)
        kept = [jobs[1], jobs[2], jobs[5]]
        assert state.eligible(0.0) == kept
        assert state.pending_count == 3
        # The keys went with the entries (nothing leaks per cancel).
        assert set(state._keys) == {j.job_id for j in kept}
        state.dequeue(jobs[2])          # the survivors still index
        assert state.eligible(2.0) == [jobs[1], jobs[5]]

    def test_hints_computed_once_from_producers(self):
        wm = WorkflowManager()
        first = job("first", submit=0.0, workflow_start=True)
        wm.place_job(first)
        first.allocated_nodes = ("n1", "n2")
        first.set_state(JobState.COMPLETED)
        dep = job("dep", submit=1.0,
                  workflow_prior_dependency=first.job_id)
        wm.place_job(dep)
        state = make_state(workflows=wm)
        state.enqueue(dep)
        state.eligible(2.0)
        assert dep.data_hints == ("n1", "n2")
        first.allocated_nodes = ("n9",)   # memoized: no recompute
        state.eligible(3.0)
        assert dep.data_hints == ("n1", "n2")


    def test_hints_are_computed_when_the_walk_yields_the_job(self):
        wm = WorkflowManager()
        first = job("first", submit=0.0, workflow_start=True)
        wm.place_job(first)
        first.allocated_nodes = ("n1", "n2")
        first.set_state(JobState.COMPLETED)
        dep = job("dep", submit=1.0,
                  workflow_prior_dependency=first.job_id)
        wm.place_job(dep)
        vip = job("vip", submit=1.0, prio=100.0)
        state = make_state(workflows=wm)
        state.enqueue(dep)
        state.enqueue(vip)
        walk = state.iter_eligible(2.0)
        assert next(walk) is vip
        assert dep.data_hints == ()     # lazy: the walk is not there yet
        assert next(walk) is dep
        assert dep.data_hints == ("n1", "n2")

    def test_an_abandoned_walk_keeps_what_it_pruned(self):
        state = make_state()
        jobs = [job(f"j{i}", nodes=1 + i % 2) for i in range(6)]
        for j in jobs:
            state.enqueue(j)
        jobs[0].set_state(JobState.CANCELLED)
        jobs[4].set_state(JobState.CANCELLED)
        walk = state.iter_eligible(0.0)
        assert next(walk) is jobs[1]    # met and pruned jobs[0] only
        del walk
        assert state.pending_count == 5
        assert jobs[0].job_id not in state._keys
        assert jobs[4].job_id in state._keys
        assert len(state._shapes) == 5


#: (operation, a number the operation draws its choices from).
OPS = st.lists(st.tuples(
    st.sampled_from(("enqueue", "enqueue", "enqueue", "pinned", "dequeue",
                     "allocate", "release", "cancel", "half_walk", "walk")),
    st.integers(0, 10 ** 6)), max_size=80)


class TestShapeIndex:
    def test_shortest_job_of_each_width(self):
        state = make_state()
        for nodes, limit in ((2, 300.0), (1, 50.0), (2, 100.0), (4, 9.0),
                             (1, 50.0), (1, 70.0)):
            state.enqueue(job(nodes=nodes, limit=limit))
        state.enqueue(job(nodes=3, limit=1.0, nodelist=("a", "b", "c")))
        assert list(state.shortest_by_width(4)) == \
            [(1, 50.0), (2, 100.0), (4, 9.0)]
        assert list(state.shortest_by_width(3)) == [(1, 50.0), (2, 100.0)]
        assert list(state.shortest_by_width(0)) == []
        assert state.pinned_pending == 1    # outside the index

    @settings(max_examples=200, deadline=None)
    @given(OPS)
    def test_index_follows_the_queue_through_any_history(self, ops):
        state = make_state(free=[f"n{i}" for i in range(8)])
        queued, stale, running = [], [], []
        for op, r in ops:
            if op == "enqueue":
                queued.append(job(nodes=1 + r % 4, submit=float(r % 7),
                                  limit=50.0 * (1 + r % 3)))
                state.enqueue(queued[-1])
            elif op == "pinned":
                queued.append(job(nodes=1, nodelist=(f"n{r % 8}",)))
                state.enqueue(queued[-1])
            elif op == "release":
                if running:
                    state.release(running.pop(r % len(running)))
            elif op == "half_walk":
                walk = state.iter_eligible(10.0)
                for _ in range(r % 5):
                    next(walk, None)
                del walk
            elif op == "walk":
                assert state.eligible(10.0) == sorted(
                    queued, key=state.sort_key)
                stale.clear()       # a full walk prunes them all
            elif not queued:
                continue
            elif op == "dequeue":
                state.dequeue(queued.pop(r % len(queued)))
            elif op == "allocate":
                running.append(queued.pop(r % len(queued)))
                state.allocate(running[-1], ())
                running[-1].set_state(JobState.RUNNING)
            elif op == "cancel":        # behind the scheduler's back
                stale.append(queued.pop(r % len(queued)))
                stale[-1].set_state(JobState.CANCELLED)

            entries = [j for _key, j in state._pending]
            assert state._shapes == sorted(
                (j.spec.nodes, j.spec.time_limit, j.job_id)
                for j in entries if not j.spec.nodelist)
            assert state.pending_count == len(state._keys)
            assert set(queued) <= set(entries) <= set(queued) | set(stale)


class TestAllocateRelease:
    def test_allocate_release_roundtrip(self):
        state = make_state(free=["n0", "n1", "n2"])
        j = job("j", nodes=2)
        state.enqueue(j)
        state.allocate(j, ("n0", "n2"))
        j.allocated_nodes = ("n0", "n2")
        assert state.pending_count == 0
        assert state.free.sorted() == ["n1"]
        j.set_state(JobState.RUNNING)
        j.start_time = 0.0
        assert state.running_jobs() == [j]
        j.set_state(JobState.COMPLETED)
        state.release(j)
        assert state.free.sorted() == ["n0", "n1", "n2"]
        assert state.running_jobs() == []

    def test_dirty_flag_consume_semantics(self):
        state = make_state(free=["n0"])
        assert state.consume_dirty()          # fresh state is dirty
        assert not state.consume_dirty()      # nothing changed since
        state.enqueue(job("j"))
        assert state.consume_dirty()
        state.mark_dirty()
        assert state.consume_dirty()


class TestStageInEta:
    def test_estimator_memoized_per_job(self):
        calls = []

        def estimator(j):
            calls.append(j.job_id)
            return 42.0

        state = make_state(estimator=estimator)
        staged = job("s", stage_in=(StageDirective(
            "stage_in", "lustre://in/", "nvme0://in/", "single"),))
        assert state.stage_in_eta(staged) == 42.0
        assert state.stage_in_eta(staged) == 42.0
        assert calls == [staged.job_id]

    def test_jobs_without_staging_short_circuit(self):
        state = make_state(estimator=lambda j: 99.0)
        assert state.stage_in_eta(job("plain")) == 0.0
