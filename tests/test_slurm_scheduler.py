"""Unit tests for the scheduling core (priorities, backfill, selector)
and the staging coordinator's persist registry."""

import pytest

from repro.slurm import (
    Job, JobSpec, NodeSelector, PersistRegistry, PriorityCalculator,
    WorkflowManager,
)
from repro.slurm.job import JobState, StageDirective
from repro.errors import SlurmError

from tests.oracles.backfill_reference import BackfillScheduler


def job(name="j", nodes=1, submit=0.0, prio=0.0, limit=100.0, **kw):
    spec = JobSpec(name=name, nodes=nodes, base_priority=prio,
                   time_limit=limit, **kw)
    return Job(spec, submit_time=submit)


class TestPriorities:
    def test_age_increases_priority(self):
        calc = PriorityCalculator(age_weight=1.0)
        old, new = job(submit=0.0), job(submit=50.0)
        assert calc.priority(old, 100.0) > calc.priority(new, 100.0)

    def test_base_priority_dominates_at_submit(self):
        calc = PriorityCalculator(age_weight=0.001)
        high = job(prio=100.0, submit=0.0)
        low = job(prio=0.0, submit=0.0)
        assert calc.priority(high, 10.0) > calc.priority(low, 10.0)

    def test_workflow_jobs_age_from_workflow_creation(self):
        # Section III: the workflow is a unit — a late phase inherits
        # the workflow's age instead of starting from zero.
        wm = WorkflowManager()
        first = job("first", submit=0.0, workflow_start=True)
        wm.place_job(first)
        late = job("late", submit=500.0,
                   workflow_prior_dependency=first.job_id)
        wm.place_job(late)
        solo = job("solo", submit=500.0)
        calc = PriorityCalculator(age_weight=1.0)
        assert calc.priority(late, 600.0, wm) > calc.priority(solo, 600.0)


class TestBackfill:
    def test_head_job_gets_nodes_first(self):
        sched = BackfillScheduler()
        a, b = job("a", nodes=2, submit=0.0), job("b", nodes=2, submit=1.0)
        decisions = sched.schedule(10.0, [a, b], ["n0", "n1"], [])
        assert len(decisions) == 1 and decisions[0].job is a

    def test_backfill_fills_spare_nodes(self):
        sched = BackfillScheduler()
        blocked = job("big", nodes=4, submit=0.0)
        small = job("small", nodes=1, submit=1.0, limit=10.0)
        running = job("run", nodes=2, submit=0.0, limit=1000.0)
        running.allocated_nodes = ("n2", "n3")
        running.start_time = 0.0
        running.set_state(JobState.RUNNING)
        decisions = sched.schedule(5.0, [blocked, small], ["n0", "n1"],
                                   [running])
        names = {d.job.spec.name: d for d in decisions}
        assert "big" not in names
        assert names["small"].backfilled

    def test_backfill_respects_reservation(self):
        sched = BackfillScheduler()
        blocked = job("big", nodes=3, submit=0.0)
        # long job would delay the reservation on the reserved nodes.
        long_job = job("long", nodes=2, submit=1.0, limit=100000.0)
        running = job("run", nodes=2, submit=0.0, limit=50.0)
        running.allocated_nodes = ("n1", "n2")
        running.start_time = 0.0
        running.set_state(JobState.RUNNING)
        decisions = sched.schedule(5.0, [blocked, long_job], ["n0"],
                                   [running])
        assert decisions == []

    def test_nodelist_pinning(self):
        sched = BackfillScheduler()
        pinned = job("pin", nodes=2, nodelist=("n3", "n1"))
        decisions = sched.schedule(0.0, [pinned], ["n0", "n1", "n2", "n3"],
                                   [])
        assert decisions[0].nodes == ("n3", "n1")  # rank order preserved

    def test_nodelist_blocks_until_nodes_free(self):
        sched = BackfillScheduler()
        pinned = job("pin", nodes=1, nodelist=("n9",))
        assert sched.schedule(0.0, [pinned], ["n0", "n1"], []) == []

    def test_nodelist_length_validated(self):
        with pytest.raises(SlurmError):
            JobSpec(name="bad", nodes=2, nodelist=("n0",))


class TestSelector:
    def test_hint_nodes_ranked_first(self):
        sel = NodeSelector(None, data_aware=True)
        j = job("j")
        j.data_hints = ("n2",)
        assert sel.order(j, ["n0", "n1", "n2"])[0] == "n2"

    def test_persisted_data_ranked_above_hints(self):
        reg = PersistRegistry()
        reg.store("nvme0://", "/data", "alice", ["n1"],
                  {"n1": 10 ** 12})
        sel = NodeSelector(reg, data_aware=True)
        j = job("j", stage_in=(StageDirective(
            "stage_in", "nvme0://data/", "nvme0://data/", "single"),))
        j.data_hints = ("n0",)
        order = sel.order(j, ["n0", "n1", "n2"])
        assert order[0] == "n1"

    def test_data_oblivious_is_name_order(self):
        sel = NodeSelector(None, data_aware=False)
        j = job("j")
        j.data_hints = ("n2",)
        assert sel.order(j, ["n2", "n0", "n1"]) == ["n0", "n1", "n2"]


class TestPersistRegistry:
    def test_store_share_access(self):
        reg = PersistRegistry()
        reg.store("nvme0://", "/d", "alice", ["n0"])
        assert reg.may_access("nvme0://", "/d", "alice")
        assert not reg.may_access("nvme0://", "/d", "bob")
        reg.share("nvme0://", "/d", "alice", "bob")
        assert reg.may_access("nvme0://", "/d", "bob")
        reg.unshare("nvme0://", "/d", "alice", "bob")
        assert not reg.may_access("nvme0://", "/d", "bob")

    def test_share_requires_ownership(self):
        reg = PersistRegistry()
        reg.store("nvme0://", "/d", "alice", ["n0"])
        with pytest.raises(SlurmError):
            reg.share("nvme0://", "/d", "mallory", "eve")

    def test_delete_requires_access(self):
        reg = PersistRegistry()
        reg.store("nvme0://", "/d", "alice", ["n0"])
        with pytest.raises(SlurmError):
            reg.delete("nvme0://", "/d", "mallory")
        reg.share("nvme0://", "/d", "alice", "bob")
        entry = reg.delete("nvme0://", "/d", "bob")
        assert entry.owner == "alice"

    def test_is_covered_prefix_semantics(self):
        reg = PersistRegistry()
        reg.store("nvme0://", "/keep", "alice", ["n0"])
        assert reg.is_covered("nvme0://", "/keep")
        assert reg.is_covered("nvme0://", "/keep/sub/file.dat")
        assert not reg.is_covered("nvme0://", "/keepsake")
        assert not reg.is_covered("tmp0://", "/keep")

    def test_resident_bytes_aggregates(self):
        reg = PersistRegistry()
        reg.store("nvme0://", "/a", "u", ["n0", "n1"],
                  {"n0": 100, "n1": 50})
        reg.store("nvme0://", "/a/sub", "u", ["n0"], {"n0": 25})
        resident = reg.resident_bytes("nvme0://", "/a")
        assert resident == {"n0": 125, "n1": 50}
