"""Decision parity: the ``backfill`` and ``fifo`` policies vs the retired
pre-engine scheduler.

``tests/oracles/backfill_reference.py`` re-sorts the pending list by
live priority every pass and re-sorts the free set for every candidate.
The engine's passes walk a statically indexed queue (lazily, for
``fifo``) and carry their sorted views through the pass; they must
still return the same ``[(job_id, nodes, backfilled)]`` list — order,
node tuple and flag.

The states are the seeded random ones of ``test_conservative_parity``,
minus those where a drained node is held by a running job: the legacy
pass never knew about drained nodes and would count on its return.
"""

import pytest

from repro.slurm.policies import create_policy

from test_conservative_parity import NOW, SEEDS, decisions, random_state
from tests.oracles.backfill_reference import BackfillScheduler


def comparable_states():
    for seed in SEEDS:
        state = random_state(seed)
        held = {n for r in state.running_jobs() for n in r.allocated_nodes}
        if not held & state.unavailable:
            yield pytest.param(state, id=str(seed))


STATES = list(comparable_states())


def legacy_decisions(state, backfill):
    sched = BackfillScheduler(state.priorities, backfill=backfill)
    return [(d.job.job_id, d.nodes, d.backfilled)
            for d in sched.schedule(NOW, state.eligible(NOW),
                                    state.free.sorted(),
                                    state.running_jobs(),
                                    selector=state.selector)]


def test_most_states_are_comparable():
    assert len(STATES) >= len(SEEDS) // 2


@pytest.mark.parametrize("policy, backfill",
                         [("backfill", True), ("fifo", False)])
@pytest.mark.parametrize("state", STATES)
def test_same_decisions_as_the_retired_scheduler(state, policy, backfill):
    want = legacy_decisions(state, backfill)
    assert decisions(create_policy(policy), state) == want


def test_the_states_cover_the_cases_that_matter():
    """Direct starts, backfilled starts, and passes that leave nodes
    idle with jobs still queued (candidates refused)."""
    seen = dict.fromkeys(("direct", "backfilled", "refused"), 0)
    for param in STATES:
        state, = param.values
        made = create_policy("backfill").schedule(state, NOW)
        seen["direct"] += sum(not d.backfilled for d in made)
        seen["backfilled"] += sum(d.backfilled for d in made)
        seen["refused"] += (
            sum(len(d.nodes) for d in made) < len(state.free)
            and state.pending_count > len(made))
    assert all(count >= 10 for count in seen.values()), seen
