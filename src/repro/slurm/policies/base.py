"""The scheduling-policy interface and registry.

A :class:`SchedulingPolicy` is pure decision logic: given the
controller's :class:`~repro.slurm.policies.state.SchedulerState` and
the current simulation time, it returns the jobs to start right now and
the nodes each one gets.  slurmctld owns the state, applies the
decisions and handles every side effect (staging, accounting, node
release), so policies stay clock-free and I/O-free and can be unit
tested against a hand-built state.

Policies self-register under a short name via :func:`register_policy`;
:func:`create_policy` instantiates by name and is the single entry
point used by :class:`~repro.slurm.slurmctld.SlurmConfig`, the cluster
presets, the CLI ``--scheduler`` flag and trace replay.

To add a policy::

    from repro.slurm.policies import SchedulingPolicy, register_policy

    @register_policy
    class MyPolicy(SchedulingPolicy):
        name = "mine"
        summary = "one-line description for the CLI listing"

        def schedule(self, state, now):
            ...return [ScheduleDecision(job, nodes), ...]
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Type

from repro.errors import SlurmError
from repro.slurm.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.slurm.policies.state import SchedulerState

__all__ = [
    "ScheduleDecision", "SchedulingPolicy",
    "register_policy", "create_policy", "available_policies",
    "DEFAULT_POLICY",
]

#: The engine's default policy (the paper's EASY backfill).
DEFAULT_POLICY = "backfill"


@dataclass
class ScheduleDecision:
    """One job chosen to start and the nodes it gets."""

    job: Job
    nodes: tuple[str, ...]
    backfilled: bool = False


class SchedulingPolicy(abc.ABC):
    """Pure decision logic — no clocks, no I/O; slurmctld drives it."""

    #: Registry key (``--scheduler`` value, preset field, config name).
    name: str = ""
    #: One-line description for the ``policies`` CLI listing.
    summary: str = ""

    @abc.abstractmethod
    def schedule(self, state: "SchedulerState",
                 now: float) -> List[ScheduleDecision]:
        """Pick the set of jobs to start right now."""

    # -- shared allocation geometry ---------------------------------------
    @staticmethod
    def fits(job: Job, available) -> bool:
        """Can the job's allocation be satisfied from ``available``?

        ``available`` is anything supporting ``len`` and ``in``
        (an :class:`~repro.util.ordered_set.OrderedNodeSet` or a list).
        """
        if job.spec.nodelist:
            return all(n in available for n in job.spec.nodelist)
        return job.spec.nodes <= len(available)

    @staticmethod
    def pick(job: Job, candidates: Sequence[str], selector) -> list[str]:
        """Choose the job's nodes from an ordered candidate list."""
        if job.spec.nodelist:
            # sbatch -w: exact nodes, in the order given (rank order).
            return list(job.spec.nodelist)
        if selector is not None:
            ordered = selector.order(job, candidates)
        else:
            ordered = sorted(candidates)
        return list(ordered[:job.spec.nodes])

    @staticmethod
    def completion_events(now: float, running: Sequence[Job],
                          exclude: frozenset = frozenset()) -> list[tuple]:
        """Expected (end, nodes) of every running job, soonest first.

        ``exclude`` drops drained/down nodes from the future-available
        sets, so shadow computations never promise a reservation on a
        node that will not return to service.
        """
        events = []
        for r in running:
            end = r.expected_end if r.expected_end is not None \
                else now + r.spec.time_limit
            nodes = r.allocated_nodes
            if exclude:
                nodes = tuple(n for n in nodes if n not in exclude)
                if not nodes:
                    continue
            events.append((end, nodes))
        events.sort(key=lambda e: e[0])
        return events

    @staticmethod
    def shadow(job: Job, now: float, free: Sequence[str],
               events: Sequence[tuple]) -> tuple[float, set[str]]:
        """When (and where) will a blocked job be able to run?

        ``events`` is the presorted output of :meth:`completion_events`.
        """
        avail = set(free)
        for end, nodes in events:
            avail.update(nodes)
            if len(avail) >= job.spec.nodes:
                return end, set(sorted(avail)[:job.spec.nodes])
        # Never enough nodes: reserve everything far in the future.
        horizon = max((e[0] for e in events), default=now) \
            + job.spec.time_limit
        return horizon, avail


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[SchedulingPolicy]] = {}


def register_policy(cls: Type[SchedulingPolicy]) -> Type[SchedulingPolicy]:
    """Class decorator: add a policy to the registry under ``cls.name``."""
    if not cls.name:
        raise SlurmError(f"policy {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise SlurmError(f"duplicate policy name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def create_policy(name: str, **options) -> SchedulingPolicy:
    """Instantiate a registered policy by name."""
    cls = _REGISTRY.get(name)
    if cls is None:
        known = ", ".join(sorted(_REGISTRY))
        raise SlurmError(f"unknown scheduling policy {name!r} "
                         f"(registered: {known})")
    return cls(**options)


def available_policies() -> list[tuple[str, str]]:
    """(name, summary) of every registered policy, name order."""
    return [(name, _REGISTRY[name].summary)
            for name in sorted(_REGISTRY)]
