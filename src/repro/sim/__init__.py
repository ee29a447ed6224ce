"""Deterministic discrete-event simulation kernel.

This subpackage provides the execution substrate for the whole
reproduction: every daemon (``urd``, ``slurmctld``, ``slurmd``), client
process, network transfer and storage operation runs as a coroutine
process over a single virtual-time event loop.

Public surface:

* :class:`~repro.sim.core.Simulator` — the event loop.
* :class:`~repro.sim.core.Event` / :class:`~repro.sim.core.Process` —
  awaitable primitives (``yield`` them from process generators).
* :class:`~repro.sim.primitives.Timeout`, :func:`~repro.sim.primitives.all_of`,
  :func:`~repro.sim.primitives.any_of` — composition helpers.
* :mod:`~repro.sim.resources` — SimPy-style ``Resource``/``Store``.
* :mod:`~repro.sim.flows` — the max-min fair fluid-flow engine used for
  all bandwidth modelling.
"""

from repro.sim.core import Event, Process, Simulator, TimeoutHandle
from repro.sim.primitives import Timeout, all_of, any_of
from repro.sim.resources import Resource, Store
from repro.sim.flows import Flow, FlowScheduler, CapacityConstraint
from repro.sim.rng import RngRegistry

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Timeout",
    "all_of",
    "any_of",
    "Resource",
    "Store",
    "Flow",
    "FlowScheduler",
    "CapacityConstraint",
    "TimeoutHandle",
    "RngRegistry",
]
