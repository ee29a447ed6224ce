"""NaN is refused wherever the flow engine takes a number.

A NaN passes ``x <= 0`` and ``x < 0`` checks, and a NaN size or rate
turns the component's deadline, and with it ``sim.now``, into NaN: the
flow never completes.  Each entry point rejects it with the same
``SimError`` as a non-positive (or negative) value.
"""

import math

import pytest

from repro.errors import SimError
from repro.sim import CapacityConstraint, FlowScheduler, Simulator

NAN = math.nan


@pytest.fixture
def fs():
    return FlowScheduler(Simulator())


def test_constraint_capacity(fs):
    with pytest.raises(SimError, match="positive capacity"):
        CapacityConstraint("bad", NAN)


def test_set_capacity(fs):
    link = CapacityConstraint("link", 100.0)
    fs.transfer(1000.0, [link])
    with pytest.raises(SimError, match="positive capacity"):
        fs.set_capacity(link, NAN)
    assert link.capacity == 100.0


def test_transfer_size(fs):
    link = CapacityConstraint("link", 100.0)
    with pytest.raises(SimError, match="negative transfer size"):
        fs.transfer(NAN, [link])
    assert fs.active == 0
    fs.sim.run()
    assert fs.sim.now == 0.0


def test_transfer_rate_cap(fs):
    link = CapacityConstraint("link", 100.0)
    with pytest.raises(SimError, match="rate_cap must be positive"):
        fs.transfer(10.0, [link], rate_cap=NAN)
    assert fs.active == 0


def test_transfer_weight(fs):
    link = CapacityConstraint("link", 100.0)
    with pytest.raises(SimError, match="weight must be positive"):
        fs.transfer(10.0, [link], weight=NAN)
    assert fs.active == 0
