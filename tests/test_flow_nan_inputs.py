"""NaN is refused wherever the flow engine takes a number.

A NaN passes ``x <= 0`` and ``x < 0`` checks, and a NaN size or rate
turns the component's deadline, and with it ``sim.now``, into NaN: the
flow never completes.  Each entry point rejects it with the same
``SimError`` as a non-positive (or negative) value.

An infinite size or weight is refused too: an infinite flow never
completes on its own (and "completes" with ``inf`` bytes beside a finite
one), and an infinite weight starves its co-members.  An infinite
``rate_cap`` or capacity stays legal: it means "uncapped".
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


def test_transfer_size_inf(fs):
    link = CapacityConstraint("link", 100.0)
    fs.transfer(50.0, [link])
    with pytest.raises(SimError, match="transfer size must be finite"):
        fs.transfer(math.inf, [link])
    assert fs.active == 1
    fs.sim.run()
    assert fs.bytes_moved == 50.0
    assert fs.sim.now == 0.5


def test_transfer_weight_inf(fs):
    link = CapacityConstraint("link", 100.0)
    fs.transfer(50.0, [link])
    with pytest.raises(SimError, match="weight must be finite"):
        fs.transfer(10.0, [link], weight=math.inf)
    assert fs.active == 1
    fs.sim.run()
    assert fs.sim.now == 0.5


def test_infinite_rate_cap_and_capacity_mean_uncapped(fs):
    link = CapacityConstraint("link", 100.0)
    fat = CapacityConstraint("fat", math.inf)
    done = fs.transfer(50.0, [link, fat], rate_cap=math.inf)
    fs.sim.run()
    assert done.value.finished_at == 0.5
    assert fs.bytes_moved == 50.0
