"""Whole-stack parity with the oracles: both golden files, four ways.

The product has one event kernel and one frame path; the seed kernel
(``tests/oracles/kernel_reference.py``) and real frame bytes on every
hop (``bytes_frames()`` in ``tests/oracles/wire_reference.py``) are
kept as oracles.  The replay golden file and the checkpointed workflow
golden file must come out byte-identical in every combination: the
kernel is swapped where the cluster builder constructs it.
"""

import contextlib
import pathlib

import pytest

import repro.cluster.builder
import test_policy_replay as policy_replay
import test_workflows_engine as workflows_engine
from repro.cluster import small_test
from repro.sim import Simulator
from tests.oracles.kernel_reference import ReferenceSimulator
from tests.oracles.wire_reference import bytes_frames

DATA = pathlib.Path(__file__).parent / "data"

KERNELS = {"fast": Simulator, "reference": ReferenceSimulator}
FRAMES = {"lazy": contextlib.nullcontext, "bytes": bytes_frames}


@pytest.fixture(params=sorted(FRAMES))
def frames(request):
    with FRAMES[request.param]():
        yield request.param


@pytest.fixture(params=sorted(KERNELS))
def kernel(request, monkeypatch):
    monkeypatch.setattr(repro.cluster.builder, "Simulator",
                        KERNELS[request.param])
    return KERNELS[request.param]


def test_replay_golden(kernel, frames):
    report = policy_replay.replay(policy_replay.golden_trace())
    assert report.to_text() == \
        (DATA / "replay_golden_default.txt").read_text()


def test_workflow_replay_golden(kernel, frames):
    text = workflows_engine.TestReplayGolden().replay(16.0).to_text()
    assert text == (DATA / "workflow_replay_golden.txt").read_text()


def test_kernel_swap_reaches_the_cluster(kernel):
    handle = repro.cluster.builder.build(small_test(n_nodes=2))
    assert type(handle.sim) is kernel
