"""One implementation per layer, and nothing outside the code picks it.

The product has one event kernel, one flow engine, one codec and one
frame path; the oracles they are checked against live under
``tests/oracles/``.  Three things keep it that way:

* the environment variables that used to select a second kernel or
  frame path (``REPRO_KERNEL``, ``REPRO_WIRE_MODE``) change nothing: a
  fresh interpreter that sets one still runs the fast kernel on lazy
  frames and prints the replay golden file byte for byte;
* ``src/`` reads no environment variable at all, so no new switch can
  appear unnoticed;
* every repository path a ``src/`` module names (an oracle, the test
  that compares against it, a sibling module) exists;
* the run configs' fields and the command-line presets' parameters are
  pinned, so a new option is an edit to this file.
"""

import ast
import dataclasses
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"

#: The golden replay in a fresh interpreter, after checking which
#: kernel and which frame type it gets.
REPLAY = """
import sys
import test_policy_replay as policy_replay
from repro.cluster import build, small_test
from repro.sim import Simulator
from repro.wire import WireFrame, make_frame
from repro.wire import norns_proto as proto

assert type(build(small_test(n_nodes=2)).sim) is Simulator
assert Simulator().stats()["kernel"] == "fast"
assert type(make_frame(proto.NORNS_PROTOCOL,
                       proto.CommandRequest(command="ping"))) is WireFrame
sys.stdout.write(policy_replay.replay(policy_replay.golden_trace()).to_text())
"""

#: The modules of ``src/`` that touch ``os.environ`` / ``os.getenv``:
#: none.  (The fleet's crash tests inject their fault from the test.)
ENV_READERS = set()

#: The settable fields of the four run configs.  A run's policy and
#: fault plan are not among the cluster's: each command chooses them.
RUN_CONFIG_FIELDS = {
    "ClusterSpec": ("name", "nodes", "fabric_core_bandwidth",
                    "fabric_base_latency", "na_plugin", "pfs", "pfs_nsid",
                    "pfs_mount", "urd_workers", "resilience"),
    "SlurmConfig": ("staging_enabled", "data_aware_placement",
                    "age_weight", "policy", "max_requeues",
                    "requeue_on_failure"),
    "ReplayConfig": ("time_compression", "batch_window", "runtime_scale",
                     "clip_nodes", "scheduler", "fault_plan",
                     "checkpoint_interval", "checkpoint_bytes"),
    "PipelineConfig": ("checkpoint_interval", "checkpoint_bytes",
                       "max_rounds", "stage_max_requeues", "data_nsid",
                       "pfs_nsid"),
}

#: The parameters of the presets ``--preset`` names.
PRESET_PARAMETERS = {
    "replay_scale": ("n_nodes", "workers"),
    "nextgenio": ("n_nodes", "track_nvme", "workers"),
    "small_test": ("n_nodes",),
}

#: A repository path in a docstring or comment: ``dir/name.ext``, or a
#: bare ``NAME.md``.
PATH_RE = re.compile(
    r"\b[A-Za-z_][A-Za-z0-9_]*(?:(?:/[A-Za-z0-9_]+)+\.(?:py|md|json|txt)"
    r"|\.md)\b")


def src_modules():
    for path in sorted(SRC.rglob("*.py")):
        name = ".".join(path.relative_to(SRC).with_suffix("").parts)
        yield name.removesuffix(".__init__"), path


@pytest.mark.parametrize("var, value", [
    ("REPRO_KERNEL", "reference"),
    ("REPRO_WIRE_MODE", "bytes"),
])
def test_retired_switch_changes_nothing(var, value):
    path = os.pathsep.join(
        p for p in (str(SRC), str(ROOT / "tests"), str(ROOT),
                    os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **{var: value})
    done = subprocess.run([sys.executable, "-c", REPLAY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (DATA / "replay_golden_default.txt").read_text()


def test_src_reads_no_other_environment_variable():
    readers = {
        name for name, path in src_modules()
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
        or (isinstance(node, ast.alias) and node.name in ("environ",
                                                          "getenv"))}
    assert readers == ENV_READERS


def test_src_names_no_missing_path():
    missing = []
    for name, path in src_modules():
        for ref in sorted(set(PATH_RE.findall(path.read_text()))):
            if not any((base / ref).exists()
                       for base in (ROOT, SRC, SRC / "repro")):
                missing.append(f"{name}: {ref}")
    assert missing == []


def test_run_config_fields_are_pinned():
    from repro.cluster.spec import ClusterSpec
    from repro.slurm.slurmctld import SlurmConfig
    from repro.traces import ReplayConfig
    from repro.workflows import PipelineConfig
    found = {cls.__name__: tuple(f.name for f in dataclasses.fields(cls))
             for cls in (ClusterSpec, SlurmConfig, ReplayConfig,
                         PipelineConfig)}
    assert found == RUN_CONFIG_FIELDS


def test_preset_parameters_are_pinned():
    from repro.cluster.presets import PRESETS
    found = {name: tuple(inspect.signature(preset).parameters)
             for name, preset in PRESETS.items()}
    assert found == PRESET_PARAMETERS
