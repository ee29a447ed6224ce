"""Smoke tests of the repo benchmark (tier-1, a few seconds in total).

Every workload runs at ~1/50 size through the same code the benchmark
children run (``child.run_repeat``), so these check the *harness*:
metric names, the roll-up, the correctness rules and ``--compare``.
The benchmark-size digests live in ``bench/expected.json`` and are
checked by ``bench/run.py`` itself.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.02
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _repeat(name: str, workdir, seed: int = 0) -> dict:
    return child.run_repeat({
        "workload": name, "seed": seed, "scale": SCALE, "traced": False,
        "workdir": str(workdir),
        "spawned_at": time.clock_gettime(time.CLOCK_MONOTONIC)})


@pytest.fixture(scope="module")
def entries(tmp_path_factory):
    """Two repeats of every workload, folded into ledger entries."""
    workdir = tmp_path_factory.mktemp("bench")
    return {name: ledger.summarize([_repeat(name, workdir),
                                    _repeat(name, workdir)])
            for name in WORKLOADS}


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) \
        == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER] \
        + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names), names
    assert len(metrics.PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)


def test_every_workload_reports_every_metric(entries):
    for name, entry in entries.items():
        assert entry["correct"], entry["problems"]
        assert entry["failed"] == 0 and entry["attempted"] > 0, name
        assert entry["failed_share"] == 0.0
        for m in metrics.END_TO_END:
            stat = entry["end_to_end"][m.name]
            assert stat["n"] == 2 and stat["median"] > 0, (name, m.name)
        for m in metrics.WORK_COUNTERS:
            assert m.name in entry["counters"], (name, m.name)
        result = ledger.contract_result(entry, traced=False)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == \
            [m.name for m in metrics.END_TO_END]
        assert "failed_share" in ledger.render(entry)


def test_workloads_do_what_they_were_chosen_for(entries):
    c = {name: e["counters"] for name, e in entries.items()}
    assert c["replay_staged"]["sim.flows.allocs"] > 0
    assert c["replay_staged"]["storage.bytes_staged"] > 0
    # sched_backlog bypasses the flow engine and the data plane.
    assert c["sched_backlog"]["sim.flows.allocs"] == 0
    assert c["sched_backlog"]["slurm.sched_passes"] > 0
    # Only replay_chaos arms the resilience layer.
    for name in WORKLOADS:
        armed = c[name]["resilience.calls"] > 0
        assert armed == (name == "replay_chaos"), name
    assert c["replay_chaos"]["faults.injected"] > 0
    assert c["replay_chaos"]["workflows.epochs_marked"] > 0
    assert c["rpc_storm"]["net.rpcs_served"] > 0
    assert c["rpc_storm"]["slurm.sched_passes"] == 0
    assert c["transfer_mesh"]["sim.flows.slots_per_alloc"] > 50
    assert c["transfer_mesh"]["norns.tasks_completed"] == 0


def test_forced_incomplete_job_counts_as_failed(tmp_path):
    w = WORKLOADS["sched_backlog"]
    state = w.prepare(0, SCALE, str(tmp_path))
    ctld, sim = state.replayer.ctld, state.replayer.sim
    sim.timeout(60.0).add_callback(
        lambda _e: ctld.cancel(ctld.squeue()[-1][0]))
    w.run(state)
    outcome = w.outcome(state)
    assert outcome.failed == 1 and outcome.attempted == state.n_jobs


def test_non_success_rpc_counts_as_failed(tmp_path):
    w = WORKLOADS["rpc_storm"]
    state = w.prepare(0, SCALE, str(tmp_path))
    # A fifth local client whose pid was never registered with the urd:
    # its submit is refused, so none of its requests succeed.
    state.local_stagger.append(0.0)
    w.run(state)
    outcome = w.outcome(state)
    assert outcome.failed == state.local_polls + 1


def test_digest_mismatch_fails_every_op(entries, tmp_path):
    good = _repeat("transfer_mesh", tmp_path)
    other = dict(good, sim_digest="0" * 64)
    entry = ledger.summarize([good, other])
    assert not entry["correct"] and entry["failed_share"] == 1.0
    assert "transfer_mesh seed 0" in entry["problems"][0]
    assert good["sim_digest"] in entry["problems"][0]

    want = ledger.expected_entry(entries["transfer_mesh"])
    assert ledger.summarize([good], expected=want)["correct"]
    want["sim_digest"] = "f" * 64
    entry = ledger.summarize([good], expected=want)
    assert entry["failed"] == entry["attempted"]
    want = ledger.expected_entry(entries["transfer_mesh"])
    want["counters"]["sim.flows.allocs"] += 1
    entry = ledger.summarize([good], expected=want)
    assert not entry["correct"] and "sim.flows.allocs" in entry["problems"][0]


def _slowed(book: dict, factor: float) -> dict:
    slow = copy.deepcopy(book)
    stat = slow["workloads"]["rpc_storm"]["end_to_end"]["wall_s"]
    for key in ("median", "min", "max"):
        stat[key] *= factor
    return slow


def test_compare_flags_a_slowdown_beyond_the_bound(entries, tmp_path, capsys):
    book = {"workloads": copy.deepcopy(entries)}
    for entry in book["workloads"].values():      # a quiet baseline
        for stat in entry["end_to_end"].values():
            stat["min"] = stat["max"] = stat["median"]
            stat["spread"] = 0.0
    bound = {m.name: m.bound for m in metrics.END_TO_END}["wall_s"]
    paths = {}
    for tag, b in (("base", book), ("near", _slowed(book, 1.02)),
                   ("far", _slowed(book, 1.0 + bound + 0.01))):
        paths[tag] = str(tmp_path / f"{tag}.json")
        with open(paths[tag], "w") as fh:
            json.dump(b, fh)
    assert run.main(["--compare", paths["base"], paths["near"]]) == 0
    assert run.main(["--compare", paths["base"], paths["far"]]) == 1
    out = capsys.readouterr().out
    assert re.search(r"rpc_storm\s+wall_s.*worse", out)

    # Changed work counters are listed; a risen failed_share fails.
    changed = copy.deepcopy(book)
    changed["workloads"]["rpc_storm"]["counters"]["sim.core.events"] += 1
    result = ledger.compare(book, changed)
    assert result["ok"] and result["counter_diffs"] == [
        ("rpc_storm", "sim.core.events",
         book["workloads"]["rpc_storm"]["counters"]["sim.core.events"],
         changed["workloads"]["rpc_storm"]["counters"]["sim.core.events"])]
    changed["workloads"]["rpc_storm"]["failed_share"] = 0.5
    assert not ledger.compare(book, changed)["ok"]

    # A spread wider than the bound is unresolved, not unchanged.
    noisy = copy.deepcopy(book)
    stat = noisy["workloads"]["rpc_storm"]["end_to_end"]["wall_s"]
    stat["max"] = stat["median"] * 1.3
    stat["spread"] = 0.3
    verdicts = {(r["workload"], r["metric"]): r["verdict"]
                for r in ledger.compare(book, noisy)["rows"]}
    assert verdicts[("rpc_storm", "wall_s")] == "unresolved"
    assert verdicts[("rpc_storm", "cpu_s")] == "same"


def test_contract_command_traced(tmp_path):
    """The driver's invocation, traced: one JSON object on the last
    line carrying every per-layer metric."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"),
         "--workload", "rpc_storm", "--seed", "1", "--seconds", "0.01",
         "--trace", "1", "--scale", str(SCALE)],
        capture_output=True, text=True, timeout=120, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in metrics.PER_LAYER]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["trace_overhead_ratio"] > 1.0
    assert values["sim.flows.self_share"] < 0.05
    assert values["wire.frames_made"] > 0
    assert abs(sum(values[f"{layer}.self_share"]
                   for layer in layers.LAYERS) - 1.0) < 1e-9
