"""Scheduling decisions must not depend on string-hash order.

Node names are strings, and the conservative pass keeps them in sets
and dicts (the working free set, the promised-node map).  If any
*ordered* result — a candidate list, a node tuple — were ever built by
iterating one of those, two interpreter processes with different
``PYTHONHASHSEED`` values would place jobs differently, and a replay's
report (hence ``bench/``'s ``sim_digest``, whose children run with live
hash randomisation) would differ between otherwise identical runs.

A backlogged conservative replay is run in two fresh interpreters with
different hash seeds; the reports must be byte-identical.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: ~150 compute-only jobs of 1-4 nodes arriving 50x compressed onto 8
#: nodes: most of the trace is pending at once, so the pass runs with
#: its reservation depth used up and backfills around promises.
REPLAY = """
from repro.cluster import build, small_test
from repro.traces import ReplayConfig, SynthesisConfig, TraceReplayer, \\
    synthesize

trace = synthesize(SynthesisConfig(
    n_jobs=150, mean_interarrival=14.0, max_nodes=4, size_alpha=2.5,
    mean_runtime=240.0, runtime_sigma=0.6, staged_fraction=0.0), seed=11)
handle = build(small_test(n_nodes=8), seed=11)
report = TraceReplayer(handle, trace, ReplayConfig(
    time_compression=50.0, scheduler="conservative")).run()
print(report.to_text())
"""


def replay_text(hashseed: str) -> str:
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", REPLAY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_conservative_replay_is_identical_across_hash_seeds():
    first, second = replay_text("1"), replay_text("2")
    assert "conservative" in first and first.count("\n") > 10
    assert first == second
