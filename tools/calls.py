#!/usr/bin/env python3
"""Which functions' call counts one change moved, on one ``bench/`` workload.

    python3 tools/calls.py PARENT_TREE CHANGE_TREE transfer_mesh --seed 0

Runs one cProfiled repeat of the workload's run call (the interval
``bench/run.py`` times as ``wall_s``) in each tree, each in a fresh
interpreter with that tree's ``src/`` and ``bench/`` on the path, and
prints the functions whose call counts differ, largest change first,
then the totals.  Call counts are exact: the same tree, workload and
seed give the same counts in every process and under every hash seed,
so any line printed is the change's doing (cProfile counts each
generator resumption as a call).  Functions are keyed by file and name,
not line, so a function the change moved still pairs with itself.

``bench/workloads.py`` is imported read-only: bytecode writing is off in
the child and the workload's scratch directory is a temporary one, so
nothing under ``bench/`` is written.
"""

import argparse
import json
import subprocess
import sys

#: Runs in the child, inside the tree: one profiled repeat, counts as JSON.
_CHILD = r"""
import cProfile, json, os, pstats, re, sys, tempfile
sys.dont_write_bytecode = True
tree = os.getcwd()
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
from workloads import WORKLOADS
workload = WORKLOADS[sys.argv[1]]
with tempfile.TemporaryDirectory() as workdir:
    state = workload.prepare(int(sys.argv[2]), 1.0, workdir)
    profiler = cProfile.Profile()
    profiler.enable()
    workload.run(state)
    profiler.disable()
counts = {}
for (path, _line, name), (_cc, ncalls, *_rest) in \
        pstats.Stats(profiler).stats.items():
    if path.startswith(tree + os.sep):
        path = os.path.relpath(path, tree)
    # Builtins are named with their type's address: drop it.
    key = f"{path}:{re.sub(' at 0x[0-9a-f]+', '', name)}"
    counts[key] = counts.get(key, 0) + ncalls
print(json.dumps(counts))
"""


def profile(tree: str, workload: str, seed: int) -> dict:
    """Call counts per ``file:function`` of one repeat run in ``tree``."""
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, workload, str(seed)],
        cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{tree}: profiled run failed\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="checkout of the parent commit")
    ap.add_argument("b", help="checkout of the change")
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    a = profile(args.a, args.workload, args.seed)
    b = profile(args.b, args.workload, args.seed)
    moved = sorted(
        ((b.get(k, 0) - a.get(k, 0), k) for k in a.keys() | b.keys()
         if a.get(k, 0) != b.get(k, 0)),
        key=lambda item: (-abs(item[0]), item[1]))
    print(f"{args.workload} seed {args.seed}: call counts, one profiled "
          f"repeat (A = {args.a}, B = {args.b})")
    print(f"  {'B - A':>12} {'A':>12} {'B':>12}  function")
    for delta, key in moved:
        print(f"  {delta:>+12,} {a.get(key, 0):>12,} {b.get(key, 0):>12,}"
              f"  {key}")
    total_a, total_b = sum(a.values()), sum(b.values())
    print(f"  {total_b - total_a:>+12,} {total_a:>12,} {total_b:>12,}"
          f"  total ({len(moved)} functions changed)")


if __name__ == "__main__":
    main()
