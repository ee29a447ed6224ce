#!/usr/bin/env python3
"""Alternating A/B pairs of one ``bench/`` workload on two checkouts.

    python3 tools/ab_pairs.py PARENT_TREE CHANGE_TREE sched_backlog --seed 0 --pairs 10

Each run is the driver's form of the benchmark (``bench/run.py --workload
W --seed S --seconds 15 --trace 0``), started in its own tree, one at a
time, in the order AB, BA, AB, ... so that drift of the box lands on
both sides.  Every run must come back ``correct`` with no failed op.
Prints, per end-to-end metric of A's ``BENCHMARK.json``: the readings of
every pair, each side's median and quartiles, A's interquartile range,
the ratio of the medians and how many pairs B won (what a claim under
``bench/README.md`` rests on).  Needs two trees, an idle box: not in CI.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(tree: str, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``; its end-to-end metrics by name."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "15", "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{tree}: bench/run.py failed\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{tree}: correct={result['correct']} "
                 f"failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="checkout of the parent commit")
    ap.add_argument("b", help="checkout of the change")
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("quartiles need at least two pairs")
    with open(f"{args.a}/BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    orders = ["AB" if i % 2 == 0 else "BA" for i in range(args.pairs)]
    runs = []       # per pair: side -> its metrics
    for i, order in enumerate(orders, 1):
        runs.append({side: run(getattr(args, side.lower()), args.workload,
                               args.seed) for side in order})
        print(f"pair {i}/{args.pairs} {order} done", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}, {args.pairs} alternating "
          f"pairs (A = {args.a}, B = {args.b}):")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [pair["A"][name] for pair in runs]
        b = [pair["B"][name] for pair in runs]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        q1, _median, q3 = statistics.quantiles(a, n=4)
        print(f"  {name} [{metric['unit']}]: " + "; ".join(
            f"{order} {x:.4g}→{y:.4g}" for order, x, y in zip(orders, a, b)))
        print(f"    {name:<12} A {quartiles(a)} IQR {q3 - q1:.3g}  "
              f"B {quartiles(b)}  "
              f"B/A {statistics.median(b) / statistics.median(a):.3f}  "
              f"B wins {wins}/{args.pairs}")


if __name__ == "__main__":
    main()
