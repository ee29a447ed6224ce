"""The repo benchmark: five whole-stack workloads, one ledger.

    python3 bench/run.py [--workload W] [--seed S] [--repeats K]
                         [--trace [0|1]] [--out F] [--force]
    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --update-expected

Runs each repeat of each workload in a fresh child process, one at a
time, checks the outputs (ops failed, ``sim_digest`` against the other
repeats and ``bench/expected.json``), and prints every metric by name
with its unit.  With ``--workload`` the last stdout line is one JSON
object ``{correct, attempted, failed, metrics}``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  Exits non-zero on
any digest mismatch.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(BENCH, ".work")
EXPECTED = os.path.join(BENCH, "expected.json")
sys.path.insert(0, BENCH)

import ledger  # noqa: E402

WORKLOAD_NAMES = ("replay_staged", "sched_backlog", "replay_chaos",
                  "rpc_storm", "transfer_mesh")
DEFAULT_REPEATS = 5
EXPECTED_SEEDS = (0, 1)
#: refuse a sweep when the 1-minute load exceeds this share of the cores.
MAX_LOAD_SHARE = 0.5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result (not a metric verdict)."""


def child_env() -> Dict[str, str]:
    """The environment every repeat runs in: shipped defaults only."""
    env = dict(os.environ)
    for name in ("REPRO_KERNEL", "REPRO_WIRE_MODE"):
        env.pop(name, None)
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH])
    return env


def run_child(workload: str, seed: int, scale: float, traced: bool) -> dict:
    """One repeat in a fresh interpreter; returns its record."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no simulator source under {SRC}")
    os.makedirs(WORKDIR, exist_ok=True)
    request = {"workload": workload, "seed": seed, "scale": scale,
               "traced": traced, "workdir": WORKDIR,
               "spawned_at": time.clock_gettime(time.CLOCK_MONOTONIC)}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"),
             json.dumps(request)],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: child killed after "
                         f"{CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} seed {seed}: child exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def measure(workload: str, seed: int, scale: float, repeats: int,
            seconds: Optional[float], traced: bool,
            expected: Optional[dict]) -> dict:
    """Run one workload's repeats and fold them into a ledger entry.

    ``seconds`` (the contract's run length) keeps repeating until that
    much run time has been measured — except on a traced contract run,
    which makes one untraced repeat for the overhead ratio and then the
    profiled one (~4x a repeat in all, inside the same time budget).
    """
    untraced: List[dict] = []
    if traced and seconds is not None:
        repeats, seconds = 1, None
    measured = 0.0
    while True:
        record = run_child(workload, seed, scale, traced=False)
        untraced.append(record)
        measured += record["wall_s"]
        if (len(untraced) >= repeats if seconds is None
                else measured >= seconds):
            break
    profiled = run_child(workload, seed, scale, traced=True) \
        if traced else None
    want = None
    if expected is not None and scale == 1.0:
        want = expected.get(workload, {}).get(str(seed))
    return ledger.summarize(untraced, profiled, want)


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_mismatch(entry: dict, out: Optional[str]) -> None:
    """Leave the offending report text next to ``--out``."""
    base = os.path.splitext(out)[0] if out else os.path.join(
        WORKDIR, "mismatch")
    path = f"{base}.{entry['workload']}.seed{entry['seed']}.txt"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(entry["digest_text"])
    print(f"   offending report text written to {path}", file=sys.stderr)


def sweep(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    load, nproc = os.getloadavg()[0], os.cpu_count() or 1
    if load > MAX_LOAD_SHARE * nproc:
        message = (f"1-min load average {load:.2f} > "
                   f"{MAX_LOAD_SHARE} x {nproc} cores")
        # A contract run (--seconds) is one of many the driver times
        # itself; it must produce a result, so it only warns.
        if args.seconds is None and not args.force:
            print(f"refusing to start: {message} (use --force)",
                  file=sys.stderr)
            return 2
        print(f"warning: {message}; timings may be contended",
              file=sys.stderr)
    expected = load_expected() if os.path.exists(EXPECTED) else None
    book = {"commit": git_commit(), "seed": args.seed, "workloads": {}}
    status = 0
    for name in names:
        entry = measure(name, args.seed, args.scale, args.repeats,
                        args.seconds, bool(args.trace), expected)
        book["workloads"][name] = entry
        print(ledger.render(entry))
        if not entry["correct"]:
            status = 1
            write_mismatch(entry, args.out)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(book, fh, indent=1, sort_keys=True)
    sys.stdout.flush()
    if args.workload:
        entry = book["workloads"][args.workload]
        print(json.dumps(ledger.contract_result(entry, bool(args.trace))))
    return status


def update_expected(args) -> int:
    table: Dict[str, Dict[str, dict]] = {}
    for name in WORKLOAD_NAMES:
        for seed in EXPECTED_SEEDS:
            entry = measure(name, seed, 1.0, 2, None, False, None)
            if not entry["correct"]:
                print("\n".join(entry["problems"]), file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = \
                ledger.expected_entry(entry)
            print(f"{name} seed {seed}: {entry['sim_digest']}")
    with open(EXPECTED, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def compare(args) -> int:
    books = []
    for path in args.compare:
        with open(path) as fh:
            books.append(json.load(fh))
    result = ledger.compare(*books)
    print(ledger.render_compare(result))
    return 0 if result["ok"] else 1


def parse_args(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                   help="timed repeats per workload (default 5)")
    p.add_argument("--seconds", type=float, default=None,
                   help="repeat until this much run time is measured "
                        "(overrides --repeats)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="add one profiled repeat: per-layer host time")
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink every workload (smoke runs; digests are "
                        "only checked in at scale 1)")
    p.add_argument("--out", help="write the ledger as JSON")
    p.add_argument("--force", action="store_true",
                   help="run even when the box is loaded")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--update-expected", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.compare:
            return compare(args)
        if args.update_expected:
            return update_expected(args)
        return sweep(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
