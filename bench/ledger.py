"""Roll repeat records up into one ledger entry per workload, check
them, render them, and compare two ledgers.

The shape follows the per-stage ``StageMetrics`` -> one
``ExecutionSummary`` roll-up: ``child.py`` emits one record per repeat,
:func:`summarize` folds a workload's records into an entry,
``run.py`` collects the entries into the ledger it prints and writes.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from metrics import (CONTENDED_GAP, END_TO_END, HOST_TIME, PER_LAYER,
                     WORK_COUNTERS)

__all__ = ["summarize", "check_expected", "expected_entry", "render",
           "contract_result", "compare", "render_compare"]

def _stat(values: Sequence[float]) -> dict:
    """Median, range and spread of one timed metric.  With 3-5 samples
    no tail percentile is reported."""
    med = statistics.median(values)
    return {
        "median": med, "min": min(values), "max": max(values),
        "n": len(values),
        "spread": (max(values) - min(values)) / med if med else 0.0,
    }


def _e2e_values(record: dict) -> Dict[str, float]:
    return {
        "setup_s": record["setup_s"],
        "wall_s": record["wall_s"],
        "cpu_s": record["cpu_s"],
        "ops_per_s": record["attempted"] / record["wall_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def contended(record: dict) -> bool:
    return record["wall_s"] - record["cpu_s"] > CONTENDED_GAP * record["cpu_s"]


def summarize(untraced: List[dict], traced: Optional[dict] = None,
              expected: Optional[dict] = None) -> dict:
    """One workload's ledger entry from its repeat records.

    Every op of every repeat counts as failed when the repeats disagree
    on ``sim_digest`` or on a work counter, or when the digest differs
    from the checked-in one (``expected``, only known for seeds 0/1).
    """
    first = untraced[0]
    records = untraced + ([traced] if traced else [])
    problems: List[str] = []
    for r in records[1:]:
        if r["sim_digest"] != first["sim_digest"]:
            problems.append(
                f"sim_digest differs between repeats of {first['workload']} "
                f"seed {first['seed']}: {first['sim_digest']} vs "
                f"{r['sim_digest']}")
        diff = sorted(k for k in first["counters"]
                      if r["counters"].get(k) != first["counters"][k])
        if diff:
            problems.append(
                f"work counters differ between repeats of "
                f"{first['workload']} seed {first['seed']}: "
                + ", ".join(diff))
    if expected is not None:
        problems.extend(check_expected(first, expected))

    attempted = sum(r["attempted"] for r in untraced)
    failed = attempted if problems else sum(r["failed"] for r in untraced)
    per_repeat = [_e2e_values(r) for r in untraced]
    entry = {
        "workload": first["workload"],
        "seed": first["seed"],
        "scale": first["scale"],
        "repeats": len(untraced),
        "contended_repeats": sum(contended(r) for r in untraced),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "correct": not problems,
        "problems": problems,
        "sim_digest": first["sim_digest"],
        "digest_text": first["digest_text"],
        "end_to_end": {m.name: _stat([v[m.name] for v in per_repeat])
                       for m in END_TO_END},
        "counters": dict(first["counters"]),
        "env": first["env"],
    }
    events = entry["counters"].get("sim.core.events", 0)
    entry["counters"]["sim.core.us_per_event"] = (
        1e6 * entry["end_to_end"]["wall_s"]["median"] / events
        if events else 0.0)
    if traced is not None:
        entry["layers"] = dict(traced["layers"])
        entry["layers"]["trace_overhead_ratio"] = (
            traced["wall_s"] / entry["end_to_end"]["wall_s"]["median"])
    return entry


# -- checked-in digests ------------------------------------------------------

def expected_entry(entry: dict) -> dict:
    """What ``expected.json`` keeps of a ledger entry."""
    counters = {m.name: entry["counters"][m.name]
                for m in WORK_COUNTERS if m.exact}
    return {"sim_digest": entry["sim_digest"], "counters": counters}


def check_expected(record: dict, expected: dict) -> List[str]:
    """Problems between one repeat record and its checked-in entry."""
    where = f"{record['workload']} seed {record['seed']}"
    problems = []
    if record["sim_digest"] != expected["sim_digest"]:
        problems.append(
            f"sim_digest mismatch on {where}: expected "
            f"{expected['sim_digest']}, got {record['sim_digest']}")
    diff = sorted(k for k, v in expected["counters"].items()
                  if record["counters"].get(k) != v)
    if diff:
        problems.append(
            f"work counters differ from expected.json on {where}: "
            + ", ".join(f"{k} {expected['counters'][k]!r} -> "
                        f"{record['counters'].get(k)!r}" for k in diff))
    return problems


# -- rendering ---------------------------------------------------------------

def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def render(entry: dict) -> str:
    """Every metric of one workload by name, with its unit."""
    lines = [
        f"== {entry['workload']}  seed {entry['seed']}  "
        f"{entry['repeats']} repeat(s)"
        + (f", {entry['contended_repeats']} contended"
           if entry["contended_repeats"] else "")
        + f"  digest {entry['sim_digest'][:16]}"
        + ("" if entry["correct"] else "  ** INCORRECT **")]
    lines += [f"   !! {p}" for p in entry["problems"]]
    lines.append("  end to end (host; median [min, max] n, spread = "
                 "(max-min)/median vs bound)")
    for m in END_TO_END:
        s = entry["end_to_end"][m.name]
        flag = "  > bound: not a baseline" if s["spread"] > m.bound else ""
        lines.append(
            f"    {m.name:<12} {s['median']:>12.6g} {m.unit:<4} "
            f"[{s['min']:.6g}, {s['max']:.6g}] n={s['n']} "
            f"spread {100 * s['spread']:.1f}% / {100 * m.bound:.0f}%{flag}")
    lines.append(
        f"    {'failed_share':<12} {entry['failed_share']:>12.6g} {'share':<4} "
        f"({entry['failed']} of {entry['attempted']} ops)")
    lines.append("  work counters (exact unless timed)")
    for m in WORK_COUNTERS:
        lines.append(f"    {m.name:<30} {_fmt(entry['counters'][m.name]):>16} "
                     f"{m.unit}")
    if "layers" in entry:
        lines.append("  host time by layer (traced repeat)")
        for m in HOST_TIME:
            lines.append(f"    {m.name:<30} "
                         f"{_fmt(entry['layers'][m.name]):>16} {m.unit}")
    return "\n".join(lines)


def contract_result(entry: dict, traced: bool) -> dict:
    """The one-object result line the benchmark contract asks for."""
    if traced:
        values = {**entry["counters"], **entry["layers"]}
        metrics = {m.name: {"value": values[m.name], "unit": m.unit}
                   for m in PER_LAYER}
    else:
        metrics = {m.name: {"value": entry["end_to_end"][m.name]["median"],
                            "unit": m.unit} for m in END_TO_END}
    return {"correct": entry["correct"], "attempted": entry["attempted"],
            "failed": entry["failed"], "metrics": metrics}


# -- comparing two ledgers ---------------------------------------------------

def _verdict(metric, base: dict, new: dict) -> str:
    """``better`` / ``same`` / ``worse`` by the fixed bound on medians;
    ``unresolved`` when the medians sit within the bound but either
    side's own spread is wider than the bound and the ranges overlap."""
    sign = 1.0 if metric.better == "lower" else -1.0
    change = sign * (new["median"] - base["median"]) / base["median"]
    if change > metric.bound:
        return "worse"
    if sign > 0:
        clear_win = new["max"] < base["min"]
    else:
        clear_win = new["min"] > base["max"]
    if change < -metric.bound or clear_win:
        return "better"
    if max(base["spread"], new["spread"]) > metric.bound:
        return "unresolved"
    return "same"


def compare(base: dict, new: dict) -> dict:
    """Compare two ledgers (``{"workloads": {name: entry}}``).

    Returns ``{"rows": [...], "counter_diffs": [...], "ok": bool}``;
    not ok on any ``worse`` verdict, any risen ``failed_share`` or any
    digest that changed.
    """
    rows, counter_diffs, ok = [], [], True
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            continue
        for m in END_TO_END:
            verdict = _verdict(m, b["end_to_end"][m.name],
                               n["end_to_end"][m.name])
            ok = ok and verdict != "worse"
            rows.append({"workload": name, "metric": m.name, "unit": m.unit,
                         "bound": m.bound, "verdict": verdict,
                         "base": b["end_to_end"][m.name],
                         "new": n["end_to_end"][m.name]})
        risen = n["failed_share"] > b["failed_share"]
        ok = ok and not risen
        rows.append({"workload": name, "metric": "failed_share",
                     "unit": "share", "bound": 0.0,
                     "verdict": "worse" if risen else "same",
                     "base": {"median": b["failed_share"]},
                     "new": {"median": n["failed_share"]}})
        if b["seed"] != n["seed"] or b["scale"] != n["scale"]:
            continue        # different inputs: counters are not comparable
        if b["sim_digest"] != n["sim_digest"]:
            ok = False
            counter_diffs.append((name, "sim_digest", b["sim_digest"],
                                  n["sim_digest"]))
        for m in WORK_COUNTERS:
            if m.exact and b["counters"][m.name] != n["counters"][m.name]:
                counter_diffs.append((name, m.name, b["counters"][m.name],
                                      n["counters"][m.name]))
    return {"rows": rows, "counter_diffs": counter_diffs, "ok": ok}


def render_compare(result: dict) -> str:
    lines = [f"{'workload':<14} {'metric':<12} {'base median [min,max]':<34} "
             f"{'new median [min,max]':<34} {'bound':>6}  verdict"]

    def side(s: dict) -> str:
        if "min" not in s:
            return f"{s['median']:.6g}"
        return f"{s['median']:.6g} [{s['min']:.6g}, {s['max']:.6g}]"

    for r in result["rows"]:
        lines.append(
            f"{r['workload']:<14} {r['metric']:<12} {side(r['base']):<34} "
            f"{side(r['new']):<34} {100 * r['bound']:>5.0f}%  {r['verdict']}")
    if result["counter_diffs"]:
        lines.append("work counters / digests that differ:")
        lines += [f"  {w} {k}: {a} -> {b}"
                  for w, k, a, b in result["counter_diffs"]]
    else:
        lines.append("work counters and digests: identical where inputs match")
    lines.append("verdict: " + ("ok" if result["ok"] else "REGRESSION"))
    return "\n".join(lines)
