"""Textual front ends mirroring the Slurm user tools.

Real users interact with Slurm through ``squeue``/``sacct``/``sworkflow``-
style commands; these helpers render the controller's state in that
shape so examples and operators get familiar output.  (The paper's
extensions add the workflow status query: "Each workflow is assigned a
unique Workflow ID enabling users to be able to enquire about the
overall status of a workflow and obtain a list of all jobs and their
status".)

The module is also runnable — ``python -m repro.slurm.cli <command>``:

* ``replay`` drives the trace-replay subsystem: load an SWF or JSONL
  trace (or synthesize one), build a cluster preset, replay it through
  slurmctld/urd, and print the metrics report;
* ``trace`` replays the same way under the :mod:`repro.obs` tracer and
  exports the span trace — Chrome ``trace_event`` JSON (``--out``,
  Perfetto-loadable) and JSONL span/metric streams — plus a
  per-category summary; ``--only job,rpc`` filters by subsystem;
* ``top`` replays with tracing on and prints the end-of-run hotspot
  view (busiest urds, deepest queues, hottest constraints, slowest
  staging phases);
* ``run`` submits ``#SBATCH``/``#NORNS`` batch scripts to a fresh
  cluster and prints the resulting accounting;
* ``workflows`` runs a named DAG pipeline (:mod:`repro.workflows`)
  with per-stage checkpoint/restart (``--checkpoint-interval`` /
  ``--checkpoint-bytes``), optionally under a fault plan or profile,
  and prints the round-by-round recovery report;
* ``sweep`` expands a declarative sweep matrix (``--axis
  policy=fifo,backfill --axis fault_profile=none,chaos ...``) and fans
  the runs out over worker processes via the fleet runner
  (:mod:`repro.experiments.fleet`), printing the merged cross-run
  report; ``--out DIR`` persists per-run artifact directories and
  ``--resume`` skips shards already COMPLETE in them;
* ``policies`` lists the registered scheduling policies;
* ``faults`` lists fault profiles, emits a seeded plan file, or
  describes an existing plan.

Both ``run`` and ``replay`` take ``--scheduler`` to pick any policy
from the :mod:`repro.slurm.policies` registry, and ``--faults
PLAN.jsonl`` to inject a deterministic failure schedule
(:mod:`repro.faults`); ``replay`` can also name a ``--fault-profile``
directly and then reports resilience metrics (requeues, lost staging
work, MTTR, goodput).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.errors import ReproError
from repro.slurm.policies import available_policies
from repro.slurm.slurmctld import Slurmctld
from repro.util.tables import render_table
from repro.util.units import format_bytes, format_seconds

__all__ = ["squeue", "sacct", "sworkflow", "sinfo", "main"]

_PRESETS = ("replay_scale", "nextgenio", "small_test")


def squeue(ctld: Slurmctld) -> str:
    """Pending/active job listing."""
    rows = []
    for job_id, name, state in sorted(ctld.squeue()):
        job = ctld.job(job_id)
        if job.state.is_terminal:
            continue
        rows.append((job_id, name, state, job.spec.user,
                     job.spec.nodes,
                     ",".join(job.allocated_nodes) or "-",
                     job.workflow_id if job.workflow_id is not None else "-"))
    return render_table(
        ("JOBID", "NAME", "STATE", "USER", "NODES", "NODELIST", "WORKFLOW"),
        rows, title="squeue")


def sacct(ctld: Slurmctld, job_id: Optional[int] = None) -> str:
    """Accounting listing (phase timings + staged bytes)."""
    records = ([ctld.accounting.get(job_id)] if job_id is not None
               else ctld.accounting.records())
    rows = []
    for rec in records:
        if rec is None:
            continue
        rows.append((
            rec.job_id, rec.name, rec.state or "-",
            format_seconds(rec.wait_seconds) if rec.wait_seconds is not None else "-",
            format_seconds(rec.stage_in_seconds) if rec.stage_in_seconds else "-",
            format_seconds(rec.run_seconds) if rec.run_seconds is not None else "-",
            format_seconds(rec.stage_out_seconds) if rec.stage_out_seconds else "-",
            format_bytes(rec.bytes_staged_in + rec.bytes_staged_out)
            if (rec.bytes_staged_in or rec.bytes_staged_out) else "-",
            len(rec.warnings) or "-",
        ))
    return render_table(
        ("JOBID", "NAME", "STATE", "WAIT", "STAGE-IN", "RUN",
         "STAGE-OUT", "STAGED", "WARN"),
        rows, title="sacct")


def sworkflow(ctld: Slurmctld, workflow_id: int) -> str:
    """The paper's workflow status query."""
    status, jobs = ctld.workflow_status(workflow_id)
    rows = [(job_id, name, state) for job_id, name, state in jobs]
    table = render_table(("JOBID", "NAME", "STATE"), rows,
                         title=f"workflow {workflow_id}: {status.value}")
    return table


def sinfo(ctld: Slurmctld) -> str:
    """Node availability summary (idle / alloc / drain / down)."""
    free = ctld.free_nodes
    rows = []
    for name, state in ctld.node_states():
        if state in ("idle", "alloc"):
            # Keep the historical free-set view for healthy nodes (a
            # node mid-release counts idle the moment it leaves use).
            state = "idle" if name in free else "alloc"
        rows.append((name, state))
    return render_table(("NODE", "STATE"), rows, title="sinfo")


# ----------------------------------------------------------------------
# Command-line front end
# ----------------------------------------------------------------------
def _build_replay_parser(sub) -> None:
    p = sub.add_parser(
        "replay",
        help="replay a workload trace through slurmctld/urd",
        description="Feed an SWF/JSONL trace (or a synthesized one) "
                    "into a simulated cluster and print the per-job "
                    "metrics report.")
    _add_replay_options(p)
    p.add_argument("--save-trace", metavar="FILE",
                   help="also write the (synthesized) trace to FILE "
                        "(.swf or .jsonl)")
    p.add_argument("--perf", action="store_true",
                   help="append the event-kernel counter footer "
                        "(dispatches, defunct skips, compactions)")
    p.set_defaults(func=_cmd_replay)


def _add_replay_options(p) -> None:
    """The workload/cluster options shared by replay, trace and top."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", metavar="FILE",
                     help="trace file (.swf or .jsonl, by extension)")
    src.add_argument("--synth", type=int, metavar="N",
                     help="synthesize an N-job trace instead")
    p.add_argument("--arrival", choices=("poisson", "diurnal"),
                   default="poisson", help="synthetic arrival process")
    p.add_argument("--interarrival", type=float, default=30.0,
                   help="mean seconds between synthetic arrivals")
    p.add_argument("--staged-fraction", type=float, default=0.25,
                   help="target fraction of staged-workflow jobs")
    p.add_argument("--stage-bytes", type=float, default=4e9,
                   help="mean staged bytes per workflow job")
    p.add_argument("--preset", default="replay_scale",
                   choices=_PRESETS,
                   help="cluster preset to build")
    p.add_argument("--nodes", type=int, default=0,
                   help="override the preset's node count")
    _add_scheduler_option(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compression", type=float, default=1.0,
                   help="time-compression factor on arrivals")
    p.add_argument("--batch-window", type=float, default=0.0,
                   help="coalesce submissions into windows (seconds)")
    p.add_argument("--runtime-scale", type=float, default=1.0,
                   help="scale factor on trace run times")
    _add_checkpoint_options(p)
    _add_fault_options(p, with_profile=True)


def _load_or_synthesize(args):
    from repro.traces import (
        SynthesisConfig, load_jsonl, load_swf, synthesize,
    )
    if args.trace:
        if args.trace.endswith(".jsonl"):
            return load_jsonl(args.trace)
        return load_swf(args.trace)
    cfg = SynthesisConfig(
        n_jobs=args.synth, arrival=args.arrival,
        mean_interarrival=args.interarrival,
        staged_fraction=args.staged_fraction,
        stage_bytes_mean=args.stage_bytes,
        # A checkpoint interval is only meaningful if the synthesized
        # workflow jobs are flagged resumable.
        checkpoint_workflows=args.checkpoint_interval > 0)
    return synthesize(cfg, seed=args.seed)


def _cmd_replay(args) -> int:
    from repro.traces import ReplayConfig, TraceReplayer, dump_jsonl, dump_swf

    trace = _load_or_synthesize(args)
    if args.save_trace:
        if args.save_trace.endswith(".swf"):
            dump_swf(trace, args.save_trace)
        else:
            dump_jsonl(trace, args.save_trace)
    handle = _build_preset(args)
    plan = _resolve_fault_plan(args, handle, trace)
    replayer = TraceReplayer(
        handle, trace,
        ReplayConfig(time_compression=args.compression,
                     batch_window=args.batch_window,
                     runtime_scale=args.runtime_scale,
                     scheduler=args.scheduler,
                     checkpoint_interval=args.checkpoint_interval,
                     checkpoint_bytes=args.checkpoint_bytes,
                     fault_plan=plan))
    report = replayer.run()
    print(report.to_text(perf=args.perf))
    return 0 if report.completed == trace.n_jobs else 1


# -- trace / top: replay under the repro.obs tracer ---------------------
def _build_trace_parser(sub) -> None:
    p = sub.add_parser(
        "trace",
        help="record a replay's span trace and export/summarize it",
        description="Replay a workload (same options as 'replay') with "
                    "the repro.obs tracer enabled, print the per-"
                    "category span summary, and optionally export the "
                    "trace: --out writes Chrome trace_event JSON "
                    "(loadable in Perfetto / chrome://tracing), "
                    "--spans / --metrics write JSONL streams.  The "
                    "exported bytes are deterministic: same workload + "
                    "seed, same trace, on either event kernel.")
    _add_replay_options(p)
    p.add_argument("--only", metavar="CAT[,CAT...]", default="",
                   help="record only these span categories (subset of: "
                        "job, sched, task, urd, rpc, flow, fault, "
                        "workflow)")
    p.add_argument("--out", metavar="FILE", default="",
                   help="write the Chrome trace_event JSON to FILE")
    p.add_argument("--spans", metavar="FILE", default="",
                   help="write the span/mark JSONL stream to FILE")
    p.add_argument("--metrics", metavar="FILE", default="",
                   help="write the metric-snapshot JSONL to FILE")
    p.set_defaults(func=_cmd_trace)


def _build_top_parser(sub) -> None:
    p = sub.add_parser(
        "top",
        help="replay a workload and print the end-of-run top view",
        description="Replay a workload (same options as 'replay') with "
                    "tracing enabled and print the trace-derived "
                    "hotspot tables: busiest urds, deepest queues, "
                    "hottest flow constraints, slowest staging phases.")
    _add_replay_options(p)
    p.add_argument("--limit", type=int, default=10,
                   help="rows per hotspot table")
    p.set_defaults(func=_cmd_top)


def _traced_replay(args, categories=None):
    """Shared trace/top body: replay under a tracer; returns
    (report, tracer, trace)."""
    from repro.traces import ReplayConfig, TraceReplayer

    trace = _load_or_synthesize(args)
    handle = _build_preset(args)
    tracer = handle.enable_tracing(categories)
    plan = _resolve_fault_plan(args, handle, trace)
    replayer = TraceReplayer(
        handle, trace,
        ReplayConfig(time_compression=args.compression,
                     batch_window=args.batch_window,
                     runtime_scale=args.runtime_scale,
                     scheduler=args.scheduler,
                     checkpoint_interval=args.checkpoint_interval,
                     checkpoint_bytes=args.checkpoint_bytes,
                     fault_plan=plan))
    report = replayer.run()
    tracer.close_open()
    return report, tracer, trace


def _cmd_trace(args) -> int:
    from repro.obs import chrome_trace, metrics_jsonl, spans_jsonl
    from repro.obs.export import summarize_spans
    from repro.obs.trace import CATEGORIES

    cats = tuple(c.strip() for c in args.only.split(",") if c.strip())
    for cat in cats:
        if cat not in CATEGORIES:
            raise SystemExit(
                f"unknown span category {cat!r} "
                f"(known: {', '.join(CATEGORIES)})")
    report, tracer, trace = _traced_replay(args, cats or None)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(chrome_trace(tracer))
        print(f"wrote Chrome trace to {args.out} "
              "(open in Perfetto or chrome://tracing)")
    if args.spans:
        with open(args.spans, "w") as fh:
            fh.write(spans_jsonl(tracer))
        print(f"wrote span stream to {args.spans}")
    if args.metrics and report.registry is not None:
        with open(args.metrics, "w") as fh:
            fh.write(metrics_jsonl(report.registry))
        print(f"wrote metric snapshot to {args.metrics}")
    print(summarize_spans(tracer))
    return 0 if report.completed == trace.n_jobs else 1


def _cmd_top(args) -> int:
    from repro.obs import top_table

    report, tracer, trace = _traced_replay(args)
    print(top_table(tracer, limit=args.limit))
    return 0 if report.completed == trace.n_jobs else 1


# -- run: batch scripts through a fresh cluster -------------------------
def _build_run_parser(sub) -> None:
    p = sub.add_parser(
        "run",
        help="submit #SBATCH/#NORNS batch scripts and print accounting",
        description="Build a cluster preset, submit each batch script "
                    "in order, run the simulation to drain and print "
                    "the squeue/sacct views.  Scripts carry no "
                    "executable payload; their staging directives, "
                    "workflow options and time limits drive the run.")
    p.add_argument("scripts", nargs="+", metavar="SCRIPT",
                   help="batch script files, submitted in order")
    p.add_argument("--preset", default="small_test", choices=_PRESETS,
                   help="cluster preset to build")
    p.add_argument("--nodes", type=int, default=0,
                   help="override the preset's node count")
    _add_scheduler_option(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--drain", metavar="NODES", default="",
                   help="comma-separated nodes to drain before any "
                        "submission (they take no allocations)")
    p.add_argument("--perf", action="store_true",
                   help="append the event-kernel counter table "
                        "(dispatches, defunct skips, compactions)")
    _add_fault_options(p, with_profile=False)
    p.set_defaults(func=_cmd_run)


def _cmd_run(args) -> int:
    handle = _build_preset(args)
    ctld = handle.ctld
    for node in (n.strip() for n in args.drain.split(",")):
        if node:
            ctld.drain_node(node, reason="drained via --drain")
    injector = None
    if args.faults:
        from repro.faults import FaultInjector, load_plan
        injector = FaultInjector(handle, load_plan(args.faults))
        if injector.plan.n_faults:
            # Only a plan that actually fires flips the failure
            # semantics; an empty plan must change nothing.
            ctld.config.requeue_on_failure = True
        injector.start()
    jobs = []
    for path in args.scripts:
        with open(path) as fh:
            jobs.append(ctld.submit_script(fh.read()))
    from repro.errors import SimulationEnded
    stranded = []
    try:
        handle.sim.run(ctld.drain())
    except SimulationEnded:
        # Drained nodes or a permanent fault under-size the partition
        # for some pending job: report what did run.
        stranded = [j for j in jobs if not j.state.is_terminal]
    print(sacct(ctld))
    for job in stranded:
        print(f"job {job.job_id} ({job.spec.name}): stranded pending "
              "(not enough serviceable nodes)")
    if args.drain:
        print(sinfo(ctld))
    if injector is not None and injector.plan.n_faults:
        injector.stop()
        completed = sum(1 for j in jobs if j.state.value == "completed")
        stats = injector.finalize(completed_jobs=completed,
                                  total_jobs=len(jobs))
        print(render_table(("metric", "value"), stats.rows(),
                           title="resilience"))
    if args.perf:
        from repro.obs import MetricsRegistry, collect_kernel
        reg = MetricsRegistry()
        collect_kernel(reg, handle.sim)
        print(render_table(("counter", "value"),
                           reg.rows(prefix="kernel."),
                           title="event kernel"))
    failed = [j for j in jobs if j.state.value != "completed"]
    for job in failed:
        print(f"job {job.job_id} ({job.spec.name}): {job.state.value}"
              f"{' - ' + job.reason if job.reason else ''}")
    return 1 if failed else 0


# -- workflows: checkpointed DAG pipelines ------------------------------
def _build_workflows_parser(sub) -> None:
    p = sub.add_parser(
        "workflows",
        help="run a checkpointed DAG pipeline through the cluster",
        description="Build a named DAG pipeline (repro.workflows), run "
                    "it through a simulated cluster with per-stage "
                    "checkpoint/restart, and print the round-by-round "
                    "recovery report.  With --checkpoint-interval 0 "
                    "checkpointing is off and any fault forces a full "
                    "pipeline replay.")
    p.add_argument("--pipeline", default="diamond",
                   choices=("diamond", "deep-chain"),
                   help="pipeline shape to build")
    p.add_argument("--depth", type=int, default=6,
                   help="stage count for --pipeline deep-chain")
    p.add_argument("--runtime", type=float, default=64.0,
                   help="base stage runtime in virtual seconds")
    p.add_argument("--preset", default="small_test", choices=_PRESETS,
                   help="cluster preset to build")
    p.add_argument("--nodes", type=int, default=0,
                   help="override the preset's node count")
    _add_scheduler_option(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=8,
                   help="resubmission rounds before giving up")
    _add_checkpoint_options(p)
    _add_fault_options(p, with_profile=True)
    p.set_defaults(func=_cmd_workflows)


def _cmd_workflows(args) -> int:
    from repro.workflows import (
        PipelineConfig, PipelineEngine, deep_chain, diamond,
    )
    if args.pipeline == "diamond":
        pipeline = diamond(runtime=args.runtime)
    else:
        pipeline = deep_chain(args.depth, runtime=args.runtime)
    handle = _build_preset(args)
    injector = None
    profile = args.fault_profile or handle.spec.fault_profile
    if args.faults or profile:
        from repro.faults import FaultInjector, fault_profile, load_plan
        if args.faults:
            plan = load_plan(args.faults)
        else:
            horizon = max(300.0, 4 * pipeline.total_runtime)
            plan = fault_profile(profile, horizon=horizon,
                                 nodes=handle.node_names,
                                 seed=args.seed)
        injector = FaultInjector(handle, plan)
        handle.ctld.config.requeue_on_failure = True
        injector.start()
    engine = PipelineEngine(
        handle, pipeline,
        PipelineConfig(checkpoint_interval=args.checkpoint_interval,
                       checkpoint_bytes=args.checkpoint_bytes,
                       max_rounds=args.max_rounds))
    report = engine.run()
    if injector is not None:
        injector.stop()
        done = {s for rnd in report.rounds for s in rnd.completed}
        stats = injector.finalize(completed_jobs=len(done),
                                  total_jobs=report.n_stages)
        print(render_table(("metric", "value"), stats.rows(),
                           title="resilience"))
    print(report.to_text())
    return 0 if report.completed else 1


# -- sweep: sharded parallel sweeps via the fleet runner ----------------
def _build_sweep_parser(sub) -> None:
    p = sub.add_parser(
        "sweep",
        help="fan a sweep matrix out over worker processes",
        description="Expand a declarative sweep matrix (cartesian "
                    "product of --axis values) into per-run specs with "
                    "deterministic per-shard seeding, execute them "
                    "through the fleet dispatcher, and print the "
                    "merged cross-run report.  Known axes: policy, "
                    "fault_profile, workload, preset, nodes, seed; "
                    "prefix arbitrary overrides with spec. / "
                    "workload. / replay. (e.g. --axis "
                    "spec.urd_workers=4,8).")
    p.add_argument("--axis", action="append", default=[],
                   metavar="NAME=V1,V2,...",
                   help="one sweep axis (repeatable)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = in-process serial)")
    p.add_argument("--out", metavar="DIR", default="",
                   help="write per-run artifact directories under DIR")
    p.add_argument("--resume", action="store_true",
                   help="skip runs already COMPLETE under --out")
    p.add_argument("--preset", default="replay_scale", choices=_PRESETS,
                   help="cluster preset each run builds")
    p.add_argument("--nodes", type=int, default=8,
                   help="node count per run (a nodes axis overrides)")
    p.add_argument("--jobs", type=int, default=80,
                   help="synthesized jobs per run")
    p.add_argument("--workload", default="",
                   help="base workload preset (see repro.experiments"
                        ".fleet.WORKLOAD_PRESETS)")
    p.add_argument("--seed", type=int, default=0,
                   help="sweep seed feeding per-shard derivation")
    p.add_argument("--compression", type=float, default=1.0,
                   help="time-compression factor on arrivals")
    p.add_argument("--timeout", type=float, default=0.0,
                   help="per-run wall-clock budget in seconds "
                        "(0 = none)")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget per run on worker crash/timeout")
    p.add_argument("--perf", action="store_true",
                   help="append each run's event-kernel counter table")
    p.add_argument("--obs", action="store_true",
                   help="record repro.obs spans in every run (span/"
                        "metric JSONL streams land in --out artifact "
                        "directories)")
    p.set_defaults(func=_cmd_sweep)


def _cmd_sweep(args) -> int:
    from repro.experiments.fleet import (
        WORKLOAD_PRESETS, FleetRunner, SweepMatrix, make_dispatcher,
        parse_axis,
    )
    if not args.axis:
        raise SystemExit("sweep needs at least one --axis")
    axes = {}
    for arg in args.axis:
        name, values = parse_axis(arg)
        if name in axes:
            raise SystemExit(f"duplicate --axis {name!r}")
        axes[name] = values
    workload = {"n_jobs": args.jobs}
    if args.workload:
        if args.workload not in WORKLOAD_PRESETS:
            raise SystemExit(
                f"unknown --workload {args.workload!r} (known: "
                f"{', '.join(sorted(WORKLOAD_PRESETS))})")
        workload.update(WORKLOAD_PRESETS[args.workload])
        workload["n_jobs"] = args.jobs
    replay = {}
    if args.compression != 1.0:
        replay["time_compression"] = args.compression
    try:
        matrix = SweepMatrix.from_axes(
            axes, sweep_seed=args.seed, name="cli-sweep",
            preset=args.preset, n_nodes=args.nodes,
            workload=workload, replay=replay, obs=args.obs)
        runner = FleetRunner(
            matrix,
            dispatcher=make_dispatcher(
                workers=args.workers,
                timeout=args.timeout or None,
                retries=args.retries),
            out_dir=args.out or None, resume=args.resume)
        report = runner.run()
    except ReproError as exc:
        raise SystemExit(f"sweep failed: {exc}")
    if runner.resumed:
        print(f"resumed {len(runner.resumed)} completed run(s) from "
              f"{args.out}")
    print(report.to_text())
    if args.perf:
        from repro.obs import MetricsRegistry, collect_kernel_stats
        for result in report.results:
            kernel = result.runstats.get("kernel")
            if not kernel:
                continue
            reg = MetricsRegistry()
            collect_kernel_stats(reg, kernel)
            print(render_table(("counter", "value"),
                               reg.rows(prefix="kernel."),
                               title=f"event kernel: {result.run_id}"))
    if args.out:
        print(f"artifacts under {args.out}/runs/ "
              f"(merged report: {args.out}/fleet_report.txt)")
    return 0


# -- policies: registry listing -----------------------------------------
def _build_policies_parser(sub) -> None:
    p = sub.add_parser(
        "policies",
        help="list the registered scheduling policies",
        description="Show every policy in the repro.slurm.policies "
                    "registry (usable with --scheduler, cluster preset "
                    "scheduler_policy and SlurmConfig.policy).")
    p.set_defaults(func=_cmd_policies)


def _cmd_policies(_args) -> int:
    rows = [(name, summary) for name, summary in available_policies()]
    print(render_table(("POLICY", "DESCRIPTION"), rows,
                       title="scheduling policies"))
    return 0


# -- faults: profile listing / plan emission / plan inspection ----------
def _build_faults_parser(sub) -> None:
    p = sub.add_parser(
        "faults",
        help="fault profiles: list, emit a plan file, describe a plan",
        description="Without options, list the registered fault "
                    "profiles (repro.faults).  --emit PROFILE writes a "
                    "seeded JSONL fault plan usable with 'replay "
                    "--faults' / 'run --faults'; --show FILE renders "
                    "an existing plan.")
    p.add_argument("--emit", metavar="PROFILE", default="",
                   help="generate a plan from this profile")
    p.add_argument("--out", metavar="FILE", default="",
                   help="plan file to write (with --emit)")
    p.add_argument("--horizon", type=float, default=3600.0,
                   help="profile horizon in virtual seconds")
    p.add_argument("--nodes", type=int, default=4,
                   help="node count the plan targets (cn0..cnN-1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--show", metavar="FILE", default="",
                   help="describe an existing JSONL plan file")
    p.set_defaults(func=_cmd_faults)


def _render_plan(plan) -> str:
    rows = [(f"{r.time:g}", r.kind, r.target, f"{r.duration:g}",
             f"{r.magnitude:g}", r.device or "-", r.note or "-")
            for r in plan.sorted_records()]
    return render_table(
        ("T+S", "KIND", "NODE", "DURATION", "MAGNITUDE", "DEVICE",
         "NOTE"), rows,
        title=f"fault plan {plan.name!r} ({plan.n_faults} records, "
              f"horizon {plan.horizon:g}s)")


def _cmd_faults(args) -> int:
    from repro.faults import (
        available_profiles, dump_plan, fault_profile, load_plan,
    )
    if args.show:
        print(_render_plan(load_plan(args.show)))
        return 0
    if args.emit:
        nodes = [f"cn{i}" for i in range(args.nodes)]
        plan = fault_profile(args.emit, horizon=args.horizon,
                             nodes=nodes, seed=args.seed)
        print(_render_plan(plan))
        if args.out:
            dump_plan(plan, args.out)
            print(f"wrote {plan.n_faults} records to {args.out}")
        return 0
    rows = list(available_profiles())
    print(render_table(("PROFILE", "DESCRIPTION"), rows,
                       title="fault profiles"))
    return 0


# -- shared helpers ------------------------------------------------------
def _add_checkpoint_options(p) -> None:
    p.add_argument("--checkpoint-interval", type=float, default=0.0,
                   metavar="SECONDS",
                   help="checkpoint epoch length in virtual seconds "
                        "(0 = no checkpointing; requeued work then "
                        "recomputes from scratch)")
    p.add_argument("--checkpoint-bytes", type=int, default=0,
                   metavar="BYTES",
                   help="PFS payload written per checkpoint epoch "
                        "(0 = markers only, zero data cost)")


def _add_fault_options(p, with_profile: bool) -> None:
    p.add_argument("--faults", metavar="PLAN", default="",
                   help="JSONL fault plan to inject (see the 'faults' "
                        "subcommand)")
    if with_profile:
        from repro.faults import available_profiles
        names = [name for name, _ in available_profiles()]
        p.add_argument("--fault-profile", default="",
                       choices=[""] + names, metavar="PROFILE",
                       help="generate the plan from a named profile "
                            f"instead (one of: {', '.join(names)}); "
                            "default: the preset's fault_profile")


def _resolve_fault_plan(args, handle, trace):
    """--faults file wins; else an explicit or preset fault profile."""
    from repro.faults import fault_profile, load_plan
    if args.faults:
        return load_plan(args.faults)
    profile = args.fault_profile or handle.spec.fault_profile
    if not profile:
        return None
    horizon = max(60.0, trace.duration / args.compression)
    return fault_profile(profile, horizon=horizon,
                         nodes=handle.node_names, seed=args.seed)


def _add_scheduler_option(p) -> None:
    names = [name for name, _ in available_policies()]
    p.add_argument("--scheduler", default="", choices=[""] + names,
                   metavar="POLICY",
                   help="scheduling policy (see the 'policies' "
                        f"subcommand; one of: {', '.join(names)}); "
                        "default: the preset's policy")


def _build_preset(args):
    from repro.cluster import build, nextgenio, replay_scale, small_test

    presets = {"replay_scale": replay_scale, "nextgenio": nextgenio,
               "small_test": small_test}
    preset = presets[args.preset]
    kwargs = {}
    if args.nodes:
        kwargs["n_nodes"] = args.nodes
    if getattr(args, "scheduler", "") and \
            args.command not in ("replay", "trace", "top"):
        # the replay-family commands apply --scheduler through
        # ReplayConfig instead, so the report labels itself with the
        # chosen policy.
        kwargs["scheduler"] = args.scheduler
    spec = preset(**kwargs)
    return build(spec, seed=args.seed)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-slurm",
        description="Command-line front end for the simulated Slurm "
                    "stack.")
    sub = parser.add_subparsers(dest="command", required=True)
    _build_replay_parser(sub)
    _build_trace_parser(sub)
    _build_top_parser(sub)
    _build_run_parser(sub)
    _build_workflows_parser(sub)
    _build_sweep_parser(sub)
    _build_policies_parser(sub)
    _build_faults_parser(sub)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, UnicodeDecodeError) as exc:
        # Bad input (a malformed trace, fault plan or batch script, a
        # missing or unreadable file) is the user's to fix: one line,
        # no traceback.
        print(f"repro-slurm: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":   # pragma: no cover - exercised via main()
    raise SystemExit(main())
