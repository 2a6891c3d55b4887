"""Command-line interface: run experiments without writing Python.

Usage examples::

    python -m repro run --nx 64 --ny 32 -n 8192 -p 16 \
        --distribution irregular --policy dynamic --iterations 200
    python -m repro run --case fig20 --policy periodic:25
    python -m repro run --iterations 100 \
        --checkpoint-every 25 --checkpoint-path run.ckpt.npz
    python -m repro resume run.ckpt.npz --iterations 100
    python -m repro run --iterations 100 --trace run.trace.json --metrics run.jsonl
    python -m repro run --iterations 100 --profile prof/ --prom-dir metrics/
    python -m repro report run.jsonl --trace run.trace.json
    python -m repro report --batch obs/
    python -m repro paper --check
    python -m repro paper --scale 0.1
    python -m repro scenarios
    python -m repro schemes
    python -m repro policies
    python -m repro bench run --output BENCH_smoke.json
    python -m repro bench compare BENCH_baseline.json BENCH_smoke.json
    python -m repro submit jobs.json --jobs 4 --retries 2 --cache .repro-cache
    python -m repro submit jobs.json --obs-dir obs/ --prom-dir metrics/
    python -m repro top obs/service.jsonl
    python -m repro jobs batch_report.json --stream obs/service.jsonl

Exit codes: 0 success, 1 failure; ``124`` means a ``--timeout``
wall-clock watchdog expired (coreutils ``timeout(1)`` convention) — for
``repro run``/``resume`` the final checkpoint was still written when
checkpointing was configured, so the run can be resumed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from repro.analysis import format_table
from repro.indexing import available_schemes
from repro.pic import Simulation, SimulationConfig, SimulationResult, config_from_dict
from repro.util.errors import TelemetrySchemaError
from repro.workloads import FIG16_CASES, FIG17_CASE, FIG20_CASE, TABLE2_CASES
from repro.workloads.scenarios import PaperCase

__all__ = ["main", "build_parser", "EXIT_TIMEOUT"]

#: Exit code when a --timeout watchdog expired (coreutils convention).
EXIT_TIMEOUT = 124


def _all_cases() -> dict[str, PaperCase]:
    cases: dict[str, PaperCase] = {"fig17": FIG17_CASE, "fig20": FIG20_CASE}
    for case in FIG16_CASES + TABLE2_CASES:
        cases[case.name] = case
    return cases


class _Given(argparse.Action):
    """``store`` that notes the flag in ``args.given``: it wins over ``--case`` and ``--config``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given |= {self.dest}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel-PIC reproduction of Liao/Ou/Ranka (IPPS 1996)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options `run` and `resume` share: execution, faults, outputs, observation
    drive = argparse.ArgumentParser(add_help=False)
    drive.add_argument("--workers", default="0", metavar="N|auto",
                       help="shard threads for the particle kernels; 'auto' uses "
                            "the available cores; results are bit-identical for "
                            "every worker count, and checkpoints never record it")
    drive.add_argument("--fault-plan", metavar="FILE.json",
                       help="inject machine faults from a FaultPlan JSON file "
                            "(see examples/faults.json); rank kills recover automatically")
    drive.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON summary")
    drive.add_argument("--save-json", metavar="PATH",
                       help="write the full result (summary + per-iteration series) to PATH")
    drive.add_argument("--checkpoint-every", type=int, metavar="K",
                       help="write an exact-resume checkpoint after every K iterations")
    drive.add_argument("--checkpoint-path", metavar="PATH",
                       help="checkpoint file (.npz) written by --checkpoint-every "
                            "(resume: default the resume source)")
    drive.add_argument("--trace", metavar="PATH",
                       help="write a Perfetto/Chrome trace JSON of every "
                            "(iteration, phase, rank) span on the virtual clocks")
    drive.add_argument("--metrics", metavar="PATH",
                       help="write per-iteration metrics JSONL (load imbalance, "
                            "comm tallies, SAR decisions, events)")
    drive.add_argument("--profile", metavar="DIR",
                       help="deterministic kernel profiling: write collapsed-stack "
                            "flamegraph files (.folded) of the hot-path sections "
                            "to DIR; results stay bit-identical")
    drive.add_argument("--prom-dir", metavar="DIR",
                       help="write a Prometheus textfile-collector snapshot "
                            "(repro-run.prom) of the run's telemetry aggregates to DIR")
    drive.add_argument("--timeout", type=float, metavar="S", default=None,
                       help="wall-clock watchdog: stop after S seconds (at an "
                            "iteration boundary), write a final checkpoint if "
                            "checkpointing is on, and exit with code 124")

    # every configuration flag's dest is its SimulationConfig field name,
    # and each flag given is noted in args.given (_Given)
    run = sub.add_parser(
        "run", help="run one simulation", parents=[drive],
        description="Each setting comes from the last of: the defaults, --case, "
                    "--config, then the flags given on the command line.",
    )  # fmt: skip
    run.register("action", None, _Given)  # the action of a flag that names none
    run.set_defaults(given=frozenset())
    run.add_argument("--config", help="JSON file of SimulationConfig fields (overridden by flags)")
    run.add_argument("--case", help="start from a named paper case (see `scenarios`)")
    run.add_argument("--nx", type=int, default=64)
    run.add_argument("--ny", type=int, default=32)
    run.add_argument("-n", "--particles", dest="nparticles", type=int, default=8192)
    run.add_argument("-p", "--processors", dest="p", type=int, default=16)
    run.add_argument("--distribution", default="irregular",
                     choices=["uniform", "irregular", "two_stream", "ring"])
    run.add_argument("--scheme", default="hilbert")
    run.add_argument("--policy", default="dynamic",
                     help="redistribution policy spec, e.g. static | dynamic | "
                          "periodic:<k> | sar-ewma | costmodel:horizon=50 | "
                          "imbalance:threshold=1.4 | planner "
                          "(see `repro policies` for the registry)")
    run.add_argument("--movement", default="lagrangian",
                     choices=["lagrangian", "eulerian"])
    run.add_argument("--partitioning", default="independent",
                     choices=["independent", "grid", "particle", "adaptive"])
    run.add_argument("--ghost-table", default="hash", choices=["hash", "direct"])
    run.add_argument("--iterations", type=int, default=200)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--vth", type=float, default=0.05)
    run.add_argument("--field-solver", default="maxwell", choices=["maxwell", "electrostatic"])
    run.add_argument("--kernel", default="era", choices=["era", "modern"],
                     help="era = paper's CIC + collocated FDTD; modern = Yee + zigzag")
    run.add_argument("--guards", default="off", choices=["off", "warn", "strict"],
                     help="invariant guards: warn reports conservation/finiteness "
                          "violations, strict raises SimulationIntegrityError")

    resume = sub.add_parser(
        "resume", help="resume a checkpointed run exactly where it left off", parents=[drive]
    )
    resume.add_argument("path", help="checkpoint file written by `repro run --checkpoint-every`")
    resume.add_argument("--iterations", type=int, required=True,
                        help="number of further iterations to run")
    resume.add_argument("--guards", default=None, choices=["off", "warn", "strict"],
                        help="override the checkpointed guard severity")

    submit = sub.add_parser(
        "submit",
        help="run a batch of jobs under the fault-tolerant scheduler",
    )
    submit.add_argument("file",
                        help="job file: a JSON list of jobs, {'jobs': [...]}, or "
                             "a {'base': ..., 'sweep': {...}} sweep (see EXPERIMENTS.md)")
    submit.add_argument("--jobs", type=int, default=2, metavar="N",
                        help="concurrent worker processes (default 2)")
    submit.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-job wall-clock deadline; expired attempts are "
                             "killed and retried from their last checkpoint")
    submit.add_argument("--retries", type=int, default=2, metavar="K",
                        help="retry budget per job (default 2; attempts = K+1)")
    submit.add_argument("--cache", default=".repro-cache", metavar="DIR",
                        help="content-addressed result cache root "
                             "(default .repro-cache); repeat submissions are "
                             "served bit-identically from here")
    submit.add_argument("--no-cache", action="store_true",
                        help="always recompute; do not read or write the cache")
    submit.add_argument("--max-failures", type=int, default=0, metavar="M",
                        help="circuit breaker: after M distinct job failures, "
                             "cancel the rest of the batch (0 = off)")
    submit.add_argument("--heartbeat-timeout", type=float, default=60.0, metavar="S",
                        help="kill a worker silent for S seconds (default 60)")
    submit.add_argument("--checkpoint-every", type=int, default=2, metavar="K",
                        help="worker checkpoint cadence in iterations (default 2); "
                             "retries resume from the last checkpoint")
    submit.add_argument("--workdir", default=None, metavar="DIR",
                        help="scratch dir for in-progress checkpoints "
                             "(default <cache>/work; with --no-cache, a "
                             "private temp dir removed after the batch)")
    submit.add_argument("--report", default=None, metavar="PATH",
                        help="write the batch report JSON (repro-batch/1) to PATH")
    submit.add_argument("--metrics", default=None, metavar="PATH",
                        help="write scheduler telemetry JSONL (repro-service/2)")
    submit.add_argument("--obs-dir", default=None, metavar="DIR",
                        help="observability directory: stream service.jsonl live "
                             "(tail it with `repro top`) and save each job's "
                             "metrics + trace files there, all stamped with the "
                             "batch correlation identity")
    submit.add_argument("--prom-dir", default=None, metavar="DIR",
                        help="write Prometheus textfile snapshots "
                             "(repro-batch.prom) of the batch registry to DIR, "
                             "refreshed on every scheduler tick")
    submit.add_argument("--json", action="store_true",
                        help="print the batch report JSON to stdout")

    jobs_p = sub.add_parser(
        "jobs", help="render the status table of a saved batch report"
    )
    jobs_p.add_argument("report", help="batch report JSON written by `submit --report`")
    jobs_p.add_argument("--stream", metavar="PATH",
                        help="service.jsonl of the batch (written by "
                             "`submit --obs-dir`); sources the attempts and "
                             "cache columns from the event stream")
    jobs_p.add_argument("--watch", action="store_true",
                        help="with --stream: follow the live stream like "
                             "`repro top` until the batch finishes")

    top = sub.add_parser(
        "top", help="live view of a running batch (tails its service.jsonl)"
    )
    top.add_argument("stream",
                     help="service.jsonl streamed by `submit --obs-dir DIR` "
                          "(DIR/service.jsonl)")
    top.add_argument("--interval", type=float, default=0.5, metavar="S",
                     help="refresh interval in seconds (default 0.5)")
    top.add_argument("--once", action="store_true",
                     help="render the current state once and exit (CI mode)")
    top.add_argument("--timeout", type=float, default=None, metavar="S",
                     help="give up after S seconds even if the batch is still "
                          "running")

    report = sub.add_parser(
        "report",
        help="render a telemetry report from metrics JSONL (and optionally a trace)",
    )
    report.add_argument("metrics", nargs="*",
                        help="metrics JSONL file(s) written by `run --metrics`; "
                             "two or more adds a side-by-side comparison")
    report.add_argument("--trace", metavar="PATH",
                        help="trace JSON written by `run --trace` (cross-checked "
                             "against the first metrics file)")
    report.add_argument("--batch", metavar="DIR",
                        help="aggregate a batch obs directory (`submit "
                             "--obs-dir`) instead: join the service stream with "
                             "every job's metrics and render the rollup")
    report.add_argument("--json", action="store_true",
                        help="with --batch: print the rollup document as JSON")

    paper = sub.add_parser(
        "paper",
        help="reproduce every table and figure of the paper through the job service",
    )
    paper.add_argument("--scale", type=float, default=1.0, metavar="S",
                       help="iteration scale (default 1, the paper's lengths); at "
                            "any other scale the tables are printed, not written")
    paper.add_argument("--check", action="store_true",
                       help="diff the tables against the doc instead of writing "
                            "them; exit 1 naming every stale table")
    paper.add_argument("--doc", default="EXPERIMENTS.md", metavar="PATH",
                       help="document holding the generated blocks (default EXPERIMENTS.md)")
    paper.add_argument("--cache", default=".repro-cache", metavar="DIR",
                       help="result cache of the batch (default .repro-cache)")

    sub.add_parser("scenarios", help="list the paper's experiment configurations")
    sub.add_parser("schemes", help="list registered indexing schemes")
    sub.add_parser(
        "policies",
        help="list the registered redistribution policies and their spec parameters",
    )

    verify = sub.add_parser(
        "verify",
        help="check that the parallel code matches the sequential reference",
    )
    verify.add_argument("-p", "--processors", type=int, default=4)
    verify.add_argument("--iterations", type=int, default=10)
    verify.add_argument("--scheme", default="hilbert")
    verify.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench", help="virtual-time tripwire: vm_seconds / op_counts per case (repro.bench)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    brun = bench_sub.add_parser(
        "run", help="run every case once and write its vm_seconds / op_counts"
    )
    brun.add_argument("--output", metavar="PATH", default="BENCH_smoke.json",
                      help="trajectory file path (default BENCH_smoke.json)")

    bcmp = bench_sub.add_parser(
        "compare", help="diff two trajectory files; exit 1 on any vm_seconds / "
                        "op_counts difference or a baseline case missing from NEW"
    )
    bcmp.add_argument("old", help="baseline BENCH_*.json")
    bcmp.add_argument("new", help="candidate BENCH_*.json")
    bcmp.add_argument("--json", action="store_true",
                      help="print the machine-readable diff")
    return parser


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    """The flags' defaults, then ``--case``, then ``--config``, then every
    flag given on the command line."""
    names = [f.name for f in fields(SimulationConfig) if hasattr(args, f.name)]
    kwargs = {name: getattr(args, name) for name in names}
    if args.case:
        cases = _all_cases()
        if args.case not in cases:
            known = ", ".join(sorted(cases))
            raise SystemExit(f"unknown case {args.case!r}; known cases: {known}")
        kwargs.update(cases[args.case].config_kwargs())
    if args.config:
        from pathlib import Path

        try:
            loaded = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise SystemExit(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise SystemExit(f"config file {args.config} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise SystemExit(f"config file {args.config} must contain a JSON object")
        # Every SimulationConfig field is a valid config key — including
        # density / dt / nbuckets, which have no CLI flag — plus "model"
        # as a preset name or full constants dict; config_from_dict
        # below checks the keys and resolves the model.
        kwargs.update(loaded)
    kwargs.update({name: getattr(args, name) for name in names if name in args.given})
    try:
        return config_from_dict(kwargs)
    except ValueError as exc:
        where = f" ({args.config} + flags)" if args.config else ""
        raise SystemExit(f"bad config{where}: {exc}") from exc


def _summary_dict(result: SimulationResult) -> dict:
    return {
        "iterations": len(result.records),
        "total_time": result.total_time,
        "computation_time": result.computation_time,
        "overhead": result.overhead,
        "n_redistributions": result.n_redistributions,
        "redistribution_time": result.redistribution_time,
        "n_recoveries": result.n_recoveries,
        "recovery_time": result.recovery_time,
        "phase_breakdown": result.phase_breakdown,
        "mean_iteration_time": float(np.mean(result.iteration_times))
        if result.records
        else 0.0,
    }


def _load_fault_plan(path: str | None):
    """Load ``--fault-plan`` JSON into a FaultPlan (or None)."""
    if path is None:
        return None
    from repro.machine.faults import FaultPlan

    try:
        return FaultPlan.from_json(path)
    except FileNotFoundError:
        raise SystemExit(f"fault plan file not found: {path}")
    except ValueError as exc:
        raise SystemExit(f"bad fault plan: {exc}")


def _checkpoint_args(args: argparse.Namespace, default_path=None):
    every = args.checkpoint_every
    path = args.checkpoint_path or default_path
    if every is not None and every < 1:
        raise SystemExit(f"--checkpoint-every must be >= 1, got {every}")
    if every is not None and path is None:
        raise SystemExit("--checkpoint-every requires --checkpoint-path")
    return every, path


def _emit_result(args: argparse.Namespace, result, title: str) -> int:
    if args.save_json:
        result.save_json(args.save_json)
    summary = _summary_dict(result)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        rows = [[k, v] for k, v in summary.items() if not isinstance(v, dict)]
        print(format_table(["quantity", "value"], rows, title=title))
        print()
        for phase, seconds in sorted(summary["phase_breakdown"].items()):
            print(f"  {phase:<15s} {seconds:10.4f} s")
    return 0


def _save_telemetry(sim: Simulation, args: argparse.Namespace) -> None:
    """Write the observability artifacts requested on the command line."""
    if sim.telemetry is not None:
        if args.trace:
            path = sim.telemetry.save_trace(args.trace)
            print(f"[trace written to {path}]", file=sys.stderr)
        if args.metrics:
            path = sim.telemetry.save_metrics(args.metrics)
            print(f"[metrics written to {path}]", file=sys.stderr)
        if args.prom_dir:
            from repro.obs.prom import write_prom_snapshot

            path = write_prom_snapshot(
                args.prom_dir, sim.telemetry.aggregates(), name="repro-run.prom"
            )
            print(f"[prometheus snapshot written to {path}]", file=sys.stderr)
    if args.profile and sim.profiler is not None:
        paths = sim.save_profile(args.profile)
        print(
            f"[{len(paths)} flamegraph file(s) written to {args.profile}]",
            file=sys.stderr,
        )


def _workers_arg(args: argparse.Namespace) -> str | int:
    """Validate ``--workers`` early so errors surface as usage errors."""
    from repro.parallel_exec import resolve_workers

    try:
        resolve_workers(args.workers)
    except ValueError as exc:
        raise SystemExit(f"--workers: {exc}")
    return args.workers


def _timeout_arg(args: argparse.Namespace) -> float | None:
    if args.timeout is not None and args.timeout <= 0:
        raise SystemExit(f"--timeout must be > 0 seconds, got {args.timeout}")
    return args.timeout


def _drive(args: argparse.Namespace, make_sim, title, default_checkpoint=None) -> int:
    """The body `run` and `resume` share.

    Validates the fault plan and checkpoint flags, builds the simulation
    with ``make_sim()``, installs faults, turns on the observation asked
    for, runs under the watchdog, saves the artifacts and emits the
    result under ``title(sim)``.  A watchdog expiry saves what there is
    and exits with code 124.
    """
    from repro.util.errors import JobTimeout

    plan = _load_fault_plan(args.fault_plan)
    every, ck_path = _checkpoint_args(args, default_path=default_checkpoint)
    with make_sim() as sim:
        if plan is not None:
            sim.install_faults(plan)
        if args.trace or args.metrics or args.prom_dir:
            sim.enable_telemetry()
        if args.profile:
            sim.enable_profiling()
        try:
            result = sim.run(
                args.iterations,
                checkpoint_every=every,
                checkpoint_path=ck_path,
                walltime=_timeout_arg(args),
            )
        except JobTimeout as exc:
            _save_telemetry(sim, args)
            ck = " (final checkpoint written)" if args.checkpoint_every else ""
            print(f"[timeout] {exc}{ck}", file=sys.stderr)
            return EXIT_TIMEOUT
        _save_telemetry(sim, args)
    return _emit_result(args, result, title(sim))


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    return _drive(
        args,
        lambda: Simulation(config, workers=_workers_arg(args)),
        lambda sim: f"{args.iterations} iterations, p={config.p}",
    )


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.pic.checkpoint import CheckpointError

    if args.iterations < 0:
        raise SystemExit(f"--iterations must be >= 0, got {args.iterations}")

    def restore() -> Simulation:
        try:
            return Simulation.from_checkpoint(
                args.path, guards=args.guards, workers=_workers_arg(args)
            )
        except FileNotFoundError as exc:
            raise SystemExit(str(exc))
        except CheckpointError as exc:
            raise SystemExit(f"cannot resume: {exc}")

    return _drive(
        args,
        restore,
        lambda sim: (
            f"resumed +{args.iterations} iterations (total {sim.iteration}), p={sim.config.p}"
        ),
        default_checkpoint=args.path,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import Scheduler, load_jobs, render_report

    try:
        jobs = load_jobs(args.file)
    except FileNotFoundError:
        raise SystemExit(f"job file not found: {args.file}")
    except ValueError as exc:
        raise SystemExit(f"bad job file: {exc}")
    if not jobs:
        raise SystemExit(f"job file {args.file} contains no jobs")
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.retries < 0:
        raise SystemExit(f"--retries must be >= 0, got {args.retries}")
    _timeout_arg(args)
    if args.max_failures < 0:
        raise SystemExit(f"--max-failures must be >= 0, got {args.max_failures}")
    if args.checkpoint_every < 1:
        raise SystemExit(f"--checkpoint-every must be >= 1, got {args.checkpoint_every}")

    def progress(text: str) -> None:
        print(f"[submit] {text}", file=sys.stderr, flush=True)

    scheduler = Scheduler(
        workers=args.jobs,
        cache=None if args.no_cache else args.cache,
        workdir=args.workdir,
        timeout=args.timeout,
        heartbeat_timeout=args.heartbeat_timeout,
        retries=args.retries,
        max_failures=args.max_failures,
        checkpoint_every=args.checkpoint_every,
        progress=progress,
        obs_dir=args.obs_dir,
        prom_dir=args.prom_dir,
    )
    report = scheduler.run(jobs)
    if args.report:
        from repro.util.atomic_io import atomic_write_json

        path = atomic_write_json(args.report, report)
        print(f"[report written to {path}]", file=sys.stderr)
    if args.metrics:
        path = scheduler.telemetry.save(args.metrics)
        print(f"[metrics written to {path}]", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
    return 0 if report["ok"] else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service import render_report

    if args.watch and not args.stream:
        raise SystemExit("--watch requires --stream")
    try:
        report = json.loads(Path(args.report).read_text())
    except FileNotFoundError:
        raise SystemExit(f"batch report not found: {args.report}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"batch report {args.report} is not valid JSON: {exc}")
    events = None
    if args.stream:
        from repro.obs.top import top_loop
        from repro.telemetry.stream import read_jsonl

        if not Path(args.stream).exists():
            raise SystemExit(f"service stream not found: {args.stream}")
        try:
            if args.watch:
                top_loop(args.stream)
            events, _ = read_jsonl(args.stream, partial=True)
        except TelemetrySchemaError as exc:
            raise SystemExit(f"bad service stream: {exc}")
    try:
        print(render_report(report, events=events))
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"bad batch report: {exc}")
    return 0 if report.get("ok") else 1


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import top_loop

    if args.interval <= 0:
        raise SystemExit(f"--interval must be > 0 seconds, got {args.interval}")
    _timeout_arg(args)
    try:
        view = top_loop(
            args.stream,
            interval=args.interval,
            once=args.once,
            timeout=args.timeout,
        )
    except TelemetrySchemaError as exc:
        raise SystemExit(f"bad service stream: {exc}")
    return 0 if (view.finished or args.once) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.telemetry import report_from_files

    if args.batch:
        from repro.obs.batch import aggregate_batch, render_batch_rollup

        try:
            rollup = aggregate_batch(args.batch)
        except FileNotFoundError as exc:
            raise SystemExit(f"batch file not found: {exc.filename or exc}")
        except TelemetrySchemaError as exc:
            raise SystemExit(f"bad batch directory: {exc}")
        if args.json:
            print(json.dumps(rollup, indent=2))
        else:
            print(render_batch_rollup(rollup))
        if rollup["correlation"]["orphans"]:
            return 1
        if not args.metrics:
            return 0
    elif not args.metrics:
        raise SystemExit("give metrics JSONL file(s) or --batch DIR")
    try:
        print(report_from_files(args.metrics, trace_path=args.trace))
    except FileNotFoundError as exc:
        raise SystemExit(f"telemetry file not found: {exc.filename or exc}")
    except TelemetrySchemaError as exc:
        raise SystemExit(f"bad telemetry file: {exc}")
    return 0


def _cmd_scenarios() -> int:
    rows = [
        [name, f"{c.nx}x{c.ny}", c.nparticles, c.p, c.distribution, c.iterations]
        for name, c in sorted(_all_cases().items())
    ]
    print(format_table(
        ["name", "mesh", "particles", "p", "distribution", "iterations"],
        rows,
        title="Paper experiment configurations",
    ))
    return 0


def _cmd_schemes() -> int:
    for name in available_schemes():
        print(name)
    return 0


def _cmd_policies() -> int:
    from repro.core.policies import available_policies, policy_entry

    rows = []
    for name in available_policies():
        cls = policy_entry(name)
        if cls.PARAMS:
            params = ", ".join(
                f"{p}" + ("" if param.required else f"={param.fmt(param.default)}")
                for p, param in cls.PARAMS.items()
            )
        else:
            params = "-"
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        rows.append([name, cls.__name__, params, doc])
    print(format_table(
        ["spec", "class", "parameters", "description"],
        rows,
        title="registered redistribution policies",
    ))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Run parallel vs sequential on a small problem and compare."""
    from repro.core import ParticlePartitioner
    from repro.machine import VirtualMachine
    from repro.mesh import CurveBlockDecomposition, Grid2D
    from repro.particles import gaussian_blob
    from repro.pic import ParallelPIC, SequentialPIC

    grid = Grid2D(32, 16)
    particles = gaussian_blob(grid, 2048, rng=args.seed)
    vm = VirtualMachine(args.processors)
    decomp = CurveBlockDecomposition(grid, args.processors, args.scheme)
    local = ParticlePartitioner(grid, args.scheme).initial_partition(
        particles, args.processors
    )
    par = ParallelPIC(vm, grid, decomp, local)
    seq = SequentialPIC(grid, particles.copy(), dt=par.dt)
    for _ in range(args.iterations):
        par.step()
        seq.step()
    a = par.all_particles()
    oa = np.argsort(a.ids)
    ob = np.argsort(seq.particles.ids)
    dx = float(np.abs(a.x[oa] - seq.particles.x[ob]).max()) if a.n else 0.0
    dez = float(np.abs(par.fields.ez - seq.fields.ez).max())
    ok = dx < 1e-9 and dez < 1e-9
    print(f"max |x_par - x_seq|  = {dx:.3e}")
    print(f"max |Ez_par - Ez_seq| = {dez:.3e}")
    print("VERIFY OK" if ok else "VERIFY FAILED")
    return 0 if ok else 1


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import CASES, run_cases

    def progress(name: str) -> None:
        print(f"[bench] {name} ...", file=sys.stderr, flush=True)

    trajectory = run_cases(CASES, progress=progress)
    path = trajectory.save(args.output)
    rows = [[name, f"{obs.vm_seconds:.6f}", f"{sum(obs.op_counts.values()):.6g}"]
            for name, obs in trajectory.cases.items()]  # fmt: skip
    print(format_table(["case", "vm (s)", "ops"], rows, title=f"bench ({len(rows)} cases)"))
    print(f"[written to {path}]", file=sys.stderr)
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import compare_files

    try:
        comparison = compare_files(args.old, args.new)
    except FileNotFoundError as exc:
        raise SystemExit(f"trajectory file not found: {exc.filename}")
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2))
        return 0 if comparison.ok else 1
    rows = [[d.name, f"{d.old.vm_seconds:.6f}", f"{d.new.vm_seconds:.6f}",
             "VM/OPS CHANGED" if d.behaviour_changed else ""]
            for d in comparison.deltas]  # fmt: skip
    print(format_table(["case", "old vm (s)", "new vm (s)", ""], rows,
                       title="bench compare (any vm_seconds / op_counts difference fails)"))  # fmt: skip
    for name in comparison.only_old:
        print(f"  MISSING from new: {name}")
    for name in comparison.only_new:
        print(f"  only in new: {name}")
    verdict = "OK" if comparison.ok else (
        f"FAILED: {len(comparison.behaviour_changes)} case(s) with changed virtual "
        f"time or op counts, {len(comparison.only_old)} baseline case(s) missing"
    )
    print(f"bench compare: {verdict}")
    return 0 if comparison.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (1, and no traceback,
    when the reader closed stdout early: ``repro run ... | head -1``)."""
    try:
        code = _dispatch(build_parser().parse_args(argv))
        sys.stdout.flush()  # a broken pipe shows here, not at interpreter exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "paper":
        from repro.workloads import paper

        return paper.main(scale=args.scale, check=args.check, doc=args.doc, cache=args.cache)
    if args.command == "scenarios":
        return _cmd_scenarios()
    if args.command == "schemes":
        return _cmd_schemes()
    if args.command == "policies":
        return _cmd_policies()
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "bench":
        if args.bench_command == "run":
            return _cmd_bench_run(args)
        if args.bench_command == "compare":
            return _cmd_bench_compare(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
