"""Command-line interface of the reproduction.

Examples
--------
List the available experiments::

    repro list

Run a figure at paper scale (128 graphs) or any smaller scale::

    repro run figure5
    repro run figure2 --graphs 32 --sizes 2,4,8,16 --csv out/figure2.csv

Trials fan out over all CPU cores by default; pin the worker count (1 =
serial) with::

    repro run figure5 --jobs 8

Journal a run to a checkpoint directory you can inspect, validate,
compact, and resume under any worker count::

    repro run figure5 --jobs 4 --checkpoint ck/f5
    repro checkpoint ck/f5 --experiment figure5
    repro checkpoint ck/f5 --compact
    repro run figure5 --jobs 1 --checkpoint ck/f5 --resume

Record a run's telemetry (spans, metrics, resource samples), then
inspect it or convert it for Perfetto / ``chrome://tracing``::

    repro run figure5 --trace traces/
    repro report traces/figure5.events.jsonl
    repro trace traces/figure5.events.jsonl -o figure5.trace.json

Watch a traced run live (from another terminal), export an OpenMetrics
snapshot for external scrapers, and track performance across runs::

    repro top --follow traces/
    repro run figure5 --trace traces/ --metrics-out metrics.prom
    repro runs list
    repro runs diff last~1 last --gate 10

Inspect one generated workload and one schedule::

    repro demo --processors 4 --metric ADAPT

Progress, profiles, and fault diagnostics go to **stderr**; stdout
carries only the run's reports, so piping stdout stays clean.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from typing import Callable, List, Optional, Sequence

from repro.feast import EXPERIMENTS, build_experiment, run_experiment


def _parse_sizes(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--sizes expects comma-separated integers, got {text!r}"
        ) from None


def _parse_jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs expects an integer, got {text!r}"
        ) from None
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = all cores), got {jobs}"
        )
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Deadline Assignment in Distributed Hard "
            "Real-Time Systems with Relaxed Locality Constraints' "
            "(Jonsson & Shin, ICDCS 1997)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run = sub.add_parser("run", help="run a registered experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument(
        "--graphs", type=int, default=None,
        help="task graphs per parameter combination (default: builder's)",
    )
    run.add_argument(
        "--sizes", type=_parse_sizes, default=None,
        help="comma-separated system sizes, e.g. 2,4,8,16",
    )
    run.add_argument("--seed", type=int, default=None, help="workload seed")
    run.add_argument(
        "--jobs", type=_parse_jobs, default=None,
        help="worker processes for trial execution "
        "(default: all CPU cores; 1 = serial)",
    )
    run.add_argument(
        "--trial-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per trial; slow trials degrade "
        "gracefully and hung workers are killed and retried",
    )
    run.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="times a failed trial chunk is retried before quarantine "
        "(default: the experiment's, normally 2)",
    )
    run.add_argument(
        "--stall-timeout", type=float, default=None, metavar="SECONDS",
        help="(multi-process runs) declare a worker stalled after this "
        "many seconds without journal progress and escalate "
        "SIGTERM → grace → SIGKILL before relaunching it (default: "
        "one chunk's budget under --trial-timeout, else stall "
        "detection off — long chunks journal nothing while they "
        "compute)",
    )
    run.add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution backend: serial, or subprocess (alias: pool), "
        "a fleet of --jobs worker processes merged through checkpoint "
        "journals; default: serial for --jobs 1, else subprocess",
    )
    run.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="journal completed work into the directory DIR (created if "
        "new); pass --resume to continue an interrupted sweep from it, "
        "with any --jobs",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="allow --checkpoint to reuse an existing checkpoint "
        "directory (without it, an existing one is an error)",
    )
    run.add_argument("--csv", default=None, help="write raw trials as CSV")
    run.add_argument(
        "--save", default=None,
        help="save raw results as JSON (reload with `repro compare`)",
    )
    run.add_argument(
        "--plot", action="store_true",
        help="render ASCII plots of each scenario panel",
    )
    run.add_argument(
        "--markdown", default=None,
        help="write a markdown report of all panels",
    )
    run.add_argument(
        "--baseline", default=None,
        help="method label for the report's improvement/significance section",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="print per-phase timers, wall-clock elapsed, and parallel "
        "efficiency after each experiment (to stderr)",
    )
    run.add_argument(
        "--trace", default=None, metavar="DIR",
        help="record telemetry (spans, metrics, resource samples) and "
        "write DIR/<experiment>.events.jsonl; inspect with "
        "`repro report` / `repro trace`; also streams live status "
        "snapshots to DIR/<experiment>.status.jsonl (watch with "
        "`repro top DIR`) and registers the run in the run registry",
    )
    run.add_argument(
        "--status-interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between live status snapshots on traced runs "
        "(default: 1.0)",
    )
    run.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="keep FILE updated (atomically) with an OpenMetrics/"
        "Prometheus textfile snapshot of the run; scrape-able by the "
        "node-exporter textfile collector",
    )
    run.add_argument(
        "--registry", default=None, metavar="DIR",
        help="run registry directory (default: .repro/registry/); "
        "traced runs register themselves there — inspect with "
        "`repro runs list/show/diff`",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    run.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI styling of the progress line (also disabled "
        "when stderr is not a TTY or NO_COLOR is set)",
    )

    comp = sub.add_parser(
        "compare", help="diff two saved experiment runs (JSON from --save)"
    )
    comp.add_argument("before", help="baseline result JSON")
    comp.add_argument("after", help="candidate result JSON")
    comp.add_argument(
        "--threshold", type=float, default=1.0,
        help="ignore per-point changes below this many time units",
    )

    rep = sub.add_parser(
        "report",
        help="render a human-readable report of a telemetry event log",
    )
    rep.add_argument(
        "events", help="events.jsonl written by `repro run --trace`"
    )

    tr = sub.add_parser(
        "trace",
        help="convert a telemetry event log to Chrome trace JSON "
        "(loads in Perfetto / chrome://tracing)",
    )
    tr.add_argument(
        "events", help="events.jsonl written by `repro run --trace`"
    )
    tr.add_argument(
        "-o", "--output", default=None,
        help="output path (default: the input with .events.jsonl "
        "replaced by .trace.json)",
    )

    top = sub.add_parser(
        "top",
        help="status board of a live (or finished) traced run: "
        "progress, throughput sparkline, per-shard liveness, "
        "supervision incidents",
    )
    top.add_argument(
        "path",
        help="a status.jsonl stream, or the --trace directory of the "
        "run (newest stream wins)",
    )
    top.add_argument(
        "--follow", action="store_true",
        help="redraw until the run finishes (default: one snapshot)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (the default)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="redraw interval with --follow (default: 1.0)",
    )

    runs = sub.add_parser(
        "runs",
        help="the persistent run registry: list, inspect, and diff "
        "registered runs (regression gate for CI)",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="list registered runs, newest first"
    )
    runs_show = runs_sub.add_parser(
        "show", help="show one registered run in full"
    )
    runs_show.add_argument(
        "run", help="run id, unique prefix, or last / last~N"
    )
    runs_diff = runs_sub.add_parser(
        "diff",
        help="compare two registered runs' phase timings and "
        "throughput; exits 1 when the candidate regresses past --gate",
    )
    runs_diff.add_argument(
        "baseline", help="baseline run (id, unique prefix, last~N)"
    )
    runs_diff.add_argument(
        "candidate", help="candidate run (id, unique prefix, last)"
    )
    runs_diff.add_argument(
        "--gate", type=float, default=10.0, metavar="PCT",
        help="regression gate: fail when a phase slows down (or "
        "throughput drops) by more than PCT percent (default: 10)",
    )
    for p in (runs_list, runs_show, runs_diff):
        p.add_argument(
            "--registry", default=None, metavar="DIR",
            help="registry directory (default: .repro/registry/)",
        )

    ckpt = sub.add_parser(
        "checkpoint",
        help="inspect, validate, or compact checkpoint journals "
        "(a checkpoint directory, or one .ckpt file in it)",
    )
    ckpt.add_argument(
        "path", help="checkpoint directory, or one journal file"
    )
    ckpt.add_argument(
        "--experiment", default=None, choices=sorted(EXPERIMENTS),
        help="validate chunk coverage and fingerprint against this "
        "experiment's configuration",
    )
    ckpt.add_argument(
        "--graphs", type=int, default=None,
        help="the --graphs the run used (fingerprints must match)",
    )
    ckpt.add_argument(
        "--sizes", type=_parse_sizes, default=None,
        help="the --sizes the run used (fingerprints must match)",
    )
    ckpt.add_argument(
        "--seed", type=int, default=None,
        help="the --seed the run used (fingerprints must match)",
    )
    ckpt.add_argument(
        "--compact", action="store_true",
        help="merge a checkpoint directory's journals into a single "
        "shard-0-of-1.ckpt (as any checkpoint, resumable under any "
        "--jobs)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded chaos campaign: a sweep under injected "
        "hangs/crashes/journal corruption must stay byte-identical to "
        "a clean serial run, with the recovery machinery provably "
        "exercised",
    )
    chaos.add_argument("--seed", type=int, default=0, help="campaign seed")
    chaos.add_argument(
        "--backend", default="subprocess",
        help="execution backend under test: serial, or subprocess "
        "(default) or its alias pool, the worker fleet with "
        "stall and crash supervision",
    )
    chaos.add_argument(
        "--jobs", type=int, default=3, metavar="N",
        help="fleet workers (default: 3; >= 2 required so faults span "
        "multiple shards)",
    )
    chaos.add_argument(
        "--faults", type=int, default=3, metavar="N",
        help="extra seeded in-process faults on top of the guaranteed "
        "hang/truncate/exit coverage (default: 3)",
    )
    chaos.add_argument(
        "--out", default=None, metavar="DIR",
        help="persist campaign artifacts into DIR: fault-plan.json, "
        "report.json, chaos.events.jsonl, and the checkpoint journals",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differentially fuzz the pipeline against the qa oracles "
        "and shrink any failure to a minimal reproducer",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz.add_argument(
        "--trials", type=int, default=100,
        help="scenarios to run (default: 100)",
    )
    fuzz.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop starting new trials after this much wall clock",
    )
    fuzz.add_argument(
        "--out", default=None, metavar="DIR",
        help="write shrunk reproducer JSON files into DIR",
    )
    fuzz.add_argument(
        "--replay", default=None, metavar="FILE",
        help="re-check one reproducer file instead of fuzzing (same "
        "check gating as the live campaign)",
    )
    fuzz.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )

    serve = sub.add_parser(
        "serve",
        help="run the deadline-assignment job service (HTTP, durable queue)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8348,
        help="listen port; 0 binds an ephemeral port, announced on stderr",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent job executions (default: 2)",
    )
    serve.add_argument(
        "--backend", default="serial",
        help="execution backend per job: serial, or subprocess (alias: "
        "pool), a fleet of --jobs worker processes (default: serial)",
    )
    serve.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes per job on a multi-process backend "
        "(default: 2)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded job queue depth; full queue → 503 (default: 64)",
    )
    serve.add_argument(
        "--data-dir", default="repro-serve-data",
        help="durable state: job status streams, checkpoint "
        "directories, results",
    )
    serve.add_argument(
        "--max-body-bytes", type=int, default=2 * 1024 * 1024,
        help="largest accepted request body (default: 2 MiB)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="per-request read deadline in seconds (default: 30)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=None, metavar="PER_SECOND",
        help="token-bucket submission rate limit per client (default: off)",
    )
    serve.add_argument(
        "--auth", default="none", help="auth backend: none or token"
    )
    serve.add_argument(
        "--auth-token", default=None,
        help="bearer token for --auth token (or REPRO_SERVE_TOKEN)",
    )

    demo = sub.add_parser(
        "demo", help="distribute and schedule one random graph, verbosely"
    )
    demo.add_argument("--processors", type=int, default=4)
    demo.add_argument(
        "--metric", default="ADAPT", choices=["NORM", "PURE", "THRES", "ADAPT"]
    )
    demo.add_argument("--comm", default="CCNE", choices=["CCNE", "CCAA"])
    demo.add_argument("--topology", default="bus")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--dot", default=None, help="write the graph as DOT")
    demo.add_argument(
        "--svg", default=None,
        help="write the schedule as an SVG Gantt chart (with windows)",
    )

    return parser


def cmd_list() -> int:
    print("Registered experiments:")
    for name, builder in sorted(EXPERIMENTS.items()):
        doc = (builder.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<18} {doc}")
    return 0


def _phase_profile(name: str, instrumentation, jobs: int = 1) -> str:
    """Render the per-phase timing summary of one experiment run.

    Reports the summed CPU-side phase time *and* the wall-clock elapsed
    separately — in parallel mode the former can exceed the latter, and
    their ratio per worker is the parallel efficiency.
    """
    timings = instrumentation.timings
    total = timings.total or 1.0
    lines = [f"phase profile ({name}):"]
    for phase, seconds in timings.as_dict().items():
        lines.append(
            f"  {phase:<12} {seconds:8.3f}s  ({100.0 * seconds / total:5.1f}%)"
        )
    lines.append(
        f"  {'total':<12} {timings.total:8.3f}s  (summed across workers)"
    )
    lines.append(
        f"  {'wall':<12} {instrumentation.wall_elapsed:8.3f}s"
    )
    efficiency = instrumentation.parallel_efficiency(jobs)
    if efficiency is not None and jobs > 1:
        lines.append(
            f"  {'efficiency':<12} {efficiency:7.0%}   ({jobs} workers)"
        )
    return "\n".join(lines)


def _progress_printer(no_color: bool) -> Callable[[int, int], None]:
    """A ``(done, total)`` callback rendering progress on stderr.

    On a TTY: a single self-overwriting line, dimmed unless colors are
    off (``--no-color`` or the ``NO_COLOR`` convention). Piped: plain
    ``done/total`` lines at ~10% steps, so logs stay readable and
    stdout stays machine-parseable either way.
    """
    stream = sys.stderr
    is_tty = bool(getattr(stream, "isatty", lambda: False)())
    color = is_tty and not no_color and not os.environ.get("NO_COLOR")
    dim, reset = ("\x1b[2m", "\x1b[0m") if color else ("", "")

    if is_tty:
        def progress(done: int, total: int) -> None:
            stream.write(f"\r{dim}  {done}/{total} trials{reset}")
            if done >= total:
                stream.write("\n")
            stream.flush()
    else:
        def progress(done: int, total: int) -> None:
            if done % max(1, total // 10) == 0:
                print(f"  {done}/{total}", file=stream)
    return progress


def _suffixed_path(path: str, name: str) -> str:
    """Derive a per-config variant of ``path`` (multi-config runs)."""
    stem, dot, ext = path.rpartition(".")
    return f"{stem}-{name}.{ext}" if dot else f"{path}-{name}"


def _fault_summary(result) -> Optional[str]:
    """One-paragraph account of what the run survived, if anything."""
    lines = []
    fatal = [f for f in result.failures if f.kind != "slow-trial"]
    slow = len(result.failures) - len(fatal)
    if fatal:
        lines.append(
            f"  survived {len(fatal)} fault event(s): " + "; ".join(
                f"{f.kind} at ({f.scenario}, graph {f.index})"
                for f in fatal[:5]
            ) + (" ..." if len(fatal) > 5 else "")
        )
    if slow:
        lines.append(f"  {slow} trial(s) overran their budget (results kept)")
    if result.quarantined:
        chunks = ", ".join(
            f"({s}, graph {i})" for s, i in result.quarantined
        )
        lines.append(
            f"  QUARANTINED {len(result.quarantined)} chunk(s): {chunks} — "
            "their trials are missing from the records"
        )
    supervision = getattr(result, "supervision", None)
    if supervision is not None and supervision.any():
        stats = supervision.as_dict()
        labels = (
            ("stalls_detected", "stall(s) detected"),
            ("kills_escalated", "SIGKILL escalation(s)"),
            ("relaunches", "worker relaunch(es)"),
            ("chunks_replayed", "chunk(s) replayed from journals"),
        )
        lines.append("  supervision: " + ", ".join(
            f"{stats[key]} {label}"
            for key, label in labels if stats[key]
        ))
    if not lines:
        return None
    return "fault report:\n" + "\n".join(lines)


def _known_backend(name: str) -> bool:
    """Whether ``name`` is registered; prints the CLI error if not."""
    from repro.feast.backends import backend_names

    if name in backend_names():
        return True
    print(
        f"error: unknown backend {name!r}; expected one "
        f"of {', '.join(backend_names())}",
        file=sys.stderr,
    )
    return False


def cmd_run(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.feast import lateness_report, to_csv

    kwargs = {}
    if args.graphs is not None:
        kwargs["n_graphs"] = args.graphs
    if args.sizes is not None:
        kwargs["system_sizes"] = tuple(args.sizes)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    configs = build_experiment(args.experiment, **kwargs)
    overrides = {}
    if args.trial_timeout is not None:
        overrides["trial_timeout"] = args.trial_timeout
    if args.retries is not None:
        overrides["max_retries"] = args.retries
    if overrides:
        configs = [dataclasses.replace(c, **overrides) for c in configs]

    from repro.feast.backends import resolve_jobs

    jobs = resolve_jobs(args.jobs)
    if args.backend is not None and not _known_backend(args.backend):
        return 2
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.status_interval <= 0:
        print("error: --status-interval must be > 0", file=sys.stderr)
        return 2
    checkpoints = {}
    if args.checkpoint:
        for config in configs:
            path = args.checkpoint
            if len(configs) > 1:
                path = _suffixed_path(path, config.name)
            if os.path.exists(path) and not args.resume:
                print(
                    f"error: checkpoint {path!r} already exists; pass "
                    "--resume to continue it or delete it to start over",
                    file=sys.stderr,
                )
                return 2
            checkpoints[config.name] = path
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
    csv_chunks: List[str] = []
    results = []
    for config in configs:
        if not args.quiet:
            print(
                f"running {config.name}: {config.n_trials} trials "
                f"({jobs} job{'s' if jobs != 1 else ''}) ...",
                file=sys.stderr,
            )

        progress = None if args.quiet else _progress_printer(args.no_color)

        from repro.feast.instrumentation import Instrumentation

        telemetry = None
        if args.trace or args.metrics_out:
            from repro.obs import Telemetry

            telemetry = Telemetry()
        instrumentation = Instrumentation(telemetry=telemetry)
        retry = None
        if args.stall_timeout is not None:
            from repro.feast.backends.work import RetryPolicy

            retry = RetryPolicy(
                max_attempts=config.max_retries + 1,
                stall_timeout=args.stall_timeout,
            )

        # Live telemetry: a status stream in the trace dir (when
        # tracing), a periodic sampler feeding it and/or the
        # OpenMetrics file. Observation only — the engine never sees
        # any of it, so records stay bit-identical (DESIGN.md §11).
        from repro.obs.export import make_run_id
        from repro.obs.live import StatusSampler, StatusStream, activate_status

        run_id = make_run_id()
        started_epoch = time.time()
        stream = None
        if args.trace:
            from repro.feast.sweep import status_path

            stream = StatusStream(
                status_path(args.trace, config), config.name, run_id
            )
        metrics_out = args.metrics_out
        if metrics_out and len(configs) > 1:
            metrics_out = _suffixed_path(metrics_out, config.name)
        sampler = None
        if stream is not None or metrics_out:
            sampler = StatusSampler(
                stream, instrumentation,
                interval=args.status_interval,
                metrics_out=metrics_out,
                backend=args.backend or ("serial" if jobs == 1 else "pool"),
                jobs=jobs,
            )
        try:
            with activate_status(stream):
                if sampler is not None:
                    sampler.start()
                result = run_experiment(
                    config, progress=progress, jobs=jobs,
                    instrumentation=instrumentation,
                    checkpoint=checkpoints.get(config.name),
                    backend=args.backend,
                    retry=retry,
                )
        finally:
            if sampler is not None:
                sampler.stop()
            if stream is not None:
                stream.close(
                    trials=instrumentation.trials_completed,
                    wall_elapsed=instrumentation.wall_elapsed,
                )

        if args.trace or args.registry:
            from repro.feast.sweep import registry_record, trace_path
            from repro.obs.registry import DEFAULT_REGISTRY_DIR, RunRegistry

            registry = RunRegistry(args.registry or DEFAULT_REGISTRY_DIR)
            registry.append(registry_record(
                run_id, result, instrumentation,
                started=started_epoch,
                trace=(
                    trace_path(args.trace, config) if args.trace else ""
                ),
            ))
            print(
                f"registered run {run_id} in {registry.directory}",
                file=sys.stderr,
            )
        print(lateness_report(result))
        print()
        summary = _fault_summary(result)
        if summary is not None:
            print(summary, file=sys.stderr)
        if args.profile:
            print(
                _phase_profile(config.name, instrumentation, jobs=result.jobs),
                file=sys.stderr,
            )
        if args.trace:
            from repro.feast.sweep import trace_path, write_run_events

            events_path = trace_path(args.trace, config)
            write_run_events(events_path, result, instrumentation)
            print(f"wrote {events_path}", file=sys.stderr)
        if args.plot:
            from repro.feast import lateness_plot

            for scenario in config.scenarios:
                print(lateness_plot(result, scenario))
                print()
        if args.save:
            from repro.feast import save_result

            path = args.save
            if len(configs) > 1:
                path = _suffixed_path(path, config.name)
            save_result(result, path)
            print(f"saved {path}")
        csv_chunks.append(to_csv(result))
        results.append(result)

    if args.markdown:
        from repro.feast.reporting import render_report

        with open(args.markdown, "w") as fp:
            fp.write(render_report(
                results,
                title=f"Experiment report: {args.experiment}",
                baseline=args.baseline,
            ))
        print(f"wrote {args.markdown}")

    if args.csv:
        header, *_ = csv_chunks[0].splitlines()
        lines = [header]
        for chunk in csv_chunks:
            lines.extend(chunk.splitlines()[1:])
        with open(args.csv, "w") as fp:
            fp.write("\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """Inspect/validate/compact a checkpoint directory (or one journal).

    Exit codes: 0 = valid, 1 = validation failure (mixed fingerprints,
    missing coverage, fingerprint not matching ``--experiment``),
    2 = unreadable input or usage error.
    """
    from repro.errors import CheckpointError
    from repro.feast.persistence import (
        compact_journals,
        config_fingerprint,
        inspect_journal,
        journal_paths,
    )

    is_dir = os.path.isdir(args.path)
    try:
        paths = journal_paths(args.path) if is_dir else [args.path]
        if not paths:
            print(
                f"error: no *.ckpt journals under {args.path!r}",
                file=sys.stderr,
            )
            return 2
        infos = [inspect_journal(p) for p in paths]
    except (CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ok = True
    covered = set()
    first_seen = {}
    cross_duplicates = set()
    for info in infos:
        print(f"{info.path}:")
        print(f"  experiment   {info.experiment}")
        print(f"  fingerprint  {info.fingerprint}")
        print(f"  chunks       {info.n_chunks}")
        if info.torn_tail:
            print("  torn trailing line (repaired on next resume)")
        if info.duplicates:
            shown = ", ".join(
                f"({s}, {i})" for s, i in info.duplicates[:5]
            )
            more = " ..." if len(info.duplicates) > 5 else ""
            print(
                f"  {len(info.duplicates)} duplicate chunk line(s) "
                f"within this journal (identical copies collapse): "
                f"{shown}{more}"
            )
        for key in info.chunks:
            covered.add(key)
            if key in first_seen and first_seen[key] != info.path:
                cross_duplicates.add(key)
            first_seen.setdefault(key, info.path)

    fingerprints = sorted({info.fingerprint for info in infos})
    if len(fingerprints) > 1:
        ok = False
        print(
            "FINGERPRINT MISMATCH: journals were written by "
            f"{len(fingerprints)} different configurations "
            f"({', '.join(fingerprints)})"
        )
    if cross_duplicates:
        print(
            f"note: {len(cross_duplicates)} chunk(s) appear in more "
            "than one journal (expected after a shard-count change; "
            "identical copies collapse on merge)"
        )

    if args.experiment is not None:
        kwargs = {}
        if args.graphs is not None:
            kwargs["n_graphs"] = args.graphs
        if args.sizes is not None:
            kwargs["system_sizes"] = tuple(args.sizes)
        if args.seed is not None:
            kwargs["seed"] = args.seed
        configs = build_experiment(args.experiment, **kwargs)
        matched = [
            c for c in configs if config_fingerprint(c) in fingerprints
        ]
        if not matched:
            ok = False
            print(
                f"NO CONFIG MATCH: no configuration of "
                f"{args.experiment!r} has a matching fingerprint (were "
                "--graphs/--sizes/--seed the same as the run's?)"
            )
        for config in matched:
            expected = list(config.chunk_keys())
            missing = [k for k in expected if k not in covered]
            if missing:
                ok = False
                shown = ", ".join(
                    f"({s}, {i})" for s, i in missing[:5]
                )
                more = " ..." if len(missing) > 5 else ""
                print(
                    f"{config.name}: INCOMPLETE — "
                    f"{len(expected) - len(missing)}/{len(expected)} "
                    f"chunks journaled; missing {shown}{more}"
                )
            else:
                print(
                    f"{config.name}: complete "
                    f"({len(expected)}/{len(expected)} chunks)"
                )

    if args.compact:
        if not is_dir:
            print(
                "error: --compact needs a directory of shard journals",
                file=sys.stderr,
            )
            return 2
        if not ok:
            print(
                "error: refusing to compact journals that failed "
                "validation",
                file=sys.stderr,
            )
            return 1
        try:
            merged = compact_journals(args.path)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"compacted {len(paths)} journal(s) into {merged}")
    return 0 if ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.qa import FuzzConfig, replay_reproducer, run_fuzz

    if args.replay is not None:
        with open(args.replay, "r", encoding="utf-8") as fp:
            data = json.load(fp)
        report = replay_reproducer(data)
        print(report.summary())
        return 0 if report.ok else 1

    config = FuzzConfig(
        seed=args.seed,
        trials=args.trials,
        time_budget=args.time_budget,
        output_dir=args.out,
    )

    progress = None
    if not args.quiet:
        def progress(trial, failure):
            if failure is not None:
                print(f"  trial {trial}: FAIL", file=sys.stderr)
            elif trial % 25 == 0:
                print(f"  trial {trial}/{config.trials} ok", file=sys.stderr)

    result = run_fuzz(config, progress=progress)
    print(result.summary())
    for failure in result.failures:
        print(failure.shrunk_report.summary())
    return 0 if result.ok else 1


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import ast, bst, validate_assignment
    from repro.core.slicer import DeadlineDistributor
    from repro.graph import RandomGraphConfig, generate_task_graph, graph_stats
    from repro.graph.serialization import to_dot
    from repro.machine import System, make_interconnect
    from repro.sched import ListScheduler, schedule_metrics

    graph = generate_task_graph(
        RandomGraphConfig(), rng=random.Random(args.seed)
    )
    stats = graph_stats(graph)
    print(f"workload: {graph!r}")
    print(
        f"  depth={stats.depth} parallelism={stats.average_parallelism:.2f} "
        f"workload={stats.total_workload:.0f} CCR="
        f"{stats.communication_to_computation_ratio:.2f}"
    )

    if args.metric in ("THRES", "ADAPT"):
        distributor: DeadlineDistributor = ast(args.metric)
    else:
        distributor = bst(args.metric, args.comm)
    assignment = distributor.distribute(graph, n_processors=args.processors)
    report = validate_assignment(assignment)
    print(
        f"distribution: {assignment!r}\n"
        f"  min laxity={assignment.min_laxity():.1f} valid={report.ok}"
    )

    system = System(
        args.processors,
        interconnect=make_interconnect(args.topology, args.processors),
    )
    schedule = ListScheduler(system).schedule(graph, assignment)
    schedule.validate()
    metrics = schedule_metrics(schedule, assignment)
    print(
        f"schedule: makespan={metrics.makespan:.1f} "
        f"max lateness={metrics.max_lateness:.1f} "
        f"late subtasks={metrics.n_late}/{metrics.n_subtasks}"
    )
    print(schedule.gantt())

    if args.dot:
        with open(args.dot, "w") as fp:
            fp.write(to_dot(graph))
        print(f"wrote {args.dot}")
    if args.svg:
        from repro.sched import schedule_to_svg

        with open(args.svg, "w") as fp:
            fp.write(schedule_to_svg(schedule, assignment))
        print(f"wrote {args.svg}")
    return 0


def _resolve_events_path(path: str) -> str:
    """Accept an event log *or* a trace directory (newest log wins).

    Raises :class:`~repro.errors.SerializationError` with a one-line
    explanation for a missing path or an empty directory — the chaos
    truncate-journal kind can leave a trace dir with no usable log, and
    that must be a clean error, not a traceback.
    """
    import glob

    from repro.errors import SerializationError

    if os.path.isdir(path):
        candidates = sorted(
            glob.glob(os.path.join(path, "*.events.jsonl")),
            key=os.path.getmtime,
        )
        if not candidates:
            raise SerializationError(
                f"no *.events.jsonl log in {path!r} — was the run "
                "started with --trace?"
            )
        return candidates[-1]
    if not os.path.exists(path):
        raise SerializationError(f"no such event log: {path!r}")
    return path


def cmd_report(args: argparse.Namespace) -> int:
    from repro.errors import SerializationError
    from repro.obs import read_events, render_run_report

    try:
        events_path = _resolve_events_path(args.events)
        events = read_events(events_path)
    except SerializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_run_report(events))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import SerializationError
    from repro.obs import read_events, write_chrome_trace

    try:
        events_path = _resolve_events_path(args.events)
        output = args.output
        if output is None:
            base = events_path
            if base.endswith(".events.jsonl"):
                base = base[: -len(".events.jsonl")]
            output = base + ".trace.json"
        events = read_events(events_path)
        write_chrome_trace(output, events)
    except SerializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {output}")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from repro.errors import SerializationError
    from repro.obs.board import find_status_file, follow, render_board
    from repro.obs.live import read_status

    if args.follow and args.once:
        print("error: choose --follow or --once, not both", file=sys.stderr)
        return 2
    try:
        path = find_status_file(args.path)
        if args.follow:
            follow(path, print, interval=args.interval)
        else:
            print(render_board(read_status(path)))
    except SerializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    from repro.errors import SerializationError
    from repro.obs.registry import (
        DEFAULT_REGISTRY_DIR,
        RunRegistry,
        diff_runs,
        render_run_diff,
        render_run_list,
        render_run_show,
    )

    registry = RunRegistry(args.registry or DEFAULT_REGISTRY_DIR)
    try:
        if args.runs_command == "list":
            print(render_run_list(registry.load()))
            return 0
        if args.runs_command == "show":
            print(render_run_show(registry.get(args.run)))
            return 0
        if args.runs_command == "diff":
            baseline = registry.get(args.baseline)
            candidate = registry.get(args.candidate)
            diff = diff_runs(baseline, candidate)
            print(render_run_diff(diff, args.gate))
            return 1 if diff.regressions(args.gate) else 0
    except SerializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled runs command {args.runs_command!r}")


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.errors import ExperimentError
    from repro.feast.chaos import render_chaos_report, run_chaos

    if not _known_backend(args.backend):
        return 2
    try:
        report = run_chaos(
            seed=args.seed,
            backend=args.backend,
            jobs=args.jobs,
            extra_faults=args.faults,
            out=args.out,
        )
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_chaos_report(report))
    if args.out:
        print(f"wrote campaign artifacts to {args.out}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.feast import compare, load_result

    before = load_result(args.before)
    after = load_result(args.after)
    deltas = compare(before, after, threshold=args.threshold)
    if not deltas:
        print(
            f"no per-point changes above {args.threshold:g} time units "
            f"({len(before)} vs {len(after)} trials)"
        )
        return 0
    print(f"{'scenario':<8} {'method':<14} {'procs':>5} "
          f"{'before':>10} {'after':>10} {'delta':>9}")
    for d in deltas:
        print(
            f"{d.scenario:<8} {d.method:<14} {d.n_processors:>5} "
            f"{d.before:>10.1f} {d.after:>10.1f} {d.delta:>+9.1f}"
        )
    worst = deltas[0]
    print(
        f"\nworst regression: {worst.method} at {worst.n_processors} procs "
        f"({worst.scenario}): {worst.delta:+.1f} ({worst.relative:+.1%})"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.serve.app import ServiceConfig, run_service

    if not _known_backend(args.backend):
        return 2
    token = args.auth_token or os.environ.get("REPRO_SERVE_TOKEN")
    if args.auth == "token" and not token:
        print(
            "error: --auth token needs --auth-token or REPRO_SERVE_TOKEN",
            file=sys.stderr,
        )
        return 2
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        backend=args.backend,
        jobs=args.jobs,
        queue_size=args.queue_size,
        data_dir=args.data_dir,
        max_body=args.max_body_bytes,
        request_timeout=args.request_timeout,
        auth=args.auth,
        auth_token=token,
        rate_limit=args.rate_limit,
    )
    try:
        return run_service(config)
    except ReproError as exc:  # a data directory this server cannot boot on
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # The reader closed the pipe early (`repro top --once DIR |
        # head`). Exit quietly like any Unix filter; point stdout at
        # devnull first so the interpreter's shutdown flush cannot
        # raise the same error a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "checkpoint":
        return cmd_checkpoint(args)
    if args.command == "fuzz":
        return cmd_fuzz(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "demo":
        return cmd_demo(args)
    if args.command == "compare":
        return cmd_compare(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "top":
        return cmd_top(args)
    if args.command == "runs":
        return cmd_runs(args)
    if args.command == "serve":
        return cmd_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
