"""Measure the wall-clock overhead of live observability.

The live telemetry layer (status stream + sampler thread + OpenMetrics
textfile rewrites) promises to *observe* the engine, not slow it down.
This benchmark runs the same pinned-seed experiment twice — bare, and
with a :class:`~repro.obs.StatusStream`, a fast-ticking
:class:`~repro.obs.StatusSampler`, full tracing instrumentation, and
``--metrics-out``-style exports all enabled — and reports the relative
wall-clock overhead. ``--max-overhead-pct`` turns it into the CI gate
the ``bench_runtime`` job enforces (ISSUE 9: ≤5%).

Each repeat times one pair — a bare run, then a live run — and the
verdict is the median of the pairs' live/bare ratios. A slow phase of a
shared runner lands inside one pair and moves one ratio, which the
median drops; comparing each variant's best run instead lets one lucky
bare run and one unlucky live run decide it. The collector is paused
inside the timed runs and run before each one, so every run starts from
the same heap: with garbage left to pile up, the second run of a pair
read 3-9% slower than the first even when both were bare.

Usage::

    PYTHONPATH=src python benchmarks/obs_overhead.py             # full
    PYTHONPATH=src python benchmarks/obs_overhead.py --quick     # CI
    PYTHONPATH=src python benchmarks/obs_overhead.py \
        --quick --max-overhead-pct 5 --json obs-overhead.json    # gate
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict

from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.instrumentation import Instrumentation
from repro.feast.runner import run_experiment
from repro.graph import RandomGraphConfig
from repro.obs import StatusSampler, StatusStream, Telemetry, activate_status

SEED = 20260807


def _config(n_graphs: int) -> ExperimentConfig:
    return ExperimentConfig(
        name="obs-overhead",
        description="live-telemetry overhead probe",
        methods=(
            MethodSpec(label="PURE", metric="PURE", comm="CCNE"),
            MethodSpec(label="ADAPT", metric="ADAPT"),
        ),
        # Paper-realistic graph sizes: per-trial work is milliseconds,
        # so the per-trial cost of the observers (span open/close, a
        # couple of counter bumps, one publish per chunk) is measured
        # as the small relative overhead it is in production, not
        # amplified by artificially tiny trials.
        graph_config=RandomGraphConfig(n_subtasks_range=(30, 34)),
        scenarios=("LDET", "HDET"),
        n_graphs=n_graphs,
        seed=SEED,
        system_sizes=(2, 4),
        speed_profile="mixed",
    )


def run_bare(config: ExperimentConfig, jobs: int) -> float:
    gc.collect()
    began = time.perf_counter()
    run_experiment(config, jobs=jobs)
    return time.perf_counter() - began


def run_live(config: ExperimentConfig, jobs: int, workdir: str,
             interval: float) -> float:
    """One run with every observer attached: tracing instrumentation,
    status stream, sampler thread, and OpenMetrics textfile export."""
    inst = Instrumentation(telemetry=Telemetry())
    stream = StatusStream(
        os.path.join(workdir, "run.status.jsonl"), config.name, "bench"
    )
    sampler = StatusSampler(
        stream, inst, interval=interval,
        metrics_out=os.path.join(workdir, "metrics.prom"),
    )
    gc.collect()
    began = time.perf_counter()
    with activate_status(stream), sampler:
        run_experiment(config, jobs=jobs, instrumentation=inst)
    elapsed = time.perf_counter() - began
    stream.close()
    return elapsed


def time_overhead(
    n_graphs: int, jobs: int, repeats: int, interval: float
) -> Dict[str, float]:
    """``repeats`` interleaved (bare, live) pairs; the overhead is the
    median of the per-pair live/bare ratios."""
    config = _config(n_graphs)
    run_bare(config, jobs)  # warm imports/caches outside the timings
    pairs = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            bare = run_bare(config, jobs)
            workdir = tempfile.mkdtemp(prefix="obs-overhead-")
            try:
                live = run_live(config, jobs, workdir, interval)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            pairs.append((bare, live))
    finally:
        if gc_was_enabled:
            gc.enable()
    ratio = statistics.median(live / bare for bare, live in pairs)
    return {
        "n_graphs": n_graphs,
        "jobs": jobs,
        "pairs": pairs,
        "bare_seconds": statistics.median(bare for bare, _ in pairs),
        "live_seconds": statistics.median(live for _, live in pairs),
        "overhead_pct": (ratio - 1.0) * 100.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: smaller workload, fewer repeats",
    )
    parser.add_argument("--json", default=None, help="write timings as JSON")
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="paired repeats per variant (default: 5, quick: 3)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the measured runs (default: serial — "
        "the tightest bound on per-trial overhead)",
    )
    parser.add_argument(
        "--interval", type=float, default=0.2,
        help="sampler tick seconds; deliberately 5x faster than the 1s "
        "production default (default: 0.2). The sampler ticks on a "
        "thread, so each tick's snapshot + textfile rewrite steals GIL "
        "time from the engine — faster ticks measure a worse case.",
    )
    parser.add_argument(
        "--max-overhead-pct", type=float, default=None,
        help="fail (exit 1) if live observability costs more than this "
        "percent of bare wall-clock",
    )
    args = parser.parse_args(argv)

    # The workload must be long enough that the sampler's fixed costs
    # (thread start/stop, one final tick) amortize to noise; these
    # sizes put the bare run in the 1.5-3.5s range.
    n_graphs = 150 if args.quick else 300
    repeats = args.repeats if args.repeats is not None else (
        3 if args.quick else 5
    )
    began = time.perf_counter()
    row = time_overhead(n_graphs, args.jobs, repeats, args.interval)
    print(
        f"graphs={row['n_graphs']} jobs={row['jobs']} "
        f"bare={row['bare_seconds']:.3f}s live={row['live_seconds']:.3f}s "
        f"overhead={row['overhead_pct']:+.2f}%"
    )
    print(f"total {time.perf_counter() - began:.1f}s")

    if args.json:
        payload = {
            "benchmark": "obs_overhead",
            "seed": SEED,
            "sampler_interval": args.interval,
            "row": row,
        }
        with open(args.json, "w") as fp:
            json.dump(payload, fp, indent=2)
        print(f"wrote {args.json}")

    if args.max_overhead_pct is not None:
        if row["overhead_pct"] > args.max_overhead_pct:
            print(
                f"FAIL: live observability overhead "
                f"{row['overhead_pct']:+.2f}% exceeds the "
                f"{args.max_overhead_pct:g}% gate"
            )
            return 1
        print(
            f"overhead gate ok: {row['overhead_pct']:+.2f}% <= "
            f"{args.max_overhead_pct:g}%"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
