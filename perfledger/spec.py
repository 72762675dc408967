"""What the ledger measures: workloads, metric names, units and bounds.

One table serves every consumer: ``ledger.py bench`` prints the metrics
``BENCHMARK.json`` lists, ``ledger.py run``/``compare`` gate on the same
bounds, and ``test_ledger.py`` checks that ``BENCHMARK.json`` agrees
with this file.

``bound`` is the share of the baseline median by which a metric may get
worse before a comparison calls it a regression. ``failed_frac`` is the
one absolute bound: any increase is a regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "relaxed-bus",
        "paper setting: figure2+figure5 on a shared bus, serial; schedule and "
        "bus probing dominate, so scheduler work shows here",
    ),
    Workload(
        "strict-locality",
        "every subtask pinned (BST strict locality), serial; one candidate "
        "per placement, so the critical-path DP and slicer dominate",
    ),
    Workload(
        "sweep-fleet",
        "figure5 through the pool (jobs=2) and the subprocess shard fleet "
        "with journals; dispatch, IPC and merge sit on the path",
    ),
    Workload(
        "serve-closed-loop",
        "repro serve out of process, two closed-loop clients on tiny jobs; "
        "HTTP, the SQLite control plane and journals dominate",
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    #: Relative regression bound (share of the baseline median);
    #: ``None`` for per-layer metrics, which have no bound.
    bound: Optional[float] = None
    #: Workloads that produce the metric (``None`` = all of them).
    workloads: Optional[Tuple[str, ...]] = None
    #: Listed in BENCHMARK.json (what ``ledger.py bench`` reports).
    listed: bool = True
    #: The bound is absolute: any worsening at all is a regression.
    absolute: bool = False

    def applies_to(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


SERVE = ("serve-closed-loop",)
FLEET = ("sweep-fleet",)

#: End-to-end metrics, measured with tracing off.
END_TO_END: Tuple[Metric, ...] = (
    # Bounds (README "Bounds"): over sets of ten 20-s runs per workload
    # on the 2-vCPU host the ledger was made on, peak_rss_mb spread at
    # most 2.5% (inter-quartile over median) in every phase of the host,
    # so its bound is 10%. trials_per_ref_s spread 2-10% on the sweeps
    # and 6-20% on serve; a bound under a workload's spread would call
    # noise a regression, so it keeps the largest bound BENCHMARK.json
    # admits, as set-up time does.
    Metric("setup_s", "s", "lower", 0.25),
    Metric("trials_per_ref_s", "trials/ref-s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    # Ledger-only: raw wall-clock rates and latencies (they carry the
    # host's speed phases), metrics of one workload, and one that reads
    # 0 on a clean run — BENCHMARK.json's list may carry none of these.
    Metric("trials_per_s", "trials/s", "higher", 0.25, listed=False),
    Metric("jobs_per_s", "jobs/s", "higher", 0.25, SERVE, listed=False),
    Metric("submit_to_result_p50_ms", "ms", "lower", 0.25, SERVE, listed=False),
    Metric("submit_to_result_p99_ms", "ms", "lower", 0.25, SERVE, listed=False),
    Metric("failed_frac", "ratio", "lower", 0.0, listed=False, absolute=True),
)


def _layer(name: str, unit: str, better: str = "lower", workloads=None,
           listed: bool = True) -> Metric:
    return Metric(name, unit, better, None, workloads, listed)


#: Per-layer metrics, from the traced run. Solver-layer counts and self
#: times are per trial: runs are time-bounded, so a run's totals would
#: track its length, not the layer's cost. Times are in reference
#: seconds, like ``trials_per_ref_s``.
PER_LAYER: Tuple[Metric, ...] = (
    _layer("generate.calls", "1/trial"),
    _layer("generate.self_us", "ref-us/trial"),
    _layer("index.builds", "1/trial"),
    _layer("index.self_us", "ref-us/trial"),
    _layer("expand.calls", "1/trial"),
    _layer("expand.self_us", "ref-us/trial"),
    _layer("cp.calls", "1/trial"),
    _layer("cp.cells", "1/trial"),
    _layer("cp.self_us", "ref-us/trial"),
    _layer("slicer.calls", "1/trial"),
    _layer("slicer.self_us", "ref-us/trial"),
    _layer("list.calls", "1/trial"),
    _layer("list.candidate_evals", "1/trial"),
    _layer("list.self_us", "ref-us/trial"),
    _layer("bus.probes", "1/trial"),
    _layer("bus.commits", "1/trial"),
    _layer("bus.slot_searches", "1/trial"),
    _layer("bus.timeline_len_mean", "count"),
    _layer("bus.probe_unique_ratio", "ratio", "higher"),
    _layer("bus.self_us", "ref-us/trial"),
    _layer("route.calls", "1/trial"),
    _layer("route.self_us", "ref-us/trial"),
    _layer("analysis.calls", "1/trial"),
    _layer("analysis.self_us", "ref-us/trial"),
    _layer("engine.self_us", "ref-us/trial"),
    _layer("batch.scalar_ms", "ref-ms"),
    _layer("batch.batch_ms", "ref-ms"),
    _layer("batch.speedup", "x", "higher"),
    _layer("trace.overhead_pct", "%"),
    _layer("fleet.pool.trials_per_ref_s", "trials/ref-s", "higher", FLEET),
    _layer("fleet.subprocess.trials_per_ref_s", "trials/ref-s", "higher",
           FLEET),
    _layer("fleet.pool.efficiency", "ratio", "higher", FLEET),
    _layer("fleet.subprocess.efficiency", "ratio", "higher", FLEET),
    _layer("fleet.supervision_events", "count", "lower", FLEET),
    _layer("journal.bytes", "B/trial", "lower", FLEET + SERVE),
    _layer("journal.lines", "1/trial", "lower", FLEET + SERVE),
    _layer("serve.polls_per_job", "count", "lower", SERVE),
    _layer("serve.queue_wait_share", "ratio", "lower", SERVE),
    _layer("serve.run_share", "ratio", "lower", SERVE),
    _layer("serve.client_gap_share", "ratio", "lower", SERVE),
    # Ledger-only: serve timings that exist on one workload.
    _layer("serve.submit_ms_p50", "ms", workloads=SERVE, listed=False),
    _layer("serve.poll_ms_p50", "ms", workloads=SERVE, listed=False),
    _layer("serve.result_ms_p50", "ms", workloads=SERVE, listed=False),
    _layer("serve.queue_wait_ms_p50", "ms", workloads=SERVE, listed=False),
    _layer("serve.run_ms_p50", "ms", workloads=SERVE, listed=False),
    _layer("serve.client_gap_ms_p50", "ms", workloads=SERVE, listed=False),
)

METRICS: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}

def benchmark_json(run_seconds: int) -> Dict[str, object]:
    """The ``BENCHMARK.json`` document this spec implies."""
    return {
        "command": ["python3", "perfledger/ledger.py", "bench"],
        "paths": ["perfledger"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END if m.listed
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER if m.listed
        ],
    }
