"""OpenMetrics textfile export of a run's live metrics.

``repro run … --metrics-out FILE`` keeps ``FILE`` updated with a
scrape-able snapshot of the run in the OpenMetrics / Prometheus text
exposition format: the node-exporter *textfile collector* (and most
other agents) can pick it up with zero integration work, which is how
the future HTTP service and external dashboards get metrics for free.

Each rewrite goes through :func:`~repro.applog.atomic_write_text`,
so a scraper racing the sampler always reads either the previous or the
complete new snapshot — never a torn file.

Mapping:

* repro **counters** become OpenMetrics counters (``repro_…_total``);
* repro **gauges** and the sampler's snapshot fields (trials done/total,
  throughput, RSS) become gauges;
* repro **histograms** become classic Prometheus histograms —
  *cumulative* ``_bucket{le="…"}`` series ending in ``le="+Inf"``, plus
  ``_sum`` and ``_count`` (repro stores per-bucket counts, so the
  exporter does the running sum).

Metric names are sanitized into the ``repro_`` namespace (dots and any
other non-``[a-zA-Z0-9_]`` become underscores); every sample carries
``experiment``/``run_id`` labels when known. The file terminates with
``# EOF`` as OpenMetrics requires.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from repro.applog import atomic_write_text
from repro.obs.metrics import MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_PREFIX = "repro_"


def metric_name(name: str) -> str:
    """Sanitize a repro metric name into the OpenMetrics namespace."""
    cleaned = _NAME_RE.sub("_", name).strip("_")
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = "m_" + cleaned
    return _PREFIX + cleaned


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(pairs: Dict[str, Any], extra: str = "") -> str:
    parts = [
        f'{key}="{_escape_label(value)}"'
        for key, value in pairs.items()
        if value is not None
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def openmetrics_text(
    registry: Optional[MetricsRegistry] = None,
    snapshot: Optional[Dict[str, Any]] = None,
    experiment: Optional[str] = None,
    run_id: Optional[str] = None,
) -> str:
    """Render one metrics snapshot as OpenMetrics exposition text.

    ``registry`` supplies the run's counters/gauges/histograms;
    ``snapshot`` (a :meth:`~repro.obs.live.StatusSampler.snapshot`
    dict) supplies the live progress gauges. Both are optional — an
    empty call still renders a valid (empty) exposition.
    """
    base = {"experiment": experiment, "run_id": run_id}
    lines: List[str] = []

    def sample(name: str, kind: str, values: List[Tuple[str, float]],
               help_text: Optional[str] = None) -> None:
        lines.append(f"# TYPE {name} {kind}")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        for suffix_and_labels, value in values:
            lines.append(f"{name}{suffix_and_labels} {_fmt(value)}")

    if snapshot is not None:
        trials = snapshot.get("trials", {})
        sample(
            _PREFIX + "trials_total", "gauge",
            [(_labels(base), float(trials.get("total", 0)))],
            "Planned trials of the run.",
        )
        sample(
            _PREFIX + "trials_done", "gauge",
            [(_labels(base), float(trials.get("done", 0)))],
            "Trials completed so far (including replays).",
        )
        sample(
            _PREFIX + "trials_replayed", "gauge",
            [(_labels(base), float(trials.get("replayed", 0)))],
            "Trials satisfied from a checkpoint journal.",
        )
        throughput = snapshot.get("throughput", {})
        sample(
            _PREFIX + "throughput_trials_per_second", "gauge",
            [
                (_labels(base, 'window="overall"'),
                 float(throughput.get("overall", 0.0))),
                (_labels(base, 'window="recent"'),
                 float(throughput.get("recent", 0.0))),
            ],
            "Trial completion rate.",
        )
        eta = snapshot.get("eta_seconds")
        if eta is not None:
            sample(
                _PREFIX + "eta_seconds", "gauge",
                [(_labels(base), float(eta))],
                "Estimated seconds to completion.",
            )
        sample(
            _PREFIX + "wall_elapsed_seconds", "gauge",
            [(_labels(base), float(snapshot.get("wall_elapsed", 0.0)))],
            "Wall-clock seconds since the run started.",
        )
        phase_samples = [
            (_labels(base, f'phase="{phase}"'), float(seconds))
            for phase, seconds in sorted(
                (snapshot.get("phases") or {}).items()
            )
        ]
        if phase_samples:
            sample(
                _PREFIX + "phase_seconds", "gauge", phase_samples,
                "Summed CPU-side seconds per trial phase.",
            )
        faults = snapshot.get("faults", {})
        fault_samples = [
            (_labels(base, f'fault="{name}"'), float(value))
            for name, value in sorted(faults.items())
        ]
        if fault_samples:
            sample(
                _PREFIX + "faults", "gauge", fault_samples,
                "Fault-tolerance event counts so far.",
            )
        parent = snapshot.get("parent", {})
        if parent:
            sample(
                _PREFIX + "parent_rss_max_kb", "gauge",
                [(_labels(base), float(parent.get("rss_max_kb", 0)))],
                "Parent process peak RSS in kB.",
            )

    if registry is not None:
        for name, value in sorted(registry.counters.items()):
            om = metric_name(name)
            sample(om, "counter", [(f"_total{_labels(base)}", float(value))])
        for name, value in sorted(registry.gauges.items()):
            om = metric_name(name)
            sample(om, "gauge", [(_labels(base), float(value))])
        for name, hist in sorted(registry.histograms.items()):
            om = metric_name(name)
            values: List[Tuple[str, float]] = []
            running = 0
            for bound, count in zip(hist.buckets, hist.counts):
                running += count
                le = 'le="' + _fmt(bound) + '"'
                values.append((f"_bucket{_labels(base, le)}", float(running)))
            inf_le = 'le="+Inf"'
            values.append((
                f"_bucket{_labels(base, inf_le)}",
                float(hist.n),
            ))
            values.append((f"_sum{_labels(base)}", hist.total))
            values.append((f"_count{_labels(base)}", float(hist.n)))
            sample(om, "histogram", values)

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(
    path: str,
    telemetry=None,
    snapshot: Optional[Dict[str, Any]] = None,
    experiment: Optional[str] = None,
    run_id: Optional[str] = None,
) -> None:
    """Atomically (re)write ``path`` with the current exposition text.

    A scraper reading ``path`` concurrently sees either the previous
    snapshot or the complete new one, never a partial file.
    """
    registry = telemetry.metrics if telemetry is not None else None
    atomic_write_text(
        path,
        openmetrics_text(
            registry=registry,
            snapshot=snapshot,
            experiment=experiment,
            run_id=run_id,
        ),
    )
