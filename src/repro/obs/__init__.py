"""``repro.obs`` — zero-dependency telemetry for the experiment engine.

Structured span tracing, a metrics registry, per-worker resource
sampling, and trace export, threaded through the whole pipeline:

* :mod:`repro.obs.spans` — nested, picklable :class:`Span` trees
  recorded by a :class:`SpanRecorder`; workers record locally and the
  parent adopts their roots, producing one merged timeline per run.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges (max-merged), and fixed-bucket histograms; registries from
  worker chunks fold into the run's registry.
* :mod:`repro.obs.runtime` — the active :class:`Telemetry` session and
  the cheap ambient hooks (:func:`count`, :func:`observe`,
  :func:`span`, ...) instrumented components call unconditionally; all
  are no-ops when tracing is off.
* :mod:`repro.obs.resources` — RSS/CPU sampling via ``resource``/``os``.
* :mod:`repro.obs.export` — the JSONL event log (an
  :mod:`repro.applog` file), schema validation, and Chrome-trace/Perfetto
  conversion.
* :mod:`repro.obs.report` — human-readable run reports.
* :mod:`repro.obs.live` — the *streaming* side: a ``status.jsonl``
  stream that grows during the run (:class:`StatusStream`), the
  :class:`StatusSampler` thread snapshotting progress/liveness, and
  the ambient :func:`publish`/:func:`probe` hooks (no-ops when off).
* :mod:`repro.obs.promexport` — OpenMetrics textfile export
  (``--metrics-out``), rewritten atomically for external scrapers.
* :mod:`repro.obs.registry` — the append-only run registry behind
  ``repro runs list/show/diff`` and its regression gate.
* :mod:`repro.obs.board` — the ``repro top`` status-board renderer.

Enable tracing from the CLI with ``repro run --trace DIR``, then
inspect with ``repro report`` / ``repro trace``; from code, pass a
:class:`Telemetry` to :class:`~repro.feast.instrumentation.Instrumentation`
and hand it to :func:`~repro.feast.runner.run_experiment`.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    ".metrics": (
        "COUNT_BUCKETS",
        "LATENCY_BUCKETS",
        "Histogram",
        "MetricsRegistry",
    ),
    ".resources": ("ResourceSample", "sample_resources"),
    ".runtime": (
        "Telemetry",
        "activate",
        "active",
        "annotate",
        "count",
        "gauge",
        "observe",
        "span",
        "toplevel_span",
    ),
    ".spans": ("Span", "SpanRecorder"),
    ".export": (
        "TRACE_FORMAT",
        "TRACE_VERSION",
        "chrome_trace",
        "events_from_telemetry",
        "read_events",
        "validate_events",
        "write_chrome_trace",
        "write_events",
    ),
    ".report": ("render_run_report",),
    ".live": (
        "STATUS_FORMAT",
        "STATUS_VERSION",
        "StatusSampler",
        "StatusStream",
        "activate_status",
        "active_status",
        "probe",
        "publish",
        "read_status",
    ),
    ".promexport": ("openmetrics_text", "write_openmetrics"),
    ".registry": (
        "DEFAULT_REGISTRY_DIR",
        "RunRecord",
        "RunRegistry",
        "diff_runs",
        "records_digest",
    ),
    ".board": ("render_board",),
})
