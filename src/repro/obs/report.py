"""Human-readable run reports from a telemetry event log.

``repro report <events.jsonl>`` renders what a run did: wall-clock vs.
summed CPU-side phase time (and the parallel efficiency between them;
phase time is read from the run's ``phase.<name>.seconds`` histograms,
the same numbers as ``result.timings``),
the slowest chunks, metric counters, histogram summaries, and per-worker
resource use. Pure text — the machine-readable views are the event log
itself and the Chrome-trace export.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.export import validate_events

#: Chunks listed in the "slowest" table.
TOP_CHUNKS = 8


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:.0f}s"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def _histogram_line(name: str, hist: Dict[str, Any]) -> str:
    n = hist["count"]
    if not n:
        return f"  {name:<36} (empty)"
    mean = hist["sum"] / n
    # Histograms carry no unit; by convention duration-valued metrics put
    # "seconds" in their name (phase.<name>.seconds). Everything else is
    # a plain number (node counts, slice counts, ...).
    if "seconds" in name:
        fmt = _fmt_seconds
    else:
        fmt = "{:g}".format
    return (
        f"  {name:<36} n={n:<7} mean={fmt(mean):>9} "
        f"min={fmt(hist['min']):>9} "
        f"max={fmt(hist['max']):>9}"
    )


def render_run_report(events: List[Dict[str, Any]]) -> str:
    """Render one event log as a human-readable report."""
    validate_events(events)
    header = events[0]
    spans = [e for e in events if e["kind"] == "span"]
    metrics: Optional[Dict[str, Any]] = next(
        (e for e in events if e["kind"] == "metrics"), None
    )
    summary = next((e for e in events if e["kind"] == "summary"), None)
    resources = [e for e in events if e["kind"] == "resource"]
    failures = [e for e in events if e["kind"] == "failure"]

    lines: List[str] = [
        f"run report: {header.get('experiment')} "
        f"(run {header.get('run_id')})",
    ]

    roots = [e for e in spans if e.get("parent") is None]
    wall = sum(e["dur"] for e in roots)
    histograms = (metrics or {}).get("histograms") or {}
    phase_totals: Dict[str, float] = {
        phase: histograms[f"phase.{phase}.seconds"]["sum"]
        for phase in ("generate", "distribute", "schedule")
        if f"phase.{phase}.seconds" in histograms
    }
    busy = sum(phase_totals.values())
    jobs = (summary or {}).get("jobs")
    lines.append(f"  wall-clock elapsed      {_fmt_seconds(wall):>10}")
    lines.append(
        f"  summed phase time       {_fmt_seconds(busy):>10}  "
        "(CPU-side, across workers)"
    )
    if jobs and wall > 0:
        efficiency = busy / (wall * jobs)
        lines.append(
            f"  parallel efficiency     {efficiency:>9.0%}  "
            f"({jobs} worker{'s' if jobs != 1 else ''})"
        )
    for phase in ("generate", "distribute", "schedule"):
        if phase in phase_totals:
            seconds = phase_totals[phase]
            share = seconds / busy if busy else 0.0
            lines.append(
                f"    {phase:<12} {_fmt_seconds(seconds):>10}  "
                f"({share:5.1%})"
            )

    chunks = sorted(
        (e for e in spans if e["name"] == "chunk"),
        key=lambda e: -e["dur"],
    )
    if chunks:
        lines.append("")
        lines.append(f"  slowest chunks (of {len(chunks)}):")
        for e in chunks[:TOP_CHUNKS]:
            attrs = e["attrs"]
            where = (
                f"({attrs.get('scenario')}, graph {attrs.get('index')})"
            )
            lines.append(
                f"    {where:<24} {_fmt_seconds(e['dur']):>10}  "
                f"pid {e['pid']}"
            )

    supervision = {
        name[len("supervision."):]: value
        for name, value in ((metrics or {}).get("counters") or {}).items()
        if name.startswith("supervision.") and value
    }
    if supervision:
        labels = {
            "stalls_detected": "shards stalled (no journal progress)",
            "kills_escalated": "SIGTERM ignored, escalated to SIGKILL",
            "relaunches": "worker relaunches",
            "chunks_replayed": "chunks replayed from journals",
        }
        lines.append("")
        lines.append("  supervision (fault tolerance):")
        for name, value in sorted(supervision.items()):
            label = labels.get(name, name)
            lines.append(f"    {label:<40} {value:>8g}")

    if metrics is not None:
        counters = metrics["counters"]
        if counters:
            lines.append("")
            lines.append("  counters:")
            for name, value in sorted(counters.items()):
                lines.append(f"    {name:<36} {value:>12g}")
        gauges = metrics["gauges"]
        if gauges:
            lines.append("")
            lines.append("  gauges (max across processes):")
            for name, value in sorted(gauges.items()):
                lines.append(f"    {name:<36} {value:>12g}")
        if metrics["histograms"]:
            lines.append("")
            lines.append("  histograms:")
            for name, hist in sorted(metrics["histograms"].items()):
                lines.append("  " + _histogram_line(name, hist))

    if resources:
        lines.append("")
        lines.append("  worker resources (per chunk):")
        by_pid: Dict[int, Dict[str, float]] = {}
        for e in resources:
            agg = by_pid.setdefault(
                e["pid"], {"rss": 0.0, "cpu": 0.0, "chunks": 0}
            )
            agg["rss"] = max(agg["rss"], e["rss_max_kb"])
            agg["cpu"] += e["cpu_user_s"] + e["cpu_system_s"]
            agg["chunks"] += 1
        for pid in sorted(by_pid):
            agg = by_pid[pid]
            lines.append(
                f"    pid {pid:<8} chunks={int(agg['chunks']):<5} "
                f"cpu={_fmt_seconds(agg['cpu']):>9} "
                f"peak rss={agg['rss'] / 1024:.1f}MB"
            )

    if failures:
        lines.append("")
        lines.append(f"  fault events ({len(failures)}):")
        for e in failures[:10]:
            lines.append(
                f"    {e.get('fault_kind', '?'):<12} "
                f"({e.get('scenario')}, graph {e.get('index')}) "
                f"{e.get('message', '')[:60]}"
            )
        if len(failures) > 10:
            lines.append(f"    ... {len(failures) - 10} more")

    if summary is not None:
        lines.append("")
        lines.append("  summary:")
        for key in sorted(summary):
            if key == "kind":
                continue
            lines.append(f"    {key:<24} {summary[key]}")

    return "\n".join(lines)
