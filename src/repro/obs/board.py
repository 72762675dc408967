"""The ``repro top`` status board: render a live status stream as text.

Reads the ``status.jsonl`` a running (or finished) sweep appends to and
renders a terminal snapshot: header, progress bar with rate and ETA, a
sparkline of recent throughput, per-shard liveness rows (from the fleet
probe), and the tail of supervision incidents. ``--once`` prints one
frame; ``--follow`` redraws until the stream's ``final`` line appears.

Pure functions over parsed status events — the CLI owns the terminal;
this module owns the text.
"""

from __future__ import annotations

import glob
import os
import time
from typing import Any, Dict, List, Optional

from repro.errors import SerializationError
from repro.obs.live import STATUS_SUFFIX, read_status

#: Sparkline glyphs, lowest to highest.
SPARKS = "▁▂▃▄▅▆▇█"

#: Width of the progress bar, in cells.
BAR_WIDTH = 30

#: Supervision incidents shown in the tail.
INCIDENT_TAIL = 6

#: Snapshots feeding the throughput sparkline.
SPARK_WINDOW = 24


def find_status_file(path: str) -> str:
    """Resolve a status-stream path from a file or a trace directory.

    A directory resolves to its most recently modified
    ``*.status.jsonl``; a clear :class:`~repro.errors.SerializationError`
    explains an empty directory or a missing file.
    """
    if os.path.isdir(path):
        candidates = sorted(
            glob.glob(os.path.join(path, "*" + STATUS_SUFFIX)),
            key=lambda p: os.path.getmtime(p),
        )
        if not candidates:
            raise SerializationError(
                f"no {STATUS_SUFFIX} stream in {path!r} — was the run "
                "started with --trace?"
            )
        return candidates[-1]
    if not os.path.exists(path):
        raise SerializationError(f"no such status stream: {path!r}")
    return path


def sparkline(values: List[float]) -> str:
    """Render values as a fixed-height unicode sparkline."""
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return SPARKS[0] * len(values)
    out = []
    for v in values:
        idx = int(v / top * (len(SPARKS) - 1) + 0.5)
        out.append(SPARKS[max(0, min(idx, len(SPARKS) - 1))])
    return "".join(out)


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def _shard_rows(snapshot: Dict[str, Any]) -> List[Dict[str, Any]]:
    fleet = (snapshot.get("probes") or {}).get("fleet") or {}
    rows = fleet.get("slots")
    return rows if isinstance(rows, list) else []


def render_board(
    events: List[Dict[str, Any]], now: Optional[float] = None
) -> str:
    """Render one board frame from a parsed status stream."""
    if now is None:
        now = time.time()
    header = events[0]
    statuses = [e for e in events if e["kind"] == "status"]
    incidents = [e for e in events if e["kind"] == "supervision"]
    final = next((e for e in events if e["kind"] == "final"), None)
    progress_events = [e for e in events if e["kind"] == "progress"]

    lines: List[str] = []
    state = "finished" if final is not None else "running"
    last_ts = events[-1].get("ts", now)
    age = max(0.0, now - last_ts)
    staleness = "" if final is not None else f", last update {age:.0f}s ago"
    lines.append(
        f"repro top — {header.get('experiment')} "
        f"(run {header.get('run_id')}, pid {header.get('pid')}) "
        f"[{state}{staleness}]"
    )

    snap = statuses[-1] if statuses else None
    if snap is None:
        lines.append(
            f"  no status snapshots yet "
            f"({len(progress_events)} progress events)"
        )
        return "\n".join(lines + _final_lines(final))

    trials = snap.get("trials", {})
    done, total = trials.get("done", 0), trials.get("total", 0)
    frac = done / total if total else 0.0
    filled = int(frac * BAR_WIDTH + 0.5)
    bar = "#" * filled + "-" * (BAR_WIDTH - filled)
    throughput = snap.get("throughput", {})
    lines.append(
        f"  [{bar}] {done}/{total} trials ({frac:6.1%})  "
        f"{throughput.get('recent', 0.0):.1f}/s  "
        f"eta {_fmt_eta(snap.get('eta_seconds'))}"
    )

    recent = [
        s.get("throughput", {}).get("recent", 0.0)
        for s in statuses[-SPARK_WINDOW:]
    ]
    lines.append(
        f"  throughput {sparkline(recent)} "
        f"(overall {throughput.get('overall', 0.0):.1f}/s, "
        f"wall {snap.get('wall_elapsed', 0.0):.1f}s)"
    )

    phases = snap.get("phases") or {}
    if any(phases.values()):
        busy = sum(phases.values()) or 1.0
        parts = [
            f"{name} {seconds:.2f}s ({seconds / busy:.0%})"
            for name, seconds in sorted(phases.items())
            if seconds
        ]
        lines.append("  phases     " + "  ".join(parts))

    faults = snap.get("faults") or {}
    if any(faults.values()):
        parts = [
            f"{name}={value:g}"
            for name, value in sorted(faults.items())
            if value
        ]
        lines.append("  faults     " + "  ".join(parts))

    rows = _shard_rows(snap)
    if rows:
        lines.append("")
        lines.append(
            f"  {'SHARD':<16} {'STATE':<12} {'PID':>7} {'LAUNCH':>6} "
            f"{'RECORDS':>8} {'HEARTBEAT':>10}"
        )
        for row in rows:
            hb = row.get("heartbeat_age")
            hb_cell = "--" if hb is None else f"{hb:.1f}s"
            pid = row.get("pid")
            lines.append(
                f"  {str(row.get('ident', '?')):<16} "
                f"{str(row.get('state', '?')):<12} "
                f"{str(pid if pid is not None else '--'):>7} "
                f"{row.get('launches', 0):>6} "
                f"{row.get('records_seen', 0):>8} "
                f"{hb_cell:>10}"
            )

    if incidents:
        lines.append("")
        lines.append(f"  supervision incidents ({len(incidents)}):")
        t0 = header.get("ts", 0.0)
        for e in incidents[-INCIDENT_TAIL:]:
            at = e.get("ts", 0.0) - t0
            lines.append(
                f"    t+{at:6.1f}s {e.get('event', '?'):<16} "
                f"{e.get('detail', '')}"
            )
        if len(incidents) > INCIDENT_TAIL:
            lines.append(
                f"    ... {len(incidents) - INCIDENT_TAIL} earlier"
            )

    return "\n".join(lines + _final_lines(final))


def _final_lines(final: Optional[Dict[str, Any]]) -> List[str]:
    """The board's closing lines: the ``final`` line's fields, if any."""
    if final is None:
        return []
    extras = {
        k: v for k, v in final.items()
        if k not in ("kind", "seq", "ts")
    }
    tail = "  ".join(f"{k}={v}" for k, v in sorted(extras.items()))
    return ["", f"  final: {tail}" if tail else "  final"]


def follow(
    path: str,
    render,
    interval: float = 1.0,
    clear: str = "\x1b[2J\x1b[H",
    max_frames: Optional[int] = None,
) -> int:
    """Redraw the board until the stream finishes. Returns frame count.

    ``render`` is called with each frame's text (the CLI passes a
    printer that prefixes the ANSI clear). A vanished or unreadable
    stream raises :class:`~repro.errors.SerializationError` out of the
    loop; ``max_frames`` bounds the loop for tests.
    """
    frames = 0
    while True:
        events = read_status(path)
        render(clear + render_board(events))
        frames += 1
        if any(e["kind"] == "final" for e in events):
            return frames
        if max_frames is not None and frames >= max_frames:
            return frames
        time.sleep(interval)
