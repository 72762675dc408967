"""Schedule and trace export: SVG Gantt charts and JSON.

The ASCII Gantt (``Schedule.gantt()``) is good for terminals; this module
renders publication-quality SVG without any dependency — processors as
rows, subtasks as labelled boxes, message transfers as bus-row boxes, and
(optionally) the distributed windows as underlays so window violations are
visible at a glance. Execution traces (from the simulator) render the
same way, with preemption segments drawn individually.

JSON export captures the schedule's raw placement for external tooling.
"""

from __future__ import annotations

import json
from typing import List, Optional
from xml.sax.saxutils import escape

from repro.core.annotations import DeadlineAssignment
from repro.errors import ValidationError
from repro.sched.schedule import Schedule
from repro.sched.simulator import ExecutionTrace
from repro.types import Time

#: Layout constants (pixels).
ROW_HEIGHT = 28
ROW_GAP = 8
MARGIN_LEFT = 64
MARGIN_TOP = 24
MARGIN_BOTTOM = 36
BOX_FILL = "#4C78A8"
BOX_FILL_ALT = "#72A0C1"
WINDOW_FILL = "#E8E8E8"
LATE_FILL = "#C44E52"
MESSAGE_FILL = "#DD8452"
TEXT = "#222222"


def _color(index: int) -> str:
    return BOX_FILL if index % 2 == 0 else BOX_FILL_ALT


def schedule_to_svg(
    schedule: Schedule,
    assignment: Optional[DeadlineAssignment] = None,
    width: int = 900,
) -> str:
    """Render a static schedule as an SVG document.

    With ``assignment`` given, each subtask's distributed window is drawn
    as a grey underlay and deadline-missing subtasks are drawn in red.
    """
    horizon = schedule.makespan()
    if assignment is not None:
        horizon = max(
            horizon,
            max(w.absolute_deadline for w in assignment.windows.values()),
        )
    if horizon <= 0:
        raise ValidationError("cannot render an empty schedule")
    scale = (width - MARGIN_LEFT - 16) / horizon

    rows = schedule.system.n_processors
    has_messages = bool(schedule.messages)
    total_rows = rows + (1 if has_messages else 0)
    height = MARGIN_TOP + total_rows * (ROW_HEIGHT + ROW_GAP) + MARGIN_BOTTOM

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    def row_y(row: int) -> float:
        return MARGIN_TOP + row * (ROW_HEIGHT + ROW_GAP)

    def x_of(t: Time) -> float:
        return MARGIN_LEFT + t * scale

    # Row labels and baselines.
    for proc in range(rows):
        y = row_y(proc)
        parts.append(
            f'<text x="8" y="{y + ROW_HEIGHT / 2 + 4}" fill="{TEXT}">'
            f"P{proc:02d}</text>"
        )
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y + ROW_HEIGHT}" '
            f'x2="{width - 8}" y2="{y + ROW_HEIGHT}" stroke="#CCCCCC"/>'
        )
    if has_messages:
        y = row_y(rows)
        parts.append(
            f'<text x="8" y="{y + ROW_HEIGHT / 2 + 4}" fill="{TEXT}">'
            "net</text>"
        )

    # Window underlays first (so boxes draw over them).
    if assignment is not None:
        for node_id, entry in schedule.tasks.items():
            window = assignment.windows.get(node_id)
            if window is None:
                continue
            y = row_y(entry.processor)
            parts.append(
                f'<rect x="{x_of(window.release):.1f}" y="{y + 4:.1f}" '
                f'width="{max(1.0, (window.relative_deadline) * scale):.1f}" '
                f'height="{ROW_HEIGHT - 8}" fill="{WINDOW_FILL}"/>'
            )

    # Task boxes.
    for index, (node_id, entry) in enumerate(sorted(schedule.tasks.items())):
        y = row_y(entry.processor)
        fill = _color(index)
        if assignment is not None:
            deadline = assignment.windows.get(node_id)
            if deadline is not None and entry.finish > (
                deadline.absolute_deadline + 1e-9
            ):
                fill = LATE_FILL
        parts.append(
            f'<rect x="{x_of(entry.start):.1f}" y="{y + 2:.1f}" '
            f'width="{max(1.0, entry.duration * scale):.1f}" '
            f'height="{ROW_HEIGHT - 4}" fill="{fill}" rx="2"/>'
        )
        parts.append(
            f'<text x="{x_of(entry.start) + 2:.1f}" '
            f'y="{y + ROW_HEIGHT / 2 + 4:.1f}" fill="white">'
            f"{escape(node_id[:12])}</text>"
        )

    # Message boxes on the network row.
    if has_messages:
        y = row_y(rows)
        for (src, dst), message in sorted(schedule.messages.items()):
            for hop in message.hops:
                parts.append(
                    f'<rect x="{x_of(hop.start):.1f}" y="{y + 6:.1f}" '
                    f'width="{max(1.0, (hop.finish - hop.start) * scale):.1f}" '
                    f'height="{ROW_HEIGHT - 12}" fill="{MESSAGE_FILL}" rx="2"/>'
                )
            parts.append(
                f'<text x="{x_of(message.hops[0].start) + 2:.1f}" '
                f'y="{y + ROW_HEIGHT / 2 + 4:.1f}" fill="white">'
                f"{escape(src[:6])}&#8594;{escape(dst[:6])}</text>"
            )

    # Time axis.
    axis_y = row_y(total_rows) + 4
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{width - 8}" '
        f'y2="{axis_y}" stroke="{TEXT}"/>'
    )
    ticks = 8
    for k in range(ticks + 1):
        t = horizon * k / ticks
        parts.append(
            f'<text x="{x_of(t):.1f}" y="{axis_y + 16}" fill="{TEXT}" '
            f'text-anchor="middle">{t:.0f}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def trace_to_svg(trace: ExecutionTrace, width: int = 900) -> str:
    """Render a simulator trace as SVG (per-segment, shows preemptions)."""
    horizon = trace.makespan()
    if horizon <= 0:
        raise ValidationError("cannot render an empty trace")
    scale = (width - MARGIN_LEFT - 16) / horizon
    rows = trace.system.n_processors
    height = MARGIN_TOP + rows * (ROW_HEIGHT + ROW_GAP) + MARGIN_BOTTOM
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    node_index = {n: i for i, n in enumerate(sorted(trace.completions))}
    for proc in range(rows):
        y = MARGIN_TOP + proc * (ROW_HEIGHT + ROW_GAP)
        parts.append(
            f'<text x="8" y="{y + ROW_HEIGHT / 2 + 4}" fill="{TEXT}">'
            f"P{proc:02d}</text>"
        )
    for segment in trace.segments:
        y = MARGIN_TOP + segment.processor * (ROW_HEIGHT + ROW_GAP)
        x = MARGIN_LEFT + segment.start * scale
        parts.append(
            f'<rect x="{x:.1f}" y="{y + 2:.1f}" '
            f'width="{max(1.0, segment.duration * scale):.1f}" '
            f'height="{ROW_HEIGHT - 4}" '
            f'fill="{_color(node_index[segment.node_id])}" rx="2"/>'
        )
        parts.append(
            f'<text x="{x + 2:.1f}" y="{y + ROW_HEIGHT / 2 + 4:.1f}" '
            f'fill="white">{escape(segment.node_id[:12])}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def schedule_to_json(schedule: Schedule, indent: int = 2) -> str:
    """The schedule's raw placement as JSON (for external tooling)."""
    return json.dumps(
        {
            "format": "repro-schedule",
            "version": 1,
            "n_processors": schedule.system.n_processors,
            "makespan": schedule.makespan(),
            "tasks": [
                {
                    "id": t.node_id,
                    "processor": t.processor,
                    "start": t.start,
                    "finish": t.finish,
                }
                for t in sorted(
                    schedule.tasks.values(), key=lambda t: (t.start, t.node_id)
                )
            ],
            "messages": [
                {
                    "src": m.src,
                    "dst": m.dst,
                    "from": m.src_processor,
                    "to": m.dst_processor,
                    "size": m.size,
                    "hops": [
                        {"link": h.link, "start": h.start, "finish": h.finish}
                        for h in m.hops
                    ],
                }
                for m in schedule.messages.values()
            ],
        },
        indent=indent,
    )
