"""Task-graph serialization: JSON round-trip and Graphviz DOT export.

The JSON schema is versioned and intentionally simple::

    {
      "format": "repro-taskgraph",
      "version": 1,
      "name": "...",
      "subtasks": [{"id": ..., "wcet": ..., "release": ...,
                    "end_to_end_deadline": ..., "pinned_to": ...}, ...],
      "edges": [{"src": ..., "dst": ..., "message_size": ...}, ...]
    }
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO

from repro.errors import SerializationError
from repro.graph.taskgraph import TaskGraph

FORMAT = "repro-taskgraph"
VERSION = 1


def graph_to_dict(graph: TaskGraph) -> Dict[str, Any]:
    """Encode a graph as a JSON-serializable dict."""
    return {
        "format": FORMAT,
        "version": VERSION,
        "name": graph.name,
        "subtasks": [
            {
                "id": s.node_id,
                "wcet": s.wcet,
                "release": s.release,
                "end_to_end_deadline": s.end_to_end_deadline,
                "pinned_to": s.pinned_to,
            }
            for s in graph.nodes()
        ],
        "edges": [
            {"src": m.src, "dst": m.dst, "message_size": m.size}
            for m in graph.messages()
        ],
    }


def graph_from_dict(data: Dict[str, Any]) -> TaskGraph:
    """Decode a graph from :func:`graph_to_dict`'s representation."""
    if not isinstance(data, dict):
        raise SerializationError(f"expected a dict, got {type(data).__name__}")
    if data.get("format") != FORMAT:
        raise SerializationError(
            f"not a {FORMAT} document (format={data.get('format')!r})"
        )
    if data.get("version") != VERSION:
        raise SerializationError(
            f"unsupported version {data.get('version')!r}; this build reads {VERSION}"
        )
    try:
        graph = TaskGraph(name=data.get("name", "taskgraph"))
        for s in data["subtasks"]:
            graph.add_subtask(
                s["id"],
                wcet=s["wcet"],
                release=s.get("release"),
                end_to_end_deadline=s.get("end_to_end_deadline"),
                pinned_to=s.get("pinned_to"),
            )
        for e in data["edges"]:
            graph.add_edge(e["src"], e["dst"], message_size=e.get("message_size", 0.0))
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed task-graph document: {exc}") from exc
    return graph


def dumps(graph: TaskGraph, indent: int = 2) -> str:
    """Serialize a graph to a JSON string."""
    return json.dumps(graph_to_dict(graph), indent=indent)


def loads(text: str) -> TaskGraph:
    """Parse a graph from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return graph_from_dict(data)


def dump(graph: TaskGraph, fp: IO[str], indent: int = 2) -> None:
    """Serialize a graph to an open text file."""
    fp.write(dumps(graph, indent=indent))


def load(fp: IO[str]) -> TaskGraph:
    """Parse a graph from an open text file."""
    return loads(fp.read())


def to_dot(graph: TaskGraph) -> str:
    """Render the graph in Graphviz DOT format (for visual inspection).

    Node labels show the execution time; edge labels show the message size
    when non-zero. Pinned subtasks are drawn as boxes.
    """
    lines = [f'digraph "{graph.name}" {{', "  rankdir=TB;"]
    for s in graph.nodes():
        shape = "box" if s.is_pinned else "ellipse"
        pin = f"\\npin={s.pinned_to}" if s.is_pinned else ""
        lines.append(
            f'  "{s.node_id}" [shape={shape}, label="{s.node_id}\\nc={s.wcet:g}{pin}"];'
        )
    for m in graph.messages():
        label = f' [label="{m.size:g}"]' if m.size else ""
        lines.append(f'  "{m.src}" -> "{m.dst}"{label};')
    lines.append("}")
    return "\n".join(lines)
