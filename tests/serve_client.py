"""Shared helpers for the service test suites.

Every serve test talks to a *real* socket — either a
:class:`~repro.serve.app.ServiceHandle` on a background thread (fast,
in-process, used for lifecycle/adversarial/property tests) or a
``repro serve`` subprocess (used where the test must SIGKILL/SIGTERM a
whole server). These helpers keep the HTTP plumbing and the reference
job documents in one place, and give every poll loop a hard deadline so
a regression shows up as an assertion with context, not a hung suite.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import applog
from repro.feast.runner import run_experiment
from repro.graph.generator import RandomGraphConfig, generate_task_graph
from repro.graph.serialization import graph_to_dict
from repro.obs.live import STATUS_FORMAT, STATUS_VERSION
from repro.serve.jobs import JobState, compile_job

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Generator knobs for near-instant trials (lifecycle plumbing tests).
TINY_GRAPHS = {"n_subtasks_range": [6, 8], "depth_range": [2, 3], "degree_range": [1, 2]}
#: Knobs for multi-second jobs (something must still be running when the
#: test cancels / kills / drains). Paper-sized graphs, several chunks.
SLOW_GRAPHS = {"n_subtasks_range": [40, 60], "depth_range": [8, 12]}


def tiny_job(
    name: str = "tiny",
    seed: int = 1,
    n_graphs: int = 2,
    sizes: Sequence[int] = (2,),
    scenarios: Sequence[str] = ("MDET",),
) -> Dict[str, Any]:
    """A job that completes in well under a second."""
    return {
        "format": "repro-job",
        "version": 1,
        "name": name,
        "workload": {
            "n_graphs": n_graphs,
            "scenarios": list(scenarios),
            "seed": seed,
            "graph_config": dict(TINY_GRAPHS),
        },
        "platform": {"system_sizes": list(sizes)},
        "methods": [{"label": "PURE", "metric": "PURE", "comm": "CCNE"}],
    }


def slow_job(name: str = "slow", seed: int = 3, n_graphs: int = 16) -> Dict[str, Any]:
    """A job spanning 8 chunks of paper-sized graphs (seconds of work)."""
    return {
        "format": "repro-job",
        "version": 1,
        "name": name,
        "workload": {
            "n_graphs": n_graphs,
            "scenarios": ["MDET"],
            "seed": seed,
            "graph_config": dict(SLOW_GRAPHS),
        },
        "platform": {"system_sizes": [2, 3, 4, 5]},
        "methods": [
            {"label": "PURE", "metric": "PURE", "comm": "CCNE"},
            {"label": "NORM", "metric": "NORM", "comm": "CCNE"},
        ],
    }


def explicit_job(name: str = "explicit", seed: int = 0, n: int = 3) -> Dict[str, Any]:
    """A job carrying its graphs inline as repro-taskgraph documents."""
    config = RandomGraphConfig(
        n_subtasks_range=(6, 9), depth_range=(2, 3), degree_range=(1, 2)
    )
    graphs = [
        graph_to_dict(generate_task_graph(config, rng=random.Random(seed + i)))
        for i in range(n)
    ]
    return {
        "format": "repro-job",
        "version": 1,
        "name": name,
        "graphs": graphs,
        "platform": {"system_sizes": [2, 4]},
        "methods": [
            {"label": "PURE", "metric": "PURE", "comm": "CCNE"},
            {"label": "PURE/AA", "metric": "PURE", "comm": "CCAA"},
        ],
    }


def direct_records(document: Dict[str, Any]) -> List[Dict[str, Any]]:
    """What a batch caller gets for the same document — the identity oracle."""
    result = run_experiment(compile_job(document))
    return [record.as_dict() for record in result.records]


def write_stream(
    path: str,
    job_id: str,
    document: Dict[str, Any],
    events: Sequence[Dict[str, Any]],
    torn: bytes = b"",
    created: float = 1000.0,
) -> None:
    """Write a job's status stream as a server would have left it: the
    header holding ``document``, then ``events`` (``kind`` plus fields),
    numbered on from it, then ``torn`` bytes of an append cut short."""
    header = {
        "kind": "header", "format": STATUS_FORMAT, "version": STATUS_VERSION,
        "experiment": document["name"], "run_id": job_id, "created": created,
        "pid": 0, "document": document,
    }
    with open(path, "wb") as fp:
        for seq, event in enumerate([header, *events]):
            line = {"seq": seq, "ts": created + seq, **event}
            fp.write(applog.line(line).encode("utf-8"))
        fp.write(torn)


# -- HTTP client -------------------------------------------------------
def request(
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 60.0,
) -> Tuple[int, Dict[str, str], bytes]:
    """One request; returns (status, lower-cased headers, body bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            data,
        )
    finally:
        conn.close()


def request_json(
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 60.0,
) -> Tuple[int, Dict[str, Any]]:
    body = None
    send_headers = dict(headers or {})
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
        send_headers.setdefault("Content-Type", "application/json")
    status, _, data = request(port, method, path, body, send_headers, timeout)
    return status, json.loads(data) if data else {}


def submit(port: int, document: Dict[str, Any], **kwargs: Any) -> str:
    status, body = request_json(port, "POST", "/v1/jobs", document, **kwargs)
    assert status == 202, f"submit failed: {status} {body}"
    return body["id"]


def poll_job(port: int, job_id: str) -> Dict[str, Any]:
    status, body = request_json(port, "GET", f"/v1/jobs/{job_id}")
    assert status == 200, f"poll failed: {status} {body}"
    return body


def wait_for(
    predicate,
    timeout: float = 60.0,
    interval: float = 0.02,
    message: str = "condition",
):
    """Poll ``predicate`` until it returns a truthy value; hard deadline."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out after {timeout}s waiting for {message}")


def wait_terminal(port: int, job_id: str, timeout: float = 120.0) -> Dict[str, Any]:
    return wait_for(
        lambda: (lambda j: j if j["state"] in JobState.TERMINAL else None)(
            poll_job(port, job_id)
        ),
        timeout=timeout,
        message=f"job {job_id} to reach a terminal state",
    )


def fetch_records(port: int, job_id: str) -> List[Dict[str, Any]]:
    status, body = request_json(port, "GET", f"/v1/jobs/{job_id}/result")
    assert status == 200, f"result fetch failed: {status} {body}"
    return body["records"]


# -- subprocess servers ------------------------------------------------
_ANNOUNCE = re.compile(r"serving on http://[\d.]+:(\d+)")


class ServerProcess:
    """A ``repro serve`` child process with its announce line parsed.

    stderr is drained continuously on a thread (a full pipe would stall
    the server) and kept for failure diagnostics.
    """

    def __init__(self, data_dir: str, *args: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--data-dir", data_dir, *args],
            stderr=subprocess.PIPE,
            env=env,
        )
        self.stderr_lines: List[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.port = int(
            wait_for(self._find_port, timeout=30, message="server announce line")
        )

    def _drain(self) -> None:
        assert self.proc.stderr is not None
        for raw in self.proc.stderr:
            self.stderr_lines.append(raw.decode("utf-8", "replace"))

    def _find_port(self) -> Optional[str]:
        if self.proc.poll() is not None:
            raise AssertionError(
                f"server exited with {self.proc.returncode} before announcing: "
                f"{''.join(self.stderr_lines)}"
            )
        for line in self.stderr_lines:
            match = _ANNOUNCE.search(line)
            if match:
                return match.group(1)
        return None

    def sigkill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def sigterm(self, timeout: float = 120.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
