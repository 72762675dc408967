"""Drive ``repro serve`` from outside: process control and a closed loop.

The server runs as its own process (``python -m repro.cli serve``), so
client threads never share its interpreter lock. Clients form a closed
loop: each submits its next job only after fetching the previous
result, polling every 20 ms. Warm-up jobs run before timing starts. A
failed, refused or lost job is counted, never fatal, and a latency tail
is reported only at a percentile with at least ten samples beyond it.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import ledgerstats  # noqa: E402
from refclock import process_cpu_s  # noqa: E402

#: Client poll interval while a job runs. At 5 ms a job saw about three
#: polls, each contending with the job's own run for the server's
#: interpreter lock, and in the host's slow phases the polls and the run
#: slowed each other: the server's CPU per job rose up to 40% and
#: serve's reference rate spread 17-20% over eight runs. At 20 ms a job
#: sees about one poll, and eight runs in the same phase spread 8%.
POLL_SECONDS = 0.02

#: The reference workload: near-instant trials so a job measures the
#: service path (HTTP, control plane, journal), not the solver.
REFERENCE_GRAPHS = {
    "n_subtasks_range": [6, 8],
    "depth_range": [2, 3],
    "degree_range": [1, 2],
}

#: Trials one reference job runs (2 graphs x 1 scenario x 2 sizes x 1 method).
TRIALS_PER_JOB = 4

_TERMINAL = ("done", "failed", "cancelled")


def reference_job(name: str, seed: int) -> Dict[str, Any]:
    """One reference job document: the shape of
    ``benchmarks/bench_service.py``'s, kept here so a change there cannot
    move this workload or its pinned digest."""
    return {
        "format": "repro-job",
        "version": 1,
        "name": name,
        "workload": {
            "n_graphs": 2,
            "scenarios": ["MDET"],
            "seed": seed,
            "graph_config": dict(REFERENCE_GRAPHS),
        },
        "platform": {"system_sizes": [2, 3]},
        "methods": [{"label": "PURE", "metric": "PURE", "comm": "CCNE"}],
    }


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServeProcess:
    """``repro serve --port 0`` as a child process.

    stderr goes to a log file, not a pipe, so a chatty server can never
    block on a full pipe; the announced port is read from that log.
    """

    def __init__(self, data_dir: str, log_path: str, workers: int = 2,
                 env: Optional[Dict[str, str]] = None) -> None:
        self.data_dir = data_dir
        self.log_path = log_path
        self.workers = workers
        self.env = env
        self.port: Optional[int] = None
        self.proc: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait until ``/v1/healthz`` answers 200; returns the
        seconds from spawn to healthy."""
        os.makedirs(self.data_dir, exist_ok=True)
        began = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--workers", str(self.workers), "--data-dir", self.data_dir],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                env=self.env,
            )
        deadline = time.monotonic() + timeout
        while self.port is None:
            self._check_alive(deadline)
            self.port = self._announced_port()
            if self.port is None:
                time.sleep(0.002)
        while True:
            self._check_alive(deadline)
            try:
                status, _ = request_json(self.port, "GET", "/v1/healthz")
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - began
            time.sleep(0.002)

    def _announced_port(self) -> Optional[int]:
        marker = "serving on http://"
        with open(self.log_path, "rb") as fp:
            text = fp.read().decode("utf-8", "replace")
        at = text.find(marker)
        if at < 0 or "\n" not in text[at:]:
            return None
        url = text[at + len(marker):].split("\n", 1)[0]
        return int(url.rsplit(":", 1)[1])

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"repro serve exited with {self.proc.returncode}: "
                + self.log_tail()
            )
        if time.monotonic() > deadline:
            raise RuntimeError("repro serve did not become healthy in time")

    def log_tail(self, lines: int = 5) -> str:
        try:
            with open(self.log_path, "rb") as fp:
                text = fp.read().decode("utf-8", "replace")
        except OSError:
            return ""
        return " | ".join(text.strip().splitlines()[-lines:])

    def cpu_s(self) -> float:
        """The server's CPU seconds so far."""
        return process_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (``VmHWM``), in MB."""
        with open(f"/proc/{self.proc.pid}/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def stop(self, timeout: float = 60.0) -> int:
        """Graceful SIGTERM drain, SIGKILL if it hangs; waits for exit."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------
def request_json(
    port: int, method: str, path: str,
    payload: Optional[Dict[str, Any]] = None,
) -> Tuple[int, Dict[str, Any]]:
    """One HTTP request on a fresh connection; ``(status, json body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else {}
    finally:
        conn.close()


@dataclass
class JobOutcome:
    """What one closed-loop job observed, client side."""

    document: Dict[str, Any]
    ok: bool = False
    error: str = ""
    #: Submit time, epoch seconds (places the job on a trace timeline).
    began_epoch: float = 0.0
    latency_s: float = 0.0
    submit_s: float = 0.0
    poll_s: List[float] = field(default_factory=list)
    result_s: float = 0.0
    #: Server-side timestamps (epoch seconds) from the final poll.
    created: Optional[float] = None
    started: Optional[float] = None
    finished: Optional[float] = None
    records: List[Dict[str, Any]] = field(default_factory=list)


def run_job(port: int, document: Dict[str, Any],
            timeout: float = 120.0) -> JobOutcome:
    """Submit → poll → fetch one job; never raises on a job failure."""
    out = JobOutcome(document=document, began_epoch=time.time())
    began = time.perf_counter()
    try:
        status, body = request_json(port, "POST", "/v1/jobs", document)
        out.submit_s = time.perf_counter() - began
        if status != 202:
            out.error = f"submit refused: {status} {body}"
            return out
        job_id = body["id"]
        deadline = time.monotonic() + timeout
        while True:
            time.sleep(POLL_SECONDS)
            polled = time.perf_counter()
            status, job = request_json(port, "GET", f"/v1/jobs/{job_id}")
            out.poll_s.append(time.perf_counter() - polled)
            if status != 200:
                out.error = f"poll failed: {status} {job}"
                return out
            if job["state"] in _TERMINAL:
                break
            if time.monotonic() > deadline:
                out.error = f"job {job_id} not finished after {timeout}s"
                return out
        out.created = job.get("created")
        out.started = job.get("started")
        out.finished = job.get("finished")
        if job["state"] != "done":
            out.error = f"job {job_id} ended {job['state']}: {job.get('error')}"
            return out
        fetched = time.perf_counter()
        status, result = request_json(port, "GET", f"/v1/jobs/{job_id}/result")
        out.result_s = time.perf_counter() - fetched
        if status != 200:
            out.error = f"result fetch failed: {status}"
            return out
        out.records = result.get("records") or []
        out.latency_s = time.perf_counter() - began
        out.ok = True
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    return out


@dataclass
class LoopResult:
    """One closed-loop measurement."""

    outcomes: List[JobOutcome]
    wall_s: float

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)


def closed_loop(
    port: int,
    document: Callable[[int], Dict[str, Any]],
    clients: int,
    seconds: Optional[float] = None,
    min_jobs: int = 0,
    max_jobs: Optional[int] = None,
    alive: Callable[[], bool] = lambda: True,
    first: int = 0,
) -> LoopResult:
    """Run ``clients`` closed-loop threads until ``seconds`` have passed
    and ``min_jobs`` jobs were issued, or ``max_jobs`` were issued. Job
    ``i`` submits ``document(i)``; jobs in flight at the deadline finish
    and count. Jobs are numbered from ``first``; outcomes come back in
    job order.
    """
    if seconds is None and max_jobs is None:
        raise ValueError("closed_loop needs seconds or max_jobs")
    numbers = itertools.count(first)
    lock = threading.Lock()
    outcomes: Dict[int, JobOutcome] = {}
    began = time.perf_counter()
    stop_at = None if seconds is None else began + seconds

    def client() -> None:
        while alive():
            with lock:
                i = next(numbers)
                if max_jobs is not None and i >= first + max_jobs:
                    return
                if (stop_at is not None and i >= first + min_jobs
                        and time.perf_counter() >= stop_at):
                    return
            outcome = run_job(port, document(i))
            with lock:
                outcomes[i] = outcome

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    return LoopResult([outcomes[i] for i in sorted(outcomes)], wall)


def summarize_loop(loop: LoopResult) -> Dict[str, Any]:
    """End-to-end and client-side per-layer numbers of one loop."""
    done = loop.completed
    latencies = [o.latency_s * 1000 for o in done]
    row: Dict[str, Any] = {
        "jobs_attempted": loop.attempted,
        "jobs_failed": loop.failed,
        "jobs_completed": len(done),
        "samples": len(latencies),
        "wall_s": loop.wall_s,
        "jobs_per_s": len(done) / loop.wall_s if loop.wall_s > 0 else 0.0,
    }
    if not done:
        return row
    row["trials_per_s"] = row["jobs_per_s"] * TRIALS_PER_JOB
    row["submit_to_result_p50_ms"] = ledgerstats.percentile(latencies, 0.5)
    row["submit_to_result_p99_ms"] = (
        ledgerstats.percentile(latencies, 0.99)
        if ledgerstats.resolvable(len(latencies), 0.99) else None
    )
    found = ledgerstats.tail(latencies)
    row["tail"] = (
        {"q": found[0], "ms": found[1]} if found is not None else None
    )
    polls = [s * 1000 for o in done for s in o.poll_s]
    waits, runs, gaps = [], [], []
    for o in done:
        if None in (o.created, o.started, o.finished):
            continue
        waits.append((o.started - o.created) * 1000)
        runs.append((o.finished - o.started) * 1000)
        gaps.append(o.latency_s * 1000 - (o.finished - o.created) * 1000)
    p50 = ledgerstats.percentile
    row["serve.submit_ms_p50"] = p50([o.submit_s * 1000 for o in done], 0.5)
    row["serve.poll_ms_p50"] = p50(polls, 0.5) if polls else 0.0
    row["serve.result_ms_p50"] = p50([o.result_s * 1000 for o in done], 0.5)
    row["serve.polls_per_job"] = len(polls) / len(done)
    if waits:
        row["serve.queue_wait_ms_p50"] = p50(waits, 0.5)
        row["serve.run_ms_p50"] = p50(runs, 0.5)
        row["serve.client_gap_ms_p50"] = p50(gaps, 0.5)
        total = sum(o.latency_s for o in done) * 1000
        row["serve.queue_wait_share"] = sum(waits) / total
        row["serve.run_share"] = sum(runs) / total
        row["serve.client_gap_share"] = sum(gaps) / total
    return row

