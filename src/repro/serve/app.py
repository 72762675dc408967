"""The service: routing, edge gates, and lifecycle.

``ReproService`` owns every layer below it (job log, worker pool,
metrics, auth, rate limiter) and exposes the versioned API:

========  ==========================  =====================================
method    path                        semantics
========  ==========================  =====================================
POST      /v1/jobs                    submit a job document → 202 + id
GET       /v1/jobs                    most recent jobs, newest first
GET       /v1/jobs/{id}               state + progress
GET       /v1/jobs/{id}/result        the records (409 until terminal)
GET       /v1/jobs/{id}/events        NDJSON status stream (``?follow=1``)
DELETE    /v1/jobs/{id}               cooperative cancel → 202
GET       /v1/healthz                 liveness + queue/job counts
GET       /v1/metrics                 OpenMetrics exposition
========  ==========================  =====================================

Error contract: every failure is the one JSON envelope
``{"error": {"status", "title", "fields": [{"path", "message"}]}}``.
Client-attributable problems are 4xx — the dispatch loop converts
:class:`~repro.serve.http.HttpError` and
:class:`~repro.serve.validation.DocumentError` and catches everything
else as a logged 500, which the adversarial suite pins as unreachable
for malformed input.

Lifecycle: ``run_service`` installs SIGTERM/SIGINT handlers that
trigger a graceful drain (stop accepting, finish in-flight jobs,
persist the rest); ``ServiceHandle`` runs the same service on a
background thread for tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import secrets
import sys
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, AsyncIterator, Optional, Tuple

from repro.errors import ReproError
from repro.obs.promexport import openmetrics_text
from repro.serve import http
from repro.serve.auth import make_auth
from repro.serve.http import HttpError, Request, Response
from repro.serve.jobs import JobState, compile_job
from repro.serve.metrics import ServiceMetrics
from repro.serve.queue import JobLog, JobPaths, WorkerPool
from repro.serve.ratelimit import RateLimiter
from repro.serve.validation import DocumentError, parse_json_strict, validate_job

_JOB_ID = r"(?P<job_id>[0-9a-f]{16})"
_ROUTES: Tuple[Tuple[str, "re.Pattern", str], ...] = tuple(
    (method, re.compile(pattern), name)
    for method, pattern, name in (
        ("GET", r"^/v1/healthz$", "healthz"),
        ("GET", r"^/v1/metrics$", "metrics"),
        ("POST", r"^/v1/jobs$", "submit"),
        ("GET", r"^/v1/jobs$", "list"),
        ("GET", rf"^/v1/jobs/{_JOB_ID}$", "job"),
        ("GET", rf"^/v1/jobs/{_JOB_ID}/result$", "result"),
        ("GET", rf"^/v1/jobs/{_JOB_ID}/events$", "events"),
        ("DELETE", rf"^/v1/jobs/{_JOB_ID}$", "cancel"),
    )
)
#: Routes reachable without credentials: probes and scrapers.
_OPEN_ROUTES = ("healthz", "metrics")
#: Bounds on discarding a rejected request's unread bytes before close.
_DRAIN_BYTES = 8 * 1024 * 1024
_DRAIN_SECONDS = 2.0


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is announced on stderr
    workers: int = 2
    backend: str = "serial"
    shards: int = 2
    queue_size: int = 64
    data_dir: str = "repro-serve-data"
    max_body: int = 2 * 1024 * 1024
    request_timeout: float = 30.0
    auth: str = "none"
    auth_token: Optional[str] = None
    rate_limit: Optional[float] = None
    rate_burst: Optional[float] = None
    #: Upper bound on one ``?follow=1`` events stream, seconds.
    follow_timeout: float = 300.0


async def _drain_unread(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Half-close, then discard what the client is still sending.

    An error response can leave request bytes unread (a 413 never reads
    the body). Closing a socket with unread input sends an RST, which
    can reach the client before it has read the response; waiting for
    the client's EOF, within :data:`_DRAIN_BYTES` and
    :data:`_DRAIN_SECONDS`, lets the response arrive intact.
    """
    if writer.can_write_eof():
        writer.write_eof()
    deadline = time.monotonic() + _DRAIN_SECONDS
    drained = 0
    while drained < _DRAIN_BYTES:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        try:
            chunk = await asyncio.wait_for(reader.read(65536), remaining)
        except asyncio.TimeoutError:
            return
        if not chunk:
            return
        drained += len(chunk)


class ReproService:
    """One service instance bound to one data directory."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.paths = JobPaths(config.data_dir)
        self.jobs = JobLog(self.paths)
        self.metrics = ServiceMetrics()
        self.auth = make_auth(config.auth, config.auth_token)
        self.limiter = (
            RateLimiter(config.rate_limit, config.rate_burst)
            if config.rate_limit is not None
            else None
        )
        self.pool = WorkerPool(
            self.jobs,
            self.metrics,
            workers=config.workers,
            queue_size=config.queue_size,
            backend=config.backend,
            shards=config.shards,
        )
        self.run_id = f"{int(time.time() * 1000):x}-{os.getpid():x}"
        self.port: Optional[int] = None
        self._server: Optional["asyncio.base_events.Server"] = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> int:
        """Bind, recover, and start serving; returns the bound port."""
        resumed = await self.pool.start()
        if resumed:
            print(f"repro serve: resumed {resumed} job(s) from {self.paths.data_dir}",
                  file=sys.stderr, flush=True)
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=max(65536, self.config.max_body),
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def shutdown(self) -> None:
        """Graceful drain: close the listener, finish in-flight jobs."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.pool.drain()

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else "-"
        route = "unmatched"
        started = time.monotonic()
        status = 0
        try:
            try:
                request = await http.read_request(
                    reader,
                    max_header=16384,
                    max_body=self.config.max_body,
                    timeout=self.config.request_timeout,
                    client=client,
                )
                if request is None:
                    return
                route, response = await self._dispatch(request)
            except HttpError as exc:
                response = exc.to_response()
            except DocumentError as exc:
                response = _document_response(exc)
            except ReproError as exc:
                response = HttpError(400, str(exc)).to_response()
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                response = HttpError(
                    500, f"internal error: {type(exc).__name__}"
                ).to_response()
            status = response.status
            await http.write_response(writer, response)
            if status >= 400:
                await _drain_unread(reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.metrics.request(route, status, time.monotonic() - started)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, request: Request) -> Tuple[str, Response]:
        matched_methods = []
        for method, pattern, name in _ROUTES:
            match = pattern.match(request.path)
            if not match:
                continue
            if method != request.method:
                matched_methods.append(method)
                continue
            if name not in _OPEN_ROUTES:
                denial = self.auth(request)
                if denial is not None:
                    raise denial
            handler = getattr(self, f"_route_{name}")
            return name, await handler(request, **match.groupdict())
        if matched_methods:
            raise HttpError(
                405,
                f"method {request.method} not allowed for {request.path}",
                headers={"allow": ", ".join(sorted(set(matched_methods)))},
            )
        raise HttpError(404, f"no route for {request.path}")

    # -- routes --------------------------------------------------------
    async def _route_submit(self, request: Request) -> Response:
        if self.limiter is not None:
            granted, retry_after = self.limiter.allow(request.client)
            if not granted:
                self.metrics.rejected("rate_limited")
                raise HttpError(
                    429,
                    "rate limit exceeded",
                    headers={"retry-after": f"{retry_after:.3f}"},
                )
        content_type = request.header("content-type").split(";")[0].strip().lower()
        if content_type != http.JSON_TYPE:
            self.metrics.rejected("content_type")
            raise HttpError(
                415,
                f"expected content-type {http.JSON_TYPE}, got {content_type or '(none)'}",
            )
        try:
            document = validate_job(parse_json_strict(request.body))
            compile_job(document)  # belt and braces: must not fail post-validation
        except DocumentError:
            self.metrics.rejected("invalid_document")
            raise
        except ReproError as exc:
            self.metrics.rejected("invalid_document")
            raise HttpError(400, str(exc))

        if not self.pool.has_room():
            self.metrics.rejected("queue_full")
            raise HttpError(
                503,
                f"job queue is full ({self.config.queue_size} deep); retry later",
                headers={"retry-after": "1"},
            )
        job_id = secrets.token_hex(8)
        name = document.get("name") or "job"
        self.jobs.create(job_id, name, document)
        self.pool.enqueue(job_id)
        self.metrics.job_submitted()
        location = f"/v1/jobs/{job_id}"
        return Response.json(
            202,
            {"id": job_id, "name": name, "state": JobState.QUEUED, "location": location},
            headers={"location": location},
        )

    async def _route_list(self, request: Request) -> Response:
        return Response.json(200, {"jobs": self.jobs.recent(100)})

    def _summary(self, job_id: str) -> dict:
        job = self.jobs.summary(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id}")
        return job

    async def _route_job(self, request: Request, job_id: str) -> Response:
        return Response.json(200, self._summary(job_id))

    async def _route_result(self, request: Request, job_id: str) -> Response:
        job = self._summary(job_id)
        if job["state"] != JobState.DONE:
            raise HttpError(
                409,
                f"job {job_id} is {job['state']}, not done",
                state=job["state"],
                **({"detail": job["error"]} if "error" in job else {}),
            )
        with open(self.paths.result(job_id), "rb") as fp:
            body = fp.read()
        return Response(status=200, body=body, content_type=http.JSON_TYPE)

    async def _route_cancel(self, request: Request, job_id: str) -> Response:
        state = self._summary(job_id)["state"]
        if state in JobState.TERMINAL:
            raise HttpError(409, f"job {job_id} is already {state}", state=state)
        state = self.jobs.cancel(job_id)
        return Response.json(
            202, {"id": job_id, "state": state, "cancel_requested": True}
        )

    async def _route_events(self, request: Request, job_id: str) -> Response:
        self._summary(job_id)  # 404 for an unknown id
        follow = request.query_flag("follow")
        stream = self._event_stream(job_id, follow)
        return Response(status=200, content_type=http.NDJSON_TYPE, stream=stream)

    async def _event_stream(self, job_id: str, follow: bool) -> AsyncIterator[bytes]:
        """Yield whole status lines; with ``follow``, tail until ``final``.

        Reads only up to the last newline, so a line being appended, or
        one a crash tore, is never forwarded half-written. ``final`` is
        the last line a stream ever gets, so a follower that has
        forwarded it is done.
        """
        path = self.paths.status(job_id)
        position = 0
        deadline = time.monotonic() + self.config.follow_timeout
        while True:
            with open(path, "rb") as fp:
                fp.seek(position)
                chunk = fp.read()
            chunk = chunk[: chunk.rfind(b"\n") + 1]
            position += len(chunk)
            if chunk:
                yield chunk
                last = chunk[chunk.rfind(b"\n", 0, -1) + 1:]
                if json.loads(last)["kind"] == "final":
                    return
            if not follow or time.monotonic() > deadline:
                return
            if not chunk:
                await asyncio.sleep(0.05)

    async def _route_healthz(self, request: Request) -> Response:
        return Response.json(
            200,
            {
                "status": "ok",
                "run_id": self.run_id,
                "uptime_seconds": time.time() - self.metrics.started,
                "workers": self.pool.workers,
                "backend": self.pool.backend,
                "queue_depth": self.pool.queue.qsize(),
                "jobs": self.jobs.counts(),
            },
        )

    async def _route_metrics(self, request: Request) -> Response:
        self.metrics.queue_depth(self.pool.queue.qsize())
        text = openmetrics_text(
            registry=self.metrics.snapshot(),
            experiment="serve",
            run_id=self.run_id,
        )
        return Response(
            status=200,
            body=text.encode("utf-8"),
            content_type="application/openmetrics-text; version=1.0.0; charset=utf-8",
        )


def _document_response(exc: DocumentError) -> Response:
    error = {"status": 400, "title": exc.title,
             "fields": [{"path": p, "message": m} for p, m in exc.fields]}
    return Response.json(400, {"error": error})


async def _serve_until_stopped(service: ReproService, announce: bool) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix loop or nested loop: rely on KeyboardInterrupt
    port = await service.start()
    if announce:
        print(
            f"repro serve: serving on http://{service.config.host}:{port}",
            file=sys.stderr, flush=True,
        )
    try:
        await stop.wait()
        if announce:
            print("repro serve: draining", file=sys.stderr, flush=True)
    finally:
        await service.shutdown()


def run_service(config: ServiceConfig, announce: bool = True) -> int:
    """Blocking entry point used by ``repro serve``."""
    service = ReproService(config)
    try:
        asyncio.run(_serve_until_stopped(service, announce))
    except KeyboardInterrupt:
        pass
    return 0


class ServiceHandle:
    """An in-process service on a background thread (tests, benchmarks).

    Usage::

        with ServiceHandle(ServiceConfig(data_dir=...)) as handle:
            ...  # HTTP against 127.0.0.1:handle.port

    ``stop()`` performs the same graceful drain as SIGTERM.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.port: Optional[int] = None
        self._started = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True
        )

    def start(self) -> "ServiceHandle":
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        if self._error is not None:
            raise RuntimeError(f"service failed to start: {self._error!r}")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("service failed to drain in time")

    def __enter__(self) -> "ServiceHandle":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:
            self._error = exc
            self._started.set()

    async def _amain(self) -> None:
        service = ReproService(self.config)
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.port = await service.start()
        except BaseException as exc:
            self._error = exc
            self._started.set()
            return
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await service.shutdown()
