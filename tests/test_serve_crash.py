"""Crash tests for a serve job's record: a stop after every durable write.

A ``repro serve`` job's status stream is its only durable record. Each
job transition — submit, claim, cancel while queued, cancel while
running, and finish as done, failed or cancelled — is written here by
the server's own writer (:class:`~repro.serve.queue.JobLog`), and the
data directory is cut after each of the transition's durable writes,
once clean and once with a torn partial line after the write. At every
cut each reader must see one consistent job:

* ``render_board(read_status(path))`` on the cut stream;
* a restarted :class:`~repro.serve.app.ServiceHandle`, through
  ``GET /v1/jobs/{id}``, ``/result`` (200 only when the job is
  ``done``) and ``events?follow=1`` (ends on ``final`` exactly when the
  state is terminal).

A job the stream shows finished keeps that state. A job it does not is
not finished: the restarted server queues it again, or ends it
``cancelled`` when the stream holds a ``cancel`` line. The restarted
server's run of a re-queued job waits at a gate while the readers look;
then it runs to ``done``, and every state a reader saw on the way must
be in lifecycle order.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.applog import atomic_write_text
from repro.errors import SerializationError
from repro.obs.board import render_board
from repro.obs.live import read_status
from repro.serve.app import ServiceConfig, ServiceHandle
from repro.serve.jobs import JobState
from repro.serve.queue import JobLog, JobPaths
from tests.serve_client import poll_job, request, request_json, tiny_job

JOB = "00000000000000e1"
DOCUMENT = tiny_job(name="crash", seed=9, n_graphs=1)
RESULT = json.dumps({"format": "repro-serve-result", "job": JOB, "records": []}) + "\n"
#: An append cut short: a progress line's first bytes, no newline.
TORN = b'{"done": 1, "kind": "progr'

#: The writes each transition starts from, and the durable writes it
#: makes; the cuts fall after each of the latter.
SCENARIOS = {
    "submit": ([], ["header"]),
    "claim": (["header"], ["running"]),
    "cancel-while-queued": (["header"], ["cancel"]),
    "cancel-while-running": (["header", "running", "progress"], ["cancel"]),
    "finish-done": (
        ["header", "running", "progress", "progress"], ["result", "done"]
    ),
    "finish-failed": (["header", "running", "progress"], ["failed"]),
    "finish-cancelled": (
        ["header", "running", "progress", "cancel", "progress"], ["cancelled"]
    ),
}


def write(step: str, log: JobLog, paths: JobPaths) -> None:
    """Make one write the way the server makes it."""
    if step == "header":
        log.create(JOB, DOCUMENT["name"], DOCUMENT)
    elif step == "running":
        assert log.claim(JOB)
    elif step == "progress":
        log.progress(JOB, log.summary(JOB).get("progress", {}).get("done", 0) + 1, 3)
    elif step == "cancel":
        log.cancel(JOB)
    elif step == "result":
        atomic_write_text(paths.result(JOB), RESULT)
    elif step == JobState.FAILED:
        log.finish(JOB, step, error="RuntimeError: induced failure")
    elif step == JobState.DONE:
        log.finish(JOB, step, records=0, elapsed_seconds=0.01)
    else:
        log.finish(JOB, step)


def read_bytes(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fp:
        return fp.read()


@pytest.fixture(scope="module")
def cuts(tmp_path_factory):
    """``(scenario, stop) -> (stream bytes, result bytes or None)``.

    Stop 0 of ``submit`` is the cut inside its header write: a stream
    file with no complete line.
    """
    out = {("submit", 0): (b"", None)}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fsync", lambda fd: None)
        for scenario, (before, transition) in SCENARIOS.items():
            paths = JobPaths(str(tmp_path_factory.mktemp(scenario)))
            log = JobLog(paths)
            for step in before:
                write(step, log, paths)
            for stop, step in enumerate(transition, start=1):
                write(step, log, paths)
                out[scenario, stop] = (
                    read_bytes(paths.status(JOB)), read_bytes(paths.result(JOB))
                )
    return out


CASES = [("submit", 0, True)] + [
    (scenario, stop, torn)
    for scenario, (_, transition) in SCENARIOS.items()
    for stop in range(1, len(transition) + 1)
    for torn in (False, True)
]


@pytest.fixture
def gate(monkeypatch):
    """Hold every job run of the restarted server until the test opens it."""
    import repro.serve.queue as queue_mod

    opened = threading.Event()
    run = queue_mod.run_experiment

    def gated(config, **kwargs):
        assert opened.wait(60), "the gate never opened"
        return run(config, **kwargs)

    monkeypatch.setattr(queue_mod, "run_experiment", gated)
    return opened


def follow(port: int):
    status, _, body = request(port, "GET", f"/v1/jobs/{JOB}/events?follow=1")
    assert status == 200
    return [json.loads(line) for line in body.decode().splitlines()]


def check_result(port: int, state: str, result) -> None:
    status, _, body = request(port, "GET", f"/v1/jobs/{JOB}/result")
    assert (status == 200) == (state == JobState.DONE)
    if status == 200 and result is not None:
        assert body == result


@pytest.mark.parametrize(
    "scenario, stop, torn", CASES,
    ids=[f"{s}-{n}{'-torn' if t else ''}" for s, n, t in CASES],
)
def test_every_reader_sees_one_consistent_job(
    tmp_path, cuts, gate, scenario, stop, torn
):
    stream, result = cuts[scenario, stop]
    paths = JobPaths(str(tmp_path / "data"))
    path = paths.status(JOB)
    with open(path, "wb") as fp:
        fp.write(stream + (TORN if torn else b""))
    if result is not None:
        with open(paths.result(JOB), "wb") as fp:
            fp.write(result)
    lines = [json.loads(line) for line in stream.splitlines()]
    kinds = [line["kind"] for line in lines]
    finished = lines[-1]["state"] if kinds and kinds[-1] == "final" else None
    # What the stream commits: a final state, a cancel that the next
    # boot ends, or nothing finished (the job runs again).
    committed = finished or (JobState.CANCELLED if "cancel" in kinds else None)

    if not lines:
        with pytest.raises(SerializationError):
            read_status(path)
    else:
        board = render_board(read_status(path))
        assert JOB in board
        assert ("[finished" in board) == (finished is not None)
        if finished is not None:
            assert f"state={finished}" in board

    config = ServiceConfig(
        data_dir=paths.data_dir, workers=1, follow_timeout=0.2
    )
    with ServiceHandle(config) as handle:
        try:
            if not lines:
                # The submit never answered: no job, and no file.
                for method, route in (
                    ("GET", f"/v1/jobs/{JOB}"),
                    ("GET", f"/v1/jobs/{JOB}/result"),
                    ("GET", f"/v1/jobs/{JOB}/events"),
                    ("DELETE", f"/v1/jobs/{JOB}"),
                ):
                    assert request_json(handle.port, method, route)[0] == 404
                assert not os.path.exists(path)
                return

            job = poll_job(handle.port, JOB)
            seen = [job["state"]]
            if committed is not None:
                assert job["state"] == committed
            else:
                assert job["state"] in (JobState.QUEUED, JobState.RUNNING)
            check_result(handle.port, job["state"], result)
            events = follow(handle.port)
            assert events[:len(lines)] == lines  # the torn tail never shows
            terminal = job["state"] in JobState.TERMINAL
            assert (events[-1]["kind"] == "final") == terminal
            if terminal:
                assert events[-1]["state"] == job["state"]
                assert job.get("error") == events[-1].get("error")
        finally:
            gate.set()

        while job["state"] not in JobState.TERMINAL:
            job = poll_job(handle.port, JOB)
            seen.append(job["state"])
        check_result(handle.port, job["state"], result if committed else None)
        events = follow(handle.port)
        assert events[-1]["kind"] == "final"
        assert events[-1]["state"] == job["state"]

    assert job["state"] == (committed or JobState.DONE)
    ranks = [JobState.ORDER[state] for state in seen]
    assert ranks == sorted(ranks), seen

    # The stream the restarted server leaves: the cut's whole lines, then
    # its own appends numbered on from them, and one header.
    after = read_status(path)
    assert after[:len(lines)] == lines
    assert [event["seq"] for event in after] == list(range(len(after)))
    kinds = [event["kind"] for event in after]
    assert kinds.count("header") == 1 and kinds.count("final") == 1
    assert kinds.count("running") == job["attempts"]
    assert "[finished" in render_board(after)

    # A second restart reads the same job back.
    with ServiceHandle(config) as handle:
        again = poll_job(handle.port, JOB)
    assert {k: again[k] for k in ("state", "attempts", "created", "finished")} == {
        k: job[k] for k in ("state", "attempts", "created", "finished")
    }
