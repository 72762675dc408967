"""Concurrency and graceful-shutdown behavior of the service.

Two failure families a single-client lifecycle test can't see:

* **interleaving** — N clients with overlapping jobs must each get
  exactly their own records (worker pools sharing one process make
  cross-contamination the default failure mode, not an exotic one),
  and every observer must see job states move monotonically forward;
* **shutdown** — SIGTERM must drain: the in-flight job finishes and
  persists, queued jobs stay queued, and a restarted server picks them
  up and completes them. Progress must never be lost to a *polite*
  shutdown (the SIGKILL case lives in test_serve.py).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.obs.live import read_status
from repro.serve.app import ServiceConfig, ServiceHandle
from repro.serve.jobs import JobState
from repro.serve.queue import JobLog, JobPaths
from tests.serve_client import (
    SRC_DIR,
    ServerProcess,
    direct_records,
    fetch_records,
    poll_job,
    request_json,
    slow_job,
    submit,
    tiny_job,
    wait_for,
    wait_terminal,
)


class TestConcurrentClients:
    def test_overlapping_jobs_isolated_and_monotonic(self, tmp_path):
        """Six clients, four workers: every client gets its own job's
        records, and no poller ever sees a state move backwards."""
        config = ServiceConfig(data_dir=str(tmp_path / "data"), workers=4)
        documents = [
            tiny_job(name=f"client-{i}", seed=100 + i, n_graphs=2, sizes=(2, 3))
            for i in range(6)
        ]
        outcomes = [None] * len(documents)

        def client(i: int) -> None:
            try:
                job_id = submit(handle.port, documents[i])
                states = []
                deadline = time.monotonic() + 120
                while time.monotonic() < deadline:
                    state = poll_job(handle.port, job_id)["state"]
                    if not states or states[-1] != state:
                        states.append(state)
                    if state in JobState.TERMINAL:
                        break
                    time.sleep(0.01)
                records = fetch_records(handle.port, job_id)
                outcomes[i] = {"states": states, "records": records}
            except BaseException as exc:  # surfaced by the main thread
                outcomes[i] = {"error": repr(exc)}

        with ServiceHandle(config) as handle:
            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(documents))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)

        for i, outcome in enumerate(outcomes):
            assert outcome is not None, f"client {i} never finished"
            assert "error" not in outcome, (i, outcome)
            assert outcome["states"][-1] == JobState.DONE, (i, outcome["states"])
            ranks = [JobState.ORDER[state] for state in outcome["states"]]
            assert ranks == sorted(ranks), (i, outcome["states"])
            assert outcome["records"] == direct_records(documents[i]), i

    def test_full_queue_is_503_with_retry_after(self, tmp_path):
        config = ServiceConfig(
            data_dir=str(tmp_path / "data"), workers=1, queue_size=2
        )
        with ServiceHandle(config) as handle:
            running = submit(handle.port, slow_job(name="hog", seed=61))
            wait_for(
                lambda: poll_job(handle.port, running)["state"] == JobState.RUNNING,
                message="the hog job to start",
            )
            queued = [
                submit(handle.port, tiny_job(name=f"q{i}", seed=70 + i))
                for i in range(2)
            ]
            status, body = request_json(
                handle.port, "POST", "/v1/jobs", tiny_job(name="overflow", seed=80)
            )
            assert status == 503
            assert body["error"]["status"] == 503

            # rejected submissions leave no orphan rows behind
            status, listing = request_json(handle.port, "GET", "/v1/jobs")
            names = [job["name"] for job in listing["jobs"]]
            assert "overflow" not in names

            for job_id in [running] + queued:
                request_json(handle.port, "DELETE", f"/v1/jobs/{job_id}")
            for job_id in [running] + queued:
                wait_terminal(handle.port, job_id)


    def test_refused_submit_leaves_no_record(self, tmp_path):
        """A 503 is decided before anything is written: the refused job
        has no status stream, so no restarted server ever runs it."""
        config = ServiceConfig(
            data_dir=str(tmp_path / "data"), workers=1, queue_size=1
        )
        jobs_dir = tmp_path / "data" / "jobs"
        with ServiceHandle(config) as handle:
            hog = submit(handle.port, slow_job(name="hog", seed=62, n_graphs=64))
            wait_for(
                lambda: poll_job(handle.port, hog)["state"] == JobState.RUNNING,
                message="the hog job to start",
            )
            parked = submit(handle.port, tiny_job(name="parked", seed=71))
            status, _ = request_json(
                handle.port, "POST", "/v1/jobs", tiny_job(name="overflow", seed=81)
            )
            assert status == 503
            streams = sorted(p.name for p in jobs_dir.glob("*.status.jsonl"))
            assert streams == sorted(
                f"{job_id}.status.jsonl" for job_id in (hog, parked)
            )
            request_json(handle.port, "DELETE", f"/v1/jobs/{hog}")
            wait_terminal(handle.port, hog)

        with ServiceHandle(config) as handle:
            assert wait_terminal(handle.port, parked)["state"] == JobState.DONE
            status, listing = request_json(handle.port, "GET", "/v1/jobs")
            assert sorted(job["id"] for job in listing["jobs"]) == sorted(
                [hog, parked]
            )
            assert "overflow" not in [job["name"] for job in listing["jobs"]]
        assert sorted(p.name for p in jobs_dir.glob("*.status.jsonl")) == streams


    def test_cancel_racing_claim_has_one_winner(self, tmp_path, monkeypatch):
        """Claimers and cancellers on more threads than cores, switching
        every microsecond: each job is either claimed (``running``, then
        the cancel's ``cancel`` line) or cancelled while queued
        (``final cancelled``, never claimed), and its stream numbers
        every line once."""
        monkeypatch.setattr(os, "fsync", lambda fd: None)
        jobs = JobLog(JobPaths(str(tmp_path / "data")))
        ids = [f"{i:016x}" for i in range(64)]
        for job_id in ids:
            jobs.create(job_id, "race", {"name": "race"})
        claimed = []

        def claimer() -> None:
            claimed.extend(job_id for job_id in ids if jobs.claim(job_id))

        def canceller() -> None:
            for job_id in reversed(ids):
                jobs.cancel(job_id)

        threads = [threading.Thread(target=fn) for fn in (claimer, canceller) * 4]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        assert len(claimed) == len(set(claimed))
        for job_id in ids:
            events = read_status(os.path.join(jobs.paths.jobs_dir,
                                              f"{job_id}.status.jsonl"))
            kinds = [event["kind"] for event in events]
            assert [event["seq"] for event in events] == list(range(len(events)))
            state = jobs.summary(job_id)["state"]
            if job_id in claimed:
                assert kinds == ["header", "running", "cancel"], job_id
                assert state == JobState.RUNNING
            else:
                assert kinds == ["header", "final"], job_id
                assert events[-1]["state"] == state == JobState.CANCELLED


class TestGracefulShutdown:
    def test_sigterm_drains_running_persists_queued(self, tmp_path):
        data_dir = str(tmp_path / "data")
        running_doc = slow_job(name="draining", seed=67)
        queued_docs = [tiny_job(name=f"parked-{i}", seed=90 + i) for i in range(2)]

        with ServerProcess(data_dir, "--workers", "1") as first:
            running_id = submit(first.port, running_doc)
            wait_for(
                lambda: poll_job(first.port, running_id)
                .get("progress", {})
                .get("done", 0)
                > 0,
                message="the draining job to make progress",
            )
            queued_ids = [submit(first.port, doc) for doc in queued_docs]
            for job_id in queued_ids:
                assert poll_job(first.port, job_id)["state"] == JobState.QUEUED

            exit_code = first.sigterm(timeout=120)
            assert exit_code == 0, "".join(first.stderr_lines)

        # The drained server finished its in-flight job and wrote the
        # result; the queued jobs were persisted untouched. A restart
        # proves both by serving the former and completing the latter.
        with ServerProcess(data_dir, "--workers", "1") as second:
            final = poll_job(second.port, running_id)
            assert final["state"] == JobState.DONE
            assert final["attempts"] == 1  # finished by generation one
            records = fetch_records(second.port, running_id)
            assert json.dumps(records, sort_keys=True) == json.dumps(
                direct_records(running_doc), sort_keys=True
            )

            for job_id, document in zip(queued_ids, queued_docs):
                assert wait_terminal(second.port, job_id)["state"] == JobState.DONE
                assert fetch_records(second.port, job_id) == direct_records(document)

    def test_queued_jobs_resume_in_submission_order(self, tmp_path):
        """Jobs still queued at SIGTERM run after the restart in the
        order they were submitted (header ``created``), not in id order."""
        data_dir = str(tmp_path / "data")
        documents = [tiny_job(name=f"order-{i}", seed=110 + i) for i in range(5)]

        with ServerProcess(data_dir, "--workers", "1") as first:
            hog = submit(first.port, slow_job(name="hog", seed=69, n_graphs=160))
            wait_for(
                lambda: poll_job(first.port, hog)["state"] == JobState.RUNNING,
                message="the hog job to start",
            )
            queued = [submit(first.port, doc) for doc in documents]
            for job_id in queued:
                assert poll_job(first.port, job_id)["state"] == JobState.QUEUED
            assert first.sigterm(timeout=120) == 0, "".join(first.stderr_lines)

        with ServerProcess(data_dir, "--workers", "1") as second:
            finals = [wait_terminal(second.port, job_id) for job_id in queued]
        assert [job["state"] for job in finals] == [JobState.DONE] * len(queued)
        assert [job["attempts"] for job in finals] == [1] * len(queued)
        started = [job["started"] for job in finals]
        assert started == sorted(started)


class TestBootRefusal:
    def test_data_dir_with_a_job_store_is_refused(self, tmp_path):
        """A data directory an older server kept a SQLite job store in is
        not migrated: ``repro serve`` exits naming the file, so the
        jobs queued there are never dropped silently."""
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        store = data_dir / "jobs.sqlite"
        store.write_bytes(b"")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--data-dir", str(data_dir)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert str(store) in proc.stderr
        assert sorted(p.name for p in data_dir.iterdir()) == ["jobs.sqlite"]
