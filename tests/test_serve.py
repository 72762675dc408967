"""End-to-end lifecycle tests for ``repro.serve`` over a real socket.

The service's whole value is a contract: anything submitted over HTTP
produces *exactly* what a direct :func:`~repro.feast.runner.run_experiment`
call produces, survives server death, and can always be cancelled. These
tests exercise that contract the way a client would — ephemeral port,
real requests, no reaching into service internals except to assert on
the durable artifacts (journal, status stream) the restart tests
depend on.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.obs.live import read_status
from repro.serve.app import ServiceConfig, ServiceHandle
from repro.serve.jobs import JobState
from repro.serve.queue import JobLog, JobPaths
from tests.serve_client import (
    ServerProcess,
    direct_records,
    explicit_job,
    fetch_records,
    poll_job,
    request,
    request_json,
    slow_job,
    submit,
    tiny_job,
    wait_for,
    wait_terminal,
    write_stream,
)


@pytest.fixture
def server(tmp_path):
    config = ServiceConfig(data_dir=str(tmp_path / "data"), workers=2)
    with ServiceHandle(config) as handle:
        yield handle


class TestLifecycle:
    def test_submit_poll_result(self, server):
        document = tiny_job(name="lifecycle", seed=11, sizes=(2, 3))
        status, body = request_json(server.port, "POST", "/v1/jobs", document)
        assert status == 202
        assert body["state"] == JobState.QUEUED
        assert body["name"] == "lifecycle"
        job_id = body["id"]
        assert body["location"] == f"/v1/jobs/{job_id}"

        final = wait_terminal(server.port, job_id)
        assert final["state"] == JobState.DONE
        assert final["progress"]["done"] == final["progress"]["total"]
        assert final["started"] >= final["created"]
        assert final["finished"] >= final["started"]

        records = fetch_records(server.port, job_id)
        assert records == direct_records(document)

        status, listing = request_json(server.port, "GET", "/v1/jobs")
        assert status == 200
        assert job_id in [job["id"] for job in listing["jobs"]]

    def test_result_bytes_identical_to_direct_run(self, server):
        """Byte-level, not just structural: the serialized record arrays
        must be the same bytes a batch caller would persist."""
        document = tiny_job(name="bytes", seed=23, n_graphs=3, sizes=(2, 4))
        job_id = submit(server.port, document)
        assert wait_terminal(server.port, job_id)["state"] == JobState.DONE

        served = json.dumps(fetch_records(server.port, job_id), sort_keys=True)
        direct = json.dumps(direct_records(document), sort_keys=True)
        assert served.encode("utf-8") == direct.encode("utf-8")

    def test_explicit_graph_documents(self, server):
        """Graphs shipped inline (repro-taskgraph schema) round-trip to
        the same records as compiling the document locally."""
        document = explicit_job(seed=5)
        job_id = submit(server.port, document)
        assert wait_terminal(server.port, job_id)["state"] == JobState.DONE
        assert fetch_records(server.port, job_id) == direct_records(document)

    def test_result_before_done_is_conflict_not_error(self, server):
        job_id = submit(server.port, slow_job(seed=31))
        status, body = request_json(server.port, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 409
        assert body["error"]["state"] in (JobState.QUEUED, JobState.RUNNING)
        # cancel so teardown's drain doesn't sit through the full sweep
        request_json(server.port, "DELETE", f"/v1/jobs/{job_id}")
        wait_terminal(server.port, job_id)

    def test_healthz_and_metrics(self, server):
        job_id = submit(server.port, tiny_job(seed=7))
        wait_terminal(server.port, job_id)

        status, health = request_json(server.port, "GET", "/v1/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["jobs"].get(JobState.DONE, 0) >= 1
        assert health["workers"] == 2

        status, headers, body = request(server.port, "GET", "/v1/metrics")
        assert status == 200
        assert "openmetrics" in headers["content-type"]
        text = body.decode("utf-8")
        assert text.rstrip().endswith("# EOF")
        assert "repro_serve_requests_total" in text
        assert "repro_serve_job_seconds" in text
        assert "repro_serve_queue_depth" in text

    def test_events_stream_shape(self, server):
        document = tiny_job(name="events", seed=13)
        job_id = submit(server.port, document)
        wait_terminal(server.port, job_id)

        status, headers, body = request(
            server.port, "GET", f"/v1/jobs/{job_id}/events"
        )
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        events = [json.loads(line) for line in body.decode().splitlines()]
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "header"
        assert kinds[-1] == "final"
        assert "progress" in kinds
        assert events[-1]["state"] == JobState.DONE
        sequences = [event["seq"] for event in events]
        assert sequences == sorted(sequences)

    def test_events_follow_tails_until_terminal(self, server):
        job_id = submit(server.port, tiny_job(name="follow", seed=17))
        status, _, body = request(
            server.port, "GET", f"/v1/jobs/{job_id}/events?follow=1"
        )
        assert status == 200
        events = [json.loads(line) for line in body.decode().splitlines()]
        assert events[-1]["kind"] == "final"
        assert events[-1]["state"] == JobState.DONE

    def test_events_follow_ends_with_final_when_close_is_slow(
        self, server, monkeypatch
    ):
        """A slow ``final`` append must not let a follower stop short: it
        tails the stream until it has forwarded the ``final`` line."""
        finish = JobLog.finish

        def slow_finish(jobs, job_id, state, **fields):
            time.sleep(0.5)
            return finish(jobs, job_id, state, **fields)

        monkeypatch.setattr(JobLog, "finish", slow_finish)
        job_id = submit(server.port, tiny_job(name="slow-close", seed=19))
        status, _, body = request(
            server.port, "GET", f"/v1/jobs/{job_id}/events?follow=1"
        )
        assert status == 200
        events = [json.loads(line) for line in body.decode().splitlines()]
        assert events[-1]["kind"] == "final"
        assert events[-1]["state"] == JobState.DONE


class TestCancel:
    def test_cancel_mid_run(self, server):
        document = slow_job(name="cancel-me", seed=41)
        job_id = submit(server.port, document)
        # Let real work start so this exercises the cooperative path,
        # not the queued shortcut.
        wait_for(
            lambda: poll_job(server.port, job_id).get("progress", {}).get("done", 0) > 0,
            message="first completed chunk",
        )
        status, body = request_json(server.port, "DELETE", f"/v1/jobs/{job_id}")
        assert status == 202
        assert body["cancel_requested"] is True

        final = wait_terminal(server.port, job_id)
        assert final["state"] == JobState.CANCELLED
        assert final["progress"]["done"] < final["progress"]["total"]

        status, body = request_json(server.port, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 409
        assert body["error"]["state"] == JobState.CANCELLED

        # cancelling a terminal job is a conflict, not a repeat
        status, body = request_json(server.port, "DELETE", f"/v1/jobs/{job_id}")
        assert status == 409

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        config = ServiceConfig(data_dir=str(tmp_path / "data"), workers=1)
        with ServiceHandle(config) as handle:
            blocker = submit(handle.port, slow_job(name="blocker", seed=43))
            queued = submit(handle.port, tiny_job(name="victim", seed=44))
            status, body = request_json(handle.port, "DELETE", f"/v1/jobs/{queued}")
            assert status == 202
            assert body["state"] == JobState.CANCELLED
            assert poll_job(handle.port, queued)["state"] == JobState.CANCELLED
            request_json(handle.port, "DELETE", f"/v1/jobs/{blocker}")
            wait_terminal(handle.port, blocker)

    def test_unknown_job_is_404_everywhere(self, server):
        ghost = "00000000000000aa"
        for method, path in (
            ("GET", f"/v1/jobs/{ghost}"),
            ("GET", f"/v1/jobs/{ghost}/result"),
            ("GET", f"/v1/jobs/{ghost}/events"),
            ("DELETE", f"/v1/jobs/{ghost}"),
        ):
            status, body = request_json(server.port, method, path)
            assert status == 404, (method, path)
            assert body["error"]["status"] == 404


class TestFailedJobs:
    """done means *complete* — a run the engine could not fully finish
    must land ``failed`` with the cause, never ``done`` with a gap."""

    def test_runtime_failure_lands_failed_with_error(self, tmp_path, monkeypatch):
        import repro.serve.queue as queue_mod

        def boom(config, **kwargs):
            raise RuntimeError("induced backend failure")

        monkeypatch.setattr(queue_mod, "run_experiment", boom)
        config = ServiceConfig(data_dir=str(tmp_path / "data"), workers=1)
        with ServiceHandle(config) as handle:
            job_id = submit(handle.port, tiny_job(name="doomed", seed=3))
            final = wait_terminal(handle.port, job_id)
            assert final["state"] == JobState.FAILED
            assert "induced backend failure" in final["error"]
            status, body = request_json(
                handle.port, "GET", f"/v1/jobs/{job_id}/result"
            )
            assert status == 409
            assert body["error"]["state"] == JobState.FAILED
            assert "induced backend failure" in body["error"]["detail"]

    def test_quarantined_chunks_fail_the_job(self, tmp_path, monkeypatch):
        """The supervised engine quarantines deterministically-failing
        chunks and returns a *partial* result; served as-is that would
        silently violate byte-identity, so the job must fail instead."""
        import types

        import repro.serve.queue as queue_mod

        fake = types.SimpleNamespace(quarantined=[("MDET", 0)], failures=[])
        monkeypatch.setattr(
            queue_mod, "run_experiment", lambda config, **kwargs: fake
        )
        config = ServiceConfig(data_dir=str(tmp_path / "data"), workers=1)
        with ServiceHandle(config) as handle:
            job_id = submit(handle.port, tiny_job(name="partial", seed=5))
            final = wait_terminal(handle.port, job_id)
            assert final["state"] == JobState.FAILED
            assert "quarantined" in final["error"]
            status, body = request_json(
                handle.port, "GET", f"/v1/jobs/{job_id}/result"
            )
            assert status == 409


class TestRestartResume:
    def test_sigkill_and_restart_completes_from_journal(self, tmp_path):
        """The acceptance criterion: a killed-and-restarted server
        finishes its in-flight job from the checkpoint journal, and the
        result is byte-identical to an uninterrupted direct run."""
        data_dir = str(tmp_path / "data")
        document = slow_job(name="survivor", seed=47)

        with ServerProcess(data_dir) as first:
            job_id = submit(first.port, document)
            checkpoint = os.path.join(
                data_dir, "jobs", job_id, "shard-0-of-1.ckpt"
            )
            # at least one chunk journaled (header line + chunk line),
            # so the restart genuinely resumes rather than restarts
            wait_for(
                lambda: os.path.exists(checkpoint)
                and sum(1 for _ in open(checkpoint)) >= 2,
                message="a journaled chunk",
            )
            first.sigkill()

        with ServerProcess(data_dir) as second:
            final = wait_terminal(second.port, job_id)
            assert final["state"] == JobState.DONE
            assert final["attempts"] == 2  # one per server generation
            records = fetch_records(second.port, job_id)

        direct = direct_records(document)
        assert json.dumps(records, sort_keys=True) == json.dumps(direct, sort_keys=True)

        # The restarted server appended to the killed server's stream
        # (after cutting any torn tail), numbering on from its last line.
        events = read_status(os.path.join(data_dir, "jobs", f"{job_id}.status.jsonl"))
        kinds = [event["kind"] for event in events]
        assert kinds.count("header") == 1 and kinds[0] == "header"
        assert kinds.count("running") == 2
        assert kinds[-1] == "final"
        assert [event["seq"] for event in events] == list(range(len(events)))

    def test_restart_closes_the_stream_of_a_job_cancelled_while_down(
        self, tmp_path
    ):
        """A server killed while a cancel waits for the running job's next
        checkpoint leaves a stream with a ``cancel`` line, no ``final``
        line and perhaps a torn tail. The restarted server cuts the tail
        and ends the stream with ``final … cancelled``, so a follower
        still ends on ``final``."""
        paths = JobPaths(str(tmp_path / "data"))
        job_id = "00000000000000c1"
        write_stream(
            paths.status(job_id), job_id,
            tiny_job(name="cut-short", seed=7),
            [{"kind": "running"},
             {"kind": "progress", "done": 1, "total": 4},
             {"kind": "cancel"}],
            torn=b'{"kind": "progr',
        )

        config = ServiceConfig(data_dir=paths.data_dir, workers=1)
        with ServiceHandle(config) as handle:
            assert poll_job(handle.port, job_id)["state"] == JobState.CANCELLED
            status, _, body = request(
                handle.port, "GET", f"/v1/jobs/{job_id}/events?follow=1"
            )
        assert status == 200
        events = [json.loads(line) for line in body.decode().splitlines()]
        assert [e["kind"] for e in events] == [
            "header", "running", "progress", "cancel", "final"]
        assert [e["seq"] for e in events] == [0, 1, 2, 3, 4]
        assert events[-1]["state"] == JobState.CANCELLED

    def test_restart_keeps_a_job_that_finished_before_its_commit(
        self, tmp_path
    ):
        """A job whose cancel arrived while it was finishing: its stream
        holds a ``cancel`` line, and then the result file and
        ``final … done``, the line that commits it. The restarted server
        keeps the state the stream records: the job is ``done`` and its
        result is served, not cancelled or re-run."""
        from repro.applog import atomic_write_text

        paths = JobPaths(str(tmp_path / "data"))
        job_id = "00000000000000d1"
        result = json.dumps({"job": job_id, "records": []}) + "\n"
        atomic_write_text(paths.result(job_id), result)
        write_stream(
            paths.status(job_id), job_id,
            tiny_job(name="finished", seed=7),
            [{"kind": "running"},
             {"kind": "cancel"},
             {"kind": "final", "state": JobState.DONE, "error": None,
              "records": 0}],
        )

        config = ServiceConfig(data_dir=paths.data_dir, workers=1)
        with ServiceHandle(config) as handle:
            assert poll_job(handle.port, job_id)["state"] == JobState.DONE
            status, _, body = request(
                handle.port, "GET", f"/v1/jobs/{job_id}/result"
            )
            assert status == 200
            assert body.decode() == result
            status, _, body = request(
                handle.port, "GET", f"/v1/jobs/{job_id}/events?follow=1"
            )
        assert status == 200
        events = [json.loads(line) for line in body.decode().splitlines()]
        assert [e["kind"] for e in events] == [
            "header", "running", "cancel", "final"]
        assert events[-1]["state"] == JobState.DONE


    def test_restart_admits_more_queued_jobs_than_the_queue_holds(
        self, tmp_path
    ):
        """A restarted server admits every unfinished job in submission
        order as the queue frees room, not only the first
        ``queue_size`` of them."""
        paths = JobPaths(str(tmp_path / "data"))
        job_ids = [f"00000000000000e{i}" for i in range(3)]
        for i, job_id in enumerate(job_ids):
            write_stream(paths.status(job_id), job_id,
                         tiny_job(name=f"backlog-{i}", seed=20 + i), [],
                         created=1000.0 + i)

        config = ServiceConfig(data_dir=paths.data_dir, workers=1,
                               queue_size=1)
        with ServiceHandle(config) as handle:
            finals = [wait_terminal(handle.port, job_id) for job_id in job_ids]
        assert [job["state"] for job in finals] == [JobState.DONE] * 3
        started = [job["started"] for job in finals]
        assert started == sorted(started)

    def test_drain_leaves_jobs_waiting_for_room_queued(self, tmp_path):
        """A drain while restarted jobs still wait for queue room finishes
        the running job and leaves the others queued on disk; the next
        boot runs them."""
        paths = JobPaths(str(tmp_path / "data"))
        documents = [slow_job(name="backlog-slow", seed=30, n_graphs=4)] + [
            tiny_job(name=f"backlog-{i}", seed=30 + i) for i in (1, 2)
        ]
        job_ids = [f"00000000000000f{i}" for i in range(3)]
        for i, (job_id, document) in enumerate(zip(job_ids, documents)):
            write_stream(paths.status(job_id), job_id, document, [],
                         created=1000.0 + i)

        config = ServiceConfig(data_dir=paths.data_dir, workers=1,
                               queue_size=1)
        with ServiceHandle(config) as handle:
            wait_for(
                lambda: poll_job(handle.port, job_ids[0])["state"]
                == JobState.RUNNING,
                message="the slow job to start",
            )
        kinds = [
            [e["kind"] for e in read_status(paths.status(job_id))]
            for job_id in job_ids
        ]
        assert kinds == [["header", "running", "progress", "progress",
                          "progress", "progress", "final"],
                         ["header"], ["header"]]

        with ServiceHandle(config) as handle:
            finals = [wait_terminal(handle.port, job_id) for job_id in job_ids]
        assert [job["state"] for job in finals] == [JobState.DONE] * 3


class TestDurableWrites:
    def test_fsyncs_per_reference_job(self, tmp_path, monkeypatch):
        """One reference job (the ledger's closed-loop job: 2 graphs, 1
        scenario, sizes 2 and 3) syncs exactly 10 times, in this order:

        1. the status stream's ``header`` line, before the 202;
        2. ``jobs/``, so the names of the new stream and of the job's
           checkpoint directory ``jobs/<id>/`` survive a crash;
        3. the ``running`` line, which claims the job;
        4. the checkpoint journal's header line;
        5. ``jobs/<id>/``, for the new journal's name;
        6-7. one journal line per chunk (two graphs, two chunks);
        8. the result file's temp file, before its rename;
        9. ``results/``, for the renamed result's name;
        10. the ``final … done`` line, which commits the job.

        The two ``progress`` lines are not synced.
        """
        synced = []
        fsync = os.fsync

        def spy(fd):
            synced.append(fd)
            fsync(fd)

        config = ServiceConfig(data_dir=str(tmp_path / "data"), workers=1)
        with ServiceHandle(config) as handle:
            monkeypatch.setattr(os, "fsync", spy)
            job_id = submit(
                handle.port, tiny_job(name="fsyncs", seed=7, sizes=(2, 3))
            )
            assert wait_terminal(handle.port, job_id)["state"] == JobState.DONE
            assert len(synced) == 10


class TestPerJobWorkers:
    def test_pool_backend_runs_the_requested_worker_count(
        self, tmp_path, monkeypatch
    ):
        """``repro serve --backend pool --jobs 3`` runs every job on a
        fleet of three workers: its checkpoint directory holds three
        shard journals, and the records match a direct run."""
        import repro.cli
        from repro.serve import app

        booted = []
        monkeypatch.setattr(app, "run_service", booted.append)
        data_dir = str(tmp_path / "data")
        repro.cli.main(["serve", "--backend", "pool", "--jobs", "3",
                        "--port", "0", "--data-dir", data_dir])
        (config,) = booted
        assert (config.backend, config.jobs) == ("pool", 3)

        document = tiny_job(name="fleet", n_graphs=3)
        with ServiceHandle(config) as handle:
            job_id = submit(handle.port, document)
            assert wait_terminal(handle.port, job_id)["state"] == JobState.DONE
            records = fetch_records(handle.port, job_id)
        assert sorted(os.listdir(os.path.join(data_dir, "jobs", job_id))) == [
            f"shard-{i}-of-3.{ext}"
            for i in range(3)
            for ext in ("ckpt", "ckpt.inflight", "log", "summary.json")
        ]
        assert records == direct_records(document)
