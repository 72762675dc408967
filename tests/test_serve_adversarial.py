"""Adversarial-input corpus: hostile documents and hostile transports.

The contract under test: *every* malformed or hostile input yields a
structured 4xx naming the offending field — never a 500, never a hung
connection. The corpus covers both layers:

* document-level attacks (the parametrized corpus): truncated JSON,
  non-finite tokens, cyclic graphs, unknown fields, type confusion,
  schema violations — all shaped like things the ``repro fuzz``
  campaign emits (its reproducer files embed ``repro-taskgraph``
  documents, which is exactly the service's graph schema);
* transport-level attacks (raw sockets): garbage request lines,
  slow-loris reads, lying Content-Length, oversized heads and bodies,
  unsupported transfer encodings.

Every case here is a pinned regression: if validation is ever loosened,
the corpus says exactly which hostile shape got through.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.serve.app import ServiceConfig, ServiceHandle
from tests.serve_client import explicit_job, request, tiny_job

#: Tight read deadline so the slow-loris test concludes quickly.
REQUEST_TIMEOUT = 2.0


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        data_dir=str(tmp_path_factory.mktemp("serve-adversarial")),
        workers=1,
        request_timeout=REQUEST_TIMEOUT,
    )
    with ServiceHandle(config) as handle:
        yield handle


def _doc(**overrides):
    document = tiny_job(name="corpus", seed=1)
    document.update(overrides)
    return document


def _cyclic_graph():
    return {
        "format": "repro-taskgraph", "version": 1, "name": "cyc",
        "subtasks": [
            {"id": "a", "wcet": 1.0, "release": 0.0},
            {"id": "b", "wcet": 1.0, "end_to_end_deadline": 10.0},
        ],
        "edges": [{"src": "a", "dst": "b"}, {"src": "b", "dst": "a"}],
    }


def _anchorless_graph():
    return {
        "format": "repro-taskgraph", "version": 1, "name": "anchorless",
        "subtasks": [{"id": "a", "wcet": 1.0}, {"id": "b", "wcet": 1.0}],
        "edges": [{"src": "a", "dst": "b"}],
    }


def _fuzz_reproducer_shape():
    """The ``repro fuzz`` failure-file envelope posted as a job: the
    embedded graph is valid, but the envelope is the wrong format —
    the rejection must say so by field, not crash."""
    return {
        "format": "repro-qa-failure", "version": 1, "scenario": 7,
        "failing_checks": ["windows"], "details": {},
        "graph": explicit_job(seed=9, n=1)["graphs"][0],
    }


#: (name, body bytes, expected status, field-path substring or None).
CORPUS = [
    ("truncated_json", b'{"format": "repro-j', 400, None),
    ("empty_body", b"", 400, None),
    ("not_an_object", b"[1, 2, 3]", 400, None),
    ("scalar_body", b'"hello"', 400, None),
    ("invalid_utf8", b'{"name": "\xff\xfe"}', 400, None),
    ("nan_token", b'{"format": "repro-job", "version": 1, "x": NaN}', 400, None),
    ("infinity_token", b'{"a": Infinity}', 400, None),
    ("negative_infinity", b'{"a": -Infinity}', 400, None),
    ("duplicate_keys", b'{"format": "repro-job", "format": "repro-job"}', 400, None),
    ("wrong_format", json.dumps(_doc(format="not-a-job")).encode(), 400, "format"),
    ("wrong_version", json.dumps(_doc(version=99)).encode(), 400, "version"),
    ("fuzz_reproducer_envelope",
     json.dumps(_fuzz_reproducer_shape()).encode(), 400, "format"),
    ("unknown_top_field", json.dumps(_doc(bogus=1)).encode(), 400, "bogus"),
    ("empty_name", json.dumps(_doc(name="  ")).encode(), 400, "name"),
    ("long_name", json.dumps(_doc(name="x" * 200)).encode(), 400, "name"),
    ("no_workload_no_graphs",
     json.dumps({"format": "repro-job", "version": 1,
                 "methods": [{"label": "P", "metric": "PURE", "comm": "CCNE"}]}).encode(),
     400, None),
    ("both_workload_and_graphs",
     json.dumps(_doc(graphs=explicit_job(n=1)["graphs"])).encode(), 400, None),
    ("cyclic_graph",
     json.dumps({**explicit_job(n=1), "graphs": [_cyclic_graph()]}).encode(),
     400, "graphs[0]"),
    ("anchorless_graph",
     json.dumps({**explicit_job(n=1), "graphs": [_anchorless_graph()]}).encode(),
     400, "graphs[0]"),
    ("graph_not_object",
     json.dumps({**explicit_job(n=1), "graphs": ["nope"]}).encode(), 400, "graphs[0]"),
    ("empty_graphs", json.dumps({**explicit_job(n=1), "graphs": []}).encode(),
     400, "graphs"),
    ("negative_wcet",
     json.dumps({**explicit_job(n=1), "graphs": [{
         "format": "repro-taskgraph", "version": 1,
         "subtasks": [{"id": "a", "wcet": -1.0, "release": 0.0,
                       "end_to_end_deadline": 5.0}],
         "edges": []}]}).encode(),
     400, "graphs[0]"),
    ("string_wcet",
     json.dumps({**explicit_job(n=1), "graphs": [{
         "format": "repro-taskgraph", "version": 1,
         "subtasks": [{"id": "a", "wcet": "NaN", "release": 0.0,
                       "end_to_end_deadline": 5.0}],
         "edges": []}]}).encode(),
     400, "graphs[0].subtasks[0].wcet"),
    ("workload_not_object",
     json.dumps(_doc(workload="fast please")).encode(), 400, "workload"),
    ("zero_n_graphs",
     json.dumps(_doc(workload={"n_graphs": 0})).encode(), 400, "workload.n_graphs"),
    ("huge_n_graphs",
     json.dumps(_doc(workload={"n_graphs": 10**9})).encode(), 400, "workload.n_graphs"),
    ("bool_n_graphs",
     json.dumps(_doc(workload={"n_graphs": True})).encode(), 400, "workload.n_graphs"),
    ("unknown_scenario",
     json.dumps(_doc(workload={"scenarios": ["XDET"]})).encode(),
     400, "workload.scenarios[0]"),
    ("unknown_workload_field",
     json.dumps(_doc(workload={"speed": 11})).encode(), 400, "workload.speed"),
    ("bad_graph_config_range",
     json.dumps(_doc(workload={"graph_config": {"n_subtasks_range": [5]}})).encode(),
     400, "workload.graph_config.n_subtasks_range"),
    ("inverted_graph_config_range",
     json.dumps(_doc(workload={"graph_config": {"n_subtasks_range": [9, 2]}})).encode(),
     400, "workload.graph_config"),
    ("unsatisfiable_generator_ranges",
     # n_subtasks_range below the *default* depth_range: generation
     # would fail mid-run (need n >= depth), so submission must fail
     # instead — found by driving the live server, pinned here.
     json.dumps(_doc(workload={"graph_config": {"n_subtasks_range": [6, 8]}})).encode(),
     400, "workload.graph_config"),
    ("bad_deviation",
     json.dumps(_doc(workload={"graph_config": {"execution_time_deviation": 2.5}})).encode(),
     400, "workload.graph_config"),
    ("unknown_graph_config_field",
     json.dumps(_doc(workload={"graph_config": {"swagger": 1}})).encode(),
     400, "workload.graph_config.swagger"),
    ("empty_system_sizes",
     json.dumps(_doc(platform={"system_sizes": []})).encode(),
     400, "platform.system_sizes"),
    ("zero_processor",
     json.dumps(_doc(platform={"system_sizes": [2, 0]})).encode(),
     400, "platform.system_sizes[1]"),
    ("float_processor",
     json.dumps(_doc(platform={"system_sizes": [2.5]})).encode(),
     400, "platform.system_sizes[0]"),
    ("unknown_topology",
     json.dumps(_doc(platform={"topology": "hypercube"})).encode(),
     400, "platform.topology"),
    ("unknown_policy",
     json.dumps(_doc(platform={"policy": "FIFO"})).encode(), 400, "platform.policy"),
    ("unknown_speed_profile",
     json.dumps(_doc(platform={"speed_profile": "ludicrous"})).encode(),
     400, "platform.speed_profile"),
    ("missing_methods",
     json.dumps({k: v for k, v in _doc().items() if k != "methods"}).encode(),
     400, "methods"),
    ("empty_methods", json.dumps(_doc(methods=[])).encode(), 400, "methods"),
    ("method_not_object", json.dumps(_doc(methods=["PURE"])).encode(),
     400, "methods[0]"),
    ("method_without_label",
     json.dumps(_doc(methods=[{"metric": "PURE", "comm": "CCNE"}])).encode(),
     400, "methods[0].label"),
    ("unknown_metric",
     json.dumps(_doc(methods=[{"label": "X", "metric": "MAGIC", "comm": "CCNE"}])).encode(),
     400, "methods[0]"),
    ("unknown_method_field",
     json.dumps(_doc(methods=[{"label": "X", "metric": "PURE", "comm": "CCNE",
                               "turbo": True}])).encode(),
     400, "methods[0].turbo"),
    ("non_numeric_surplus",
     json.dumps(_doc(methods=[{"label": "X", "metric": "PURE", "comm": "CCNE",
                               "surplus": "lots"}])).encode(),
     400, "methods[0].surplus"),
    ("duplicate_labels",
     json.dumps(_doc(methods=[{"label": "X", "metric": "PURE", "comm": "CCNE"},
                              {"label": "X", "metric": "NORM", "comm": "CCNE"}])).encode(),
     400, "methods"),
]


@pytest.mark.parametrize(
    "name,body,expected_status,path_fragment",
    CORPUS,
    ids=[case[0] for case in CORPUS],
)
def test_corpus_rejected_structurally(server, name, body, expected_status, path_fragment):
    status, headers, raw = request(
        server.port, "POST", "/v1/jobs", body,
        {"Content-Type": "application/json"}, timeout=30,
    )
    assert status == expected_status, (name, status, raw[:300])
    assert 400 <= status < 500, name
    envelope = json.loads(raw)
    error = envelope["error"]
    assert error["status"] == expected_status
    assert error["title"]
    assert isinstance(error["fields"], list)
    if path_fragment is not None:
        paths = [field["path"] for field in error["fields"]]
        assert any(path_fragment in path for path in paths), (name, paths)
        for field in error["fields"]:
            assert field["message"], name


class TestTransportHostility:
    def test_wrong_content_type(self, server):
        status, _, raw = request(
            server.port, "POST", "/v1/jobs",
            json.dumps(tiny_job()).encode(), {"Content-Type": "text/plain"},
        )
        assert status == 415
        assert json.loads(raw)["error"]["status"] == 415

    def test_missing_content_type(self, server):
        conn_status, _, raw = request(
            server.port, "POST", "/v1/jobs", json.dumps(tiny_job()).encode(),
            {"Content-Type": ""},
        )
        assert conn_status == 415

    def test_oversized_body_is_413_not_oom(self, server):
        """Repeated, because the server used to close with the body
        unread, and the resulting RST could beat the 413 to the client."""
        huge = b"x" * (3 * 1024 * 1024)
        for _ in range(20):
            status, _, raw = request(
                server.port, "POST", "/v1/jobs", huge,
                {"Content-Type": "application/json"},
            )
            assert status == 413
            assert json.loads(raw)["error"]["status"] == 413

    def test_unknown_route_and_method(self, server):
        status, _, raw = request(server.port, "GET", "/v2/jobs")
        assert status == 404
        assert json.loads(raw)["error"]["status"] == 404

        status, headers, raw = request(server.port, "PUT", "/v1/jobs", b"{}",
                                       {"Content-Type": "application/json"})
        assert status == 405
        assert "POST" in headers["allow"]

    def test_malformed_job_id_is_404(self, server):
        status, _, raw = request(server.port, "GET", "/v1/jobs/../../etc/passwd")
        assert status == 404

    def test_garbage_request_line(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            reply = _read_all(sock)
        assert b"400" in reply.split(b"\r\n", 1)[0]

    def test_chunked_transfer_encoding_refused(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            reply = _read_all(sock)
        assert b"501" in reply.split(b"\r\n", 1)[0]

    def test_post_without_content_length(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n\r\n")
            reply = _read_all(sock)
        assert b"411" in reply.split(b"\r\n", 1)[0]

    def test_lying_content_length_never_hangs(self, server):
        """Client declares 4096 bytes, sends 10, closes: 400, no hang."""
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 4096\r\n\r\n" + b'{"a": 1}'
            )
            sock.shutdown(socket.SHUT_WR)
            reply = _read_all(sock)
        assert b"400" in reply.split(b"\r\n", 1)[0]

    def test_slow_loris_times_out_with_408(self, server):
        """A stalled half-request is cut off at the read deadline, not
        held open forever."""
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost:")
            sock.settimeout(REQUEST_TIMEOUT + 10)
            reply = _read_all(sock)
        assert reply == b"" or b"408" in reply.split(b"\r\n", 1)[0]

    def test_oversized_header_block(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n"
                + b"X-Filler: " + b"a" * 100_000 + b"\r\n\r\n"
            )
            reply = _read_all(sock)
        assert b"431" in reply.split(b"\r\n", 1)[0]

    def test_server_still_healthy_after_corpus(self, server):
        """The point of it all: a server that has eaten the entire
        corpus still serves clean requests."""
        status, _, raw = request(server.port, "GET", "/v1/healthz")
        assert status == 200
        assert json.loads(raw)["status"] == "ok"


class TestEdgeGates:
    """Auth and rate-limit rejections follow the same error contract."""

    def test_token_auth_gates_jobs_but_not_probes(self, tmp_path):
        config = ServiceConfig(
            data_dir=str(tmp_path / "data"), workers=1,
            auth="token", auth_token="sesame",
        )
        with ServiceHandle(config) as handle:
            status, _, raw = request(
                handle.port, "POST", "/v1/jobs",
                json.dumps(tiny_job()).encode(),
                {"Content-Type": "application/json"},
            )
            assert status == 401
            assert json.loads(raw)["error"]["status"] == 401

            status, _, raw = request(
                handle.port, "POST", "/v1/jobs",
                json.dumps(tiny_job()).encode(),
                {"Content-Type": "application/json",
                 "Authorization": "Bearer wrong"},
            )
            assert status == 401

            status, _, _ = request(
                handle.port, "POST", "/v1/jobs",
                json.dumps(tiny_job()).encode(),
                {"Content-Type": "application/json",
                 "Authorization": "Bearer sesame"},
            )
            assert status == 202

            # probes stay open: credentials rot, monitoring must not
            status, _, _ = request(handle.port, "GET", "/v1/healthz")
            assert status == 200
            status, _, _ = request(handle.port, "GET", "/v1/metrics")
            assert status == 200

    def test_rate_limit_throttles_submissions_with_retry_after(self, tmp_path):
        config = ServiceConfig(
            data_dir=str(tmp_path / "data"), workers=1,
            rate_limit=1.0, rate_burst=2,
        )
        with ServiceHandle(config) as handle:
            statuses = []
            for i in range(4):
                status, headers, raw = request(
                    handle.port, "POST", "/v1/jobs",
                    json.dumps(tiny_job(seed=200 + i)).encode(),
                    {"Content-Type": "application/json"},
                )
                statuses.append(status)
                if status == 429:
                    assert float(headers["retry-after"]) > 0
                    assert json.loads(raw)["error"]["status"] == 429
            assert statuses.count(202) == 2, statuses
            assert statuses.count(429) == 2, statuses

            # reads are not rate limited
            for _ in range(5):
                status, _, _ = request(handle.port, "GET", "/v1/jobs")
                assert status == 200


def _read_all(sock: socket.socket) -> bytes:
    chunks = []
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    except socket.timeout:
        pass
    return b"".join(chunks)
