"""The import contract (DESIGN.md §6): an entry point loads what its run
executes, all of it up front, and nothing else.

Each check runs a fresh interpreter, because the test session itself has
long since imported everything. No check measures time: they compare
``sys.modules`` before and after, so they hold on any host.

* ``from repro.feast import run_experiment`` loads the whole serial run
  path: a sweep then imports no ``repro`` module inside a timed call.
* Off-path modules — the library the run never calls, the multi-process
  backends and heavy standard-library chains — stay unloaded.
* A process that forks workers has loaded everything they run before its
  first fork, so a forked worker never imports (DESIGN.md §9).
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules no entry point loads unless a run calls into them. A name
#: covers its submodules.
OFF_PATH = (
    "repro.sched.export",
    "repro.sched.simulator",
    "repro.sched.optimal",
    "repro.sched.schedulability",
    "repro.core.batch",
    "repro.feast.aggregate",
    "repro.feast.plots",
    "repro.feast.tables",
    "repro.feast.backends.shards",
    "repro.qa",
    "repro.serve",
    "xml",
    "urllib.request",
    "http.client",
    "concurrent.futures.process",
    "numpy",
)

#: What a serial trial executes; every entry point that runs trials has
#: these loaded before its first one.
RUN_PATH = (
    "repro.feast.runner",
    "repro.feast.backends.serial",
    "repro.feast.backends.work",
    "repro.core.slicer",
    "repro.sched.list_scheduler",
    "repro.sched.bus",
)


def run_fresh(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def off_path(loaded, allowed=()) -> list:
    return sorted(
        name for name in loaded
        for root in OFF_PATH
        if root not in allowed
        and (name == root or name.startswith(root + "."))
    )


def repro_modules(names) -> list:
    return sorted(n for n in names if n == "repro" or n.startswith("repro."))


def one_graph_payload(tmp_path: Path) -> str:
    """A pickled one-shard payload, as the subprocess backend writes it."""
    from repro.feast.backends.work import RetryPolicy
    from repro.feast.experiments import build_experiment

    (config,) = build_experiment("figure5", n_graphs=1)
    payload = {
        "config": config,
        "shard": 0,
        "n_shards": 1,
        "journal": str(tmp_path / "shard.ckpt"),
        "summary": str(tmp_path / "shard.summary.json"),
        "policy": RetryPolicy.from_config(config),
        "trace": False,
        "keys": None,
    }
    path = tmp_path / "shard.payload.pkl"
    path.write_bytes(pickle.dumps(payload))
    return str(path)


class TestSerialRunPath:
    def test_run_experiment_loads_the_run_and_nothing_else(self):
        out = run_fresh("""
            import json, sys
            from repro.feast import run_experiment
            loaded = set(sys.modules)
            from repro.feast import build_experiment
            for config in build_experiment("figure5", n_graphs=1):
                run_experiment(config)
            print(json.dumps({"loaded": sorted(loaded),
                              "added": sorted(set(sys.modules) - loaded)}))
        """)
        assert off_path(out["loaded"]) == []
        assert set(RUN_PATH) <= set(out["loaded"])
        assert repro_modules(out["added"]) == []

    def test_package_import_is_cheap(self):
        """``import repro`` runs only the top-level ``__init__``."""
        out = run_fresh("""
            import json, sys
            import repro
            print(json.dumps(sorted(sys.modules)))
        """)
        assert repro_modules(out) == ["repro", "repro._lazy"]


class TestWorkers:
    def test_hand_launched_shardworker_loads_no_supervisor(self, tmp_path):
        """``python -m repro.feast.backends.shardworker PAYLOAD`` runs its
        shard without the supervisor or the service."""
        out = run_fresh("""
            import json, runpy, sys
            sys.argv = ["shardworker", sys.argv[1]]
            try:
                runpy.run_module("repro.feast.backends.shardworker",
                                 run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                code = exc.code
            print(json.dumps({"code": code, "loaded": sorted(sys.modules)}))
        """, one_graph_payload(tmp_path))
        assert out["code"] == 0
        assert off_path(out["loaded"]) == []
        assert (tmp_path / "shard.summary.json").exists()

    def test_forking_parent_has_loaded_what_workers_run(self, tmp_path):
        """After ``make_backend`` — which a run calls before its first
        fork — running a chunk or a whole shard in the same process
        imports no ``repro`` module, so a forked worker never does."""
        out = run_fresh("""
            import json, sys
            from repro.feast import make_backend
            from repro.feast.experiments import build_experiment
            from repro.feast.backends.work import TrialSpec, execute_chunk
            (config,) = build_experiment("figure5", n_graphs=1)
            make_backend("pool")
            make_backend("subprocess")
            loaded = set(sys.modules)
            execute_chunk(TrialSpec(config, config.scenarios[0], 0), 1, None)
            from repro.feast.backends import shardworker
            code = shardworker.main([sys.argv[1]])
            print(json.dumps({"code": code, "loaded": sorted(loaded),
                              "added": sorted(set(sys.modules) - loaded)}))
        """, one_graph_payload(tmp_path))
        assert out["code"] == 0
        assert "repro.feast.backends.shardworker" in out["loaded"]
        assert repro_modules(out["added"]) == []


class TestServeBoot:
    @pytest.mark.parametrize("backend, module", [
        ("serial", "repro.feast.backends.serial"),
        ("subprocess", "repro.feast.backends.shards"),
    ])
    def test_healthy_server_has_loaded_its_run_path_only(
        self, tmp_path, backend, module
    ):
        """``repro serve`` boot: the CLI module, then the service; by the
        first healthy answer the run path — with the configured backend,
        which forks from job threads — is loaded, the rest is not. A
        job's record is its status stream: ``sqlite3`` is never loaded,
        at boot or by a job."""
        out = run_fresh("""
            import json, socket, sys
            import repro.cli
            from repro.serve.app import ServiceConfig, ServiceHandle
            handle = ServiceHandle(ServiceConfig(
                port=0, workers=1, data_dir=sys.argv[1],
                backend=sys.argv[2])).start()
            with socket.create_connection(("127.0.0.1", handle.port)) as s:
                s.sendall(b"GET /v1/healthz HTTP/1.1\\r\\nHost: x\\r\\n"
                          b"Connection: close\\r\\n\\r\\n")
                status = s.makefile("rb").readline().split()[1]
            loaded = sorted(sys.modules)
            import http.client, time
            def call(method, path, body=None):
                conn = http.client.HTTPConnection("127.0.0.1", handle.port)
                conn.request(method, path, body=body,
                             headers={"Content-Type": "application/json"})
                return json.loads(conn.getresponse().read())
            job_id = call("POST", "/v1/jobs", json.dumps({
                "format": "repro-job", "version": 1, "name": "one",
                "workload": {"n_graphs": 1, "scenarios": ["MDET"], "seed": 5,
                             "graph_config": {"n_subtasks_range": [4, 5],
                                              "depth_range": [2, 3]}},
                "platform": {"system_sizes": [2]},
                "methods": [{"label": "PURE", "metric": "PURE",
                             "comm": "CCNE"}]}))["id"]
            for _ in range(600):
                state = call("GET", "/v1/jobs/" + job_id)["state"]
                if state in ("done", "failed", "cancelled"):
                    break
                time.sleep(0.05)
            after_job = sorted(sys.modules)
            handle.stop()
            print(json.dumps({"status": status.decode(), "loaded": loaded,
                              "state": state, "after_job": after_job}))
        """, str(tmp_path / "data"), backend)
        assert out["status"] == "200"
        assert off_path(out["loaded"], allowed=("repro.serve", module)) == []
        assert set(RUN_PATH) | {module} <= set(out["loaded"])
        assert out["state"] == "done"
        assert "sqlite3" not in out["loaded"]
        assert "sqlite3" not in out["after_job"]
