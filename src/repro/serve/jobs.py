"""Job documents, the job state machine, and the document compiler.

The state machine is folded from a job's status stream, its only
durable record: :class:`JobEntry` applies its lines one by one, the
same way at boot and after each live append
(:class:`~repro.serve.queue.JobLog` writes them).

A *job document* is the service's wire format: one JSON object naming a
workload (either explicit task graphs in the ``repro-taskgraph`` schema
or parameters for the random generator), a platform sweep, and the
deadline-assignment methods to compare. :func:`compile_job` lowers a
validated document into an :class:`~repro.feast.config.ExperimentConfig`
— the same object a direct :func:`~repro.feast.runner.run_experiment`
call takes — which is what makes the byte-identity contract hold by
construction: the service adds no execution semantics of its own.

Determinism matters twice here: the same document must compile to the
same config after a server restart (so the checkpoint journal's
config fingerprint still matches and the job resumes instead of being
rejected), and two different explicit workloads must *not* share a
fingerprint. :class:`ExplicitWorkload` therefore carries a stable
content-digest identity in ``__qualname__``, which is exactly the field
:func:`~repro.feast.persistence.config_fingerprint` folds in for
arbitrary factories.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.feast.config import MethodSpec, ExperimentConfig
from repro.graph.generator import RandomGraphConfig
from repro.graph.serialization import graph_from_dict
from repro.graph.taskgraph import TaskGraph

#: Wire format / version pinned in every job document.
JOB_FORMAT = "repro-job"
JOB_VERSION = 1

#: Scenario label explicit-graph jobs run under. Scenarios only vary the
#: generator's execution-time deviation, which fixed graphs ignore, so
#: one canonical label keeps records and chunk keys well-formed.
EXPLICIT_SCENARIO = "MDET"

#: Submission caps — bound memory per request, not expressiveness.
MAX_GRAPHS = 256
MAX_N_GRAPHS = 4096
MAX_SYSTEM_SIZES = 64


class JobState:
    """The job lifecycle: ``queued → running → done|failed|cancelled``.

    ``queued → cancelled`` is the only shortcut (cancel before a worker
    picks the job up). Terminal states have no outgoing edges. Each
    transition is one line appended to the job's status stream, under
    one in-process lock that first checks the current state, so a
    cancel racing a worker claim resolves to exactly one winner.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = (DONE, FAILED, CANCELLED)

    #: Monotonic rank for "states never regress" assertions: every legal
    #: transition strictly increases it.
    ORDER = {QUEUED: 0, RUNNING: 1, DONE: 2, FAILED: 2, CANCELLED: 2}


class JobEntry:
    """One job as the server indexes it: what its summary needs, not its
    document (a worker reads that from the stream's header)."""

    __slots__ = ("id", "name", "state", "created", "started", "finished",
                 "attempts", "cancel_requested", "done_trials",
                 "total_trials", "error", "seq")

    def __init__(self, job_id: str, name: str, created: float) -> None:
        self.id = job_id
        self.name = name
        self.state = JobState.QUEUED
        self.created = created
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.attempts = 0
        self.cancel_requested = False
        self.done_trials: Optional[int] = None
        self.total_trials: Optional[int] = None
        self.error: Optional[str] = None
        #: ``seq`` of the next line appended to the stream.
        self.seq = 0

    def apply(self, event: Dict[str, Any]) -> None:
        """Fold one status line into the entry."""
        kind = event["kind"]
        if kind == "running":
            self.state = JobState.RUNNING
            self.started = event["ts"]
            self.attempts += 1
        elif kind == "progress":
            self.done_trials = event["done"]
            self.total_trials = event["total"]
        elif kind == "cancel":
            self.cancel_requested = True
        elif kind == "final":
            self.state = event["state"]
            self.finished = event["ts"]
            self.error = event.get("error")
            if self.state == JobState.CANCELLED:
                self.cancel_requested = True
        self.seq = event["seq"] + 1

    def summary(self) -> Dict[str, Any]:
        """The job's JSON summary (``GET /v1/jobs/{id}``)."""
        out: Dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "cancel_requested": self.cancel_requested,
            "attempts": self.attempts,
        }
        if self.total_trials:
            out["progress"] = {
                "done": self.done_trials or 0,
                "total": self.total_trials,
            }
        if self.error:
            out["error"] = self.error
        return out


class JobCancelled(BaseException):
    """Raised inside a worker to abort a run after a cooperative cancel.

    Deliberately a ``BaseException``: progress callbacks that raise a
    plain ``Exception`` are *detached* by
    :meth:`~repro.feast.instrumentation.Instrumentation.completed`
    (a broken observer must not kill a sweep), while ``BaseException``
    propagates — the same contract that lets Ctrl-C abort a run. Every
    chunk completed before the cancel is already journaled, because the
    driver journals before it fires progress callbacks.
    """

    def __init__(self, job_id: str) -> None:
        super().__init__(f"job {job_id} cancelled")
        self.job_id = job_id


class ExplicitWorkload:
    """Picklable graph factory serving user-supplied graph documents.

    Graph ``index`` of the single scenario is
    ``graph_from_dict(documents[index])`` — decoded fresh per call, so a
    trial can never see another trial's annotations. The factory opts
    into the index-aware calling convention via ``needs_trial_coords``
    (see :func:`~repro.feast.runner.graph_for_trial`) and ignores the
    RNG: explicit workloads are already fully determined.
    """

    needs_trial_coords = True

    def __init__(self, documents: List[Dict[str, Any]]) -> None:
        if not documents:
            raise ExperimentError("ExplicitWorkload needs at least one graph")
        self.documents = [dict(doc) for doc in documents]
        blob = json.dumps(self.documents, sort_keys=True)
        digest = hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()
        # config_fingerprint() identifies a factory by __qualname__; a
        # content digest there makes resume-after-restart accept the
        # journal and distinct workloads fingerprint apart.
        self.__qualname__ = f"repro.serve.jobs.ExplicitWorkload[{digest}]"

    def __call__(
        self,
        graph_config: RandomGraphConfig,
        rng,
        scenario: Optional[str] = None,
        index: Optional[int] = None,
    ) -> TaskGraph:
        if index is None:
            raise ExperimentError(
                "ExplicitWorkload requires the index-aware factory protocol"
            )
        return graph_from_dict(self.documents[index % len(self.documents)])

    def __repr__(self) -> str:
        return f"<{self.__qualname__} n={len(self.documents)}>"


def _compile_methods(specs: List[Dict[str, Any]]) -> Tuple[MethodSpec, ...]:
    return tuple(MethodSpec(**spec) for spec in specs)


def compile_job(document: Dict[str, Any]) -> ExperimentConfig:
    """Lower a validated job document into an :class:`ExperimentConfig`.

    Pure and deterministic: the same document always yields a config
    with the same :func:`~repro.feast.persistence.config_fingerprint`,
    which is the property restart-resume rests on. Raises
    :class:`ExperimentError` (or another :class:`~repro.errors.ReproError`)
    on semantic violations — callers at the HTTP edge map those to
    structured 400s.
    """
    name = document.get("name") or "job"
    platform = document.get("platform") or {}
    methods = _compile_methods(document["methods"])

    common = dict(
        name=name,
        description="repro.serve job",
        methods=methods,
        system_sizes=tuple(platform.get("system_sizes") or (2, 4)),
        topology=platform.get("topology", "bus"),
        policy=platform.get("policy", "EDF"),
        respect_release_times=bool(platform.get("respect_release_times", False)),
        speed_profile=platform.get("speed_profile", "uniform"),
    )

    graphs = document.get("graphs")
    if graphs is not None:
        return ExperimentConfig(
            graph_config=RandomGraphConfig(),
            scenarios=(EXPLICIT_SCENARIO,),
            n_graphs=len(graphs),
            # The seed feeds the generator RNG, which explicit workloads
            # ignore; pinning it keeps the fingerprint canonical.
            seed=2026,
            graph_factory=ExplicitWorkload(graphs),
            **common,
        )

    workload = document["workload"]
    graph_config = RandomGraphConfig(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in (workload.get("graph_config") or {}).items()
    })
    return ExperimentConfig(
        graph_config=graph_config,
        scenarios=tuple(workload.get("scenarios") or ("LDET", "MDET", "HDET")),
        n_graphs=int(workload.get("n_graphs", 8)),
        seed=int(workload.get("seed", 2026)),
        **common,
    )
