"""repro.serve: deadline assignment as a long-running HTTP service.

The batch engine answers "run this sweep and give me the records"; this
package answers the same question over a socket, for many callers at
once, with durability across server restarts. It is deliberately
stdlib-only (``asyncio`` + ``json``): the service is part of the
reproduction, so it must run anywhere the paper code runs.

Layering (request flow, top to bottom):

* :mod:`repro.serve.http` — minimal HTTP/1.1 framing: bounded reads,
  structured JSON errors, one connection per request.
* :mod:`repro.serve.app` — routing, auth/rate-limit edges, and the
  service object that owns everything below.
* :mod:`repro.serve.validation` — eager edge validation of job
  documents: every rejection is a 400 with field paths, never a 500.
* :mod:`repro.serve.jobs` — the job document schema, the
  queued → running → done/failed/cancelled state machine, and the
  compiler from documents to :class:`~repro.feast.config.ExperimentConfig`
  (which is what makes service results byte-identical to a direct
  :func:`~repro.feast.runner.run_experiment` call).
* :mod:`repro.serve.queue` — each job's record (its fsynced,
  append-only status stream, indexed in memory), and a bounded queue +
  worker pool over the ExecutionBackend layer, with cooperative cancel
  and graceful drain.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    ".app": ("ReproService", "ServiceConfig", "ServiceHandle", "run_service"),
    ".jobs": (
        "JOB_FORMAT",
        "JOB_VERSION",
        "JobCancelled",
        "JobState",
        "compile_job",
    ),
    ".validation": ("DocumentError", "parse_json_strict", "validate_job"),
})
