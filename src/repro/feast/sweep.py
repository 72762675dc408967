"""Parameter sweeps and parallel experiment execution.

The canonical experiments (`repro.feast.experiments`) cover the paper;
this module is for everything else one wants to ask the harness:

* :func:`sweep_field` / :func:`sweep_grid` — derive families of
  experiment configs by varying one field or a cartesian grid of fields
  (both on the experiment config and on its nested graph config);
* :func:`run_experiments` — execute a list of configs one at a time,
  each with its trials fanned out over ``jobs`` workers or a named
  ``backend`` (via :func:`repro.feast.runner.run_experiment`).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import fields, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import ExperimentError
from repro.feast.config import ExperimentConfig
from repro.feast.instrumentation import Instrumentation
from repro.feast.runner import ExperimentResult, run_experiment
from repro.graph.generator import RandomGraphConfig
from repro.obs import Telemetry, write_events

#: Fields that live on the nested RandomGraphConfig rather than the
#: experiment config itself.
_GRAPH_FIELDS = {f.name for f in fields(RandomGraphConfig)}
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _apply(config: ExperimentConfig, name: str, value: Any) -> ExperimentConfig:
    if name in _CONFIG_FIELDS:
        return replace(config, **{name: value})
    if name in _GRAPH_FIELDS:
        return replace(
            config, graph_config=replace(config.graph_config, **{name: value})
        )
    raise ExperimentError(
        f"unknown sweep field {name!r}; not on ExperimentConfig or "
        "RandomGraphConfig"
    )


def _suffix(name: str, value: Any) -> str:
    text = str(value).replace(" ", "")
    return f"{name}={text}"


def sweep_field(
    base: ExperimentConfig,
    field_name: str,
    values: Sequence[Any],
) -> List[ExperimentConfig]:
    """One config per value of ``field_name``.

    The field may belong to the experiment config (e.g. ``topology``,
    ``policy``) or to the nested graph config (e.g.
    ``overall_laxity_ratio``, ``communication_to_computation_ratio``).
    Derived configs get distinguishing names.
    """
    if not values:
        raise ExperimentError("sweep needs at least one value")
    out = []
    for value in values:
        derived = _apply(base, field_name, value)
        out.append(
            replace(derived, name=f"{base.name}-{_suffix(field_name, value)}")
        )
    return out


def sweep_grid(
    base: ExperimentConfig,
    grid: Mapping[str, Sequence[Any]],
) -> List[ExperimentConfig]:
    """Cartesian product over several fields, one config per combination."""
    if not grid:
        raise ExperimentError("sweep grid is empty")
    names = list(grid)
    out = []
    for combo in itertools.product(*(grid[n] for n in names)):
        config = base
        for name, value in zip(names, combo):
            config = _apply(config, name, value)
        suffix = "-".join(_suffix(n, v) for n, v in zip(names, combo))
        out.append(replace(config, name=f"{base.name}-{suffix}"))
    return out


def trace_path(trace_dir: str, config: ExperimentConfig) -> str:
    """The event-log path of one config under ``trace_dir``."""
    return os.path.join(trace_dir, f"{config.name}.events.jsonl")


def status_path(trace_dir: str, config: ExperimentConfig) -> str:
    """The live status-stream path of one config under ``trace_dir``."""
    return os.path.join(trace_dir, f"{config.name}.status.jsonl")


def registry_record(
    run_id: str,
    result: ExperimentResult,
    inst: Instrumentation,
    started: float = 0.0,
    trace: str = "",
):
    """Build the run-registry record of one finished run.

    Bridges the feast-side result/instrumentation objects into the
    feast-free :class:`repro.obs.registry.RunRecord`, including the
    config fingerprint (record-determining fields only) and the
    order-sensitive digest of the canonical records.
    """
    from repro.feast.persistence import config_fingerprint
    from repro.obs.registry import RunRecord, records_digest

    config = result.config
    return RunRecord(
        run_id=run_id,
        experiment=config.name,
        fingerprint=config_fingerprint(config),
        backend=result.engine,
        jobs=result.jobs,
        started=started,
        wall_seconds=inst.wall_elapsed,
        n_trials=inst.trials_completed,
        n_records=len(result.records),
        streamed_trials=result.streamed_trials,
        replayed_trials=inst.replayed_trials,
        failures=len(result.failures),
        retries=inst.retries,
        quarantined=inst.quarantined,
        phase_seconds=inst.timings.as_dict(),
        supervision={
            k: float(v) for k, v in result.supervision.as_dict().items()
        },
        records_digest=records_digest(result.records),
        trace_path=trace,
    )


def run_summary(
    result: ExperimentResult, inst: Instrumentation
) -> Dict[str, Any]:
    """The ``summary`` event of one finished run's event log."""
    return {
        "jobs": result.jobs,
        "n_records": len(result.records),
        "elapsed_seconds": result.elapsed_seconds,
        "wall_elapsed_seconds": inst.wall_elapsed,
        "phase_seconds_total": inst.timings.total,
        "trials_replayed": inst.replayed_trials,
        "retries": inst.retries,
        "quarantined": inst.quarantined,
        "parallel_efficiency": inst.parallel_efficiency(result.jobs),
    }


def write_run_events(
    path: str, result: ExperimentResult, inst: Instrumentation
) -> List[Dict[str, Any]]:
    """Write one traced run's event log (spans, metrics, resources,
    failures, summary) to ``path`` and return the events.

    ``inst`` must be the run's :class:`Instrumentation` and must carry
    the :class:`~repro.obs.Telemetry` the run recorded into.
    """
    if inst.telemetry is None:
        raise ExperimentError(
            "cannot write an event log: the run's Instrumentation has no "
            "Telemetry attached (pass Instrumentation(telemetry=Telemetry()))"
        )
    return write_events(
        path,
        inst.telemetry,
        result.config.name,
        summary=run_summary(result, inst),
        failures=[f.as_dict() for f in result.failures],
    )


def run_experiments(
    configs: Sequence[ExperimentConfig],
    progress: Optional[Callable[[int, int], None]] = None,
    jobs: int = 1,
    checkpoint_dir: Optional[str] = None,
    trace_dir: Optional[str] = None,
    backend: Optional[str] = None,
) -> List[ExperimentResult]:
    """Run many experiments, one after another, in input order.

    ``jobs > 1`` fans each config's *trials* out over worker processes;
    see :func:`repro.feast.runner.run_experiment`.

    ``checkpoint_dir`` makes the batch resumable: each config journals
    its completed chunks into the checkpoint directory
    ``<dir>/<config name>.ckpt``, so re-running
    the same call after an interruption re-runs only the missing work
    (config names must therefore be unique, which
    :func:`sweep_field`/:func:`sweep_grid` guarantee).

    ``trace_dir`` enables telemetry: each config records spans, metrics,
    and resource samples and writes them to ``<dir>/<config
    name>.events.jsonl`` (inspect with ``repro report`` / ``repro
    trace``).

    ``backend`` routes every config through a named execution backend
    (:mod:`repro.feast.backends`; e.g. ``"subprocess"``, with ``jobs``
    worker processes per config).

    ``progress`` is called with (completed configs, total) — per-chunk
    progress is only available through
    :func:`repro.feast.runner.run_experiment` directly.
    """
    configs = list(configs)
    if not configs:
        return []
    if checkpoint_dir is not None or trace_dir is not None:
        names = [c.name for c in configs]
        if len(set(names)) != len(names):
            raise ExperimentError(
                "checkpoint_dir/trace_dir need unique config names, got "
                f"duplicates: "
                f"{sorted(n for n in set(names) if names.count(n) > 1)}"
            )
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    results: List[ExperimentResult] = []
    for index, config in enumerate(configs):
        checkpoint = (
            os.path.join(checkpoint_dir, f"{config.name}.ckpt")
            if checkpoint_dir is not None else None
        )
        inst = (
            Instrumentation(telemetry=Telemetry())
            if trace_dir is not None else None
        )
        result = run_experiment(
            config, jobs=jobs, checkpoint=checkpoint, instrumentation=inst,
            backend=backend,
        )
        if trace_dir is not None:
            write_run_events(trace_path(trace_dir, config), result, inst)
        results.append(result)
        if progress is not None:
            progress(index + 1, len(configs))
    return results
