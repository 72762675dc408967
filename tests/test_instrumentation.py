"""One run registry: every phase time and engine counter recorded once.

Each number a run reports is recorded in the process that did the work
and merged upward once, on every backend, traced or not. A chunk
replayed from a checkpoint journal counts as a replayed trial and adds
no phase seconds.
"""

import json

import pytest

from repro.feast.backends import RetryPolicy
from repro.feast.instrumentation import PHASES, Instrumentation
from repro.feast.persistence import SERIAL_JOURNAL, inspect_journal
from repro.feast.runner import run_experiment
from repro.feast.sweep import registry_record
from repro.obs import Telemetry

from tests.test_backends import dicts, tiny_config

BACKENDS = {
    "serial": {},
    "pool": {"jobs": 2},
    "subprocess": {"jobs": 2},
}


def phase_sums(inst):
    return {
        phase: inst.metrics.histograms[f"phase.{phase}.seconds"].total
        for phase in PHASES
    }


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_every_number_recorded_once(backend, traced):
    # A budget no trial can meet: every trial is kept but flagged slow.
    cfg = tiny_config(n_graphs=2, trial_timeout=1e-9)
    inst = Instrumentation(telemetry=Telemetry() if traced else None)
    result = run_experiment(
        cfg, backend=backend, instrumentation=inst,
        retry=RetryPolicy(timeout_grace=60.0), **BACKENDS[backend],
    )
    if traced:
        assert inst.metrics is inst.telemetry.metrics
    counters = inst.metrics.counters
    assert result.timings.as_dict() == phase_sums(inst)
    assert result.timings.total > 0
    assert counters["engine.trials_completed"] == cfg.n_trials
    assert inst.trials_completed == cfg.n_trials
    slow = [f for f in result.failures if f.kind == "slow-trial"]
    assert len(slow) == cfg.n_trials
    assert counters["engine.faults.slow-trial"] == len(slow)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_resumed_run_measures_nothing(backend, tmp_path):
    cfg = tiny_config(n_graphs=2)
    checkpoint = str(tmp_path / "ck")
    kwargs = dict(backend=backend, checkpoint=checkpoint, **BACKENDS[backend])
    first = run_experiment(cfg, **kwargs)
    inst = Instrumentation(telemetry=Telemetry())
    resumed = run_experiment(cfg, instrumentation=inst, **kwargs)
    assert dicts(resumed) == dicts(first)
    assert resumed.timings.total == 0
    assert inst.replayed_trials == inst.trials_completed == cfg.n_trials
    assert inst.parallel_efficiency(resumed.jobs) <= 1
    record = registry_record("resumed", resumed, inst)
    assert record.backend == (
        "subprocess" if backend == "pool" else backend
    )
    assert record.phase_seconds == dict.fromkeys(PHASES, 0.0)
    assert record.replayed_trials == record.n_trials == cfg.n_trials
    assert record.throughput == 0.0


def test_journal_lines_carry_records_not_measurements(tmp_path):
    """Chunk lines keep their ``timings`` key (the format is unchanged)
    but hold no measurements; a journal written with measured timings,
    as older versions wrote them, still resumes and adds none of them."""
    cfg = tiny_config(n_graphs=2)
    ck = tmp_path / "run.ckpt"
    first = run_experiment(cfg, checkpoint=str(ck))
    path = ck / SERIAL_JOURNAL
    lines = path.read_text().splitlines()
    chunks = [json.loads(line) for line in lines[1:]]
    assert all(c["timings"] == dict.fromkeys(PHASES, 0.0) for c in chunks)

    for chunk in chunks:
        chunk["timings"] = {"generate": 0.01, "distribute": 0.02,
                            "schedule": 0.03}
    path.write_text("\n".join(
        [lines[0]] + [json.dumps(c, sort_keys=True) for c in chunks]
    ) + "\n")
    assert inspect_journal(str(path)).n_chunks == len(chunks)
    inst = Instrumentation()
    resumed = run_experiment(cfg, checkpoint=str(ck), instrumentation=inst)
    assert dicts(resumed) == dicts(first)
    assert inst.replayed_trials == cfg.n_trials
    assert resumed.timings.total == 0


def test_telemetry_shared_across_runs_reports_each_run():
    """One session may span several runs (one event log for a whole
    workload); each run's views report only what that run added."""
    telemetry = Telemetry()
    cfg = tiny_config(n_graphs=2)
    first = Instrumentation(telemetry=telemetry)
    run_experiment(cfg, instrumentation=first)
    after_first = first.timings.total
    second = Instrumentation(telemetry=telemetry)
    result = run_experiment(cfg, instrumentation=second)
    assert second.trials_completed == cfg.n_trials
    assert telemetry.metrics.counters["engine.trials_completed"] == (
        2 * cfg.n_trials
    )
    assert 0 < result.timings.total < sum(phase_sums(second).values())
    assert sum(phase_sums(second).values()) == pytest.approx(
        after_first + result.timings.total
    )
