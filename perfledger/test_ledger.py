"""Tests of the performance ledger itself.

    PYTHONPATH=src python -m pytest perfledger/test_ledger.py -q

The last two tests run the benchmark's smoke mode in a subprocess (a few
seconds each); the rest are pure functions.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import ledgerstats  # noqa: E402
import spec  # noqa: E402
import workload  # noqa: E402


# -- the percentile rule ------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert ledgerstats.percentile(values, 0.5) == 50
    assert ledgerstats.percentile(values, 0.99) == 99
    assert ledgerstats.percentile(values, 1.0) == 100
    assert ledgerstats.percentile([7.0], 0.99) == 7.0


def test_p99_needs_ten_samples_beyond_it():
    assert ledgerstats.beyond(1200, 0.99) == 12
    assert ledgerstats.resolvable(1200, 0.99)
    assert ledgerstats.beyond(999, 0.99) == 9
    assert not ledgerstats.resolvable(999, 0.99)
    assert ledgerstats.resolvable(1000, 0.99)


def test_tail_reports_the_highest_resolvable_percentile():
    assert ledgerstats.tail(list(range(1200)))[0] == 0.99
    assert ledgerstats.tail(list(range(999)))[0] == 0.95
    assert ledgerstats.tail(list(range(60)))[0] == 0.75
    assert ledgerstats.tail(list(range(15))) is None


def test_summary_uses_exclusive_quartiles():
    s = ledgerstats.summarize([1, 2, 3, 4, 5])
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (1.5, 3, 4.5, 5)
    assert ledgerstats.summarize([4.0])["median"] == 4.0


# -- compare verdicts ---------------------------------------------------
BASE = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_verdict_worse_beyond_the_bound():
    cand = [v * 0.85 for v in BASE]
    verdict, change = ledgerstats.verdict(BASE, cand, "higher", 0.10)
    assert verdict == "worse"
    assert change == pytest.approx(-0.15)
    assert ledgerstats.verdict(BASE, [v * 1.15 for v in BASE],
                               "lower", 0.10)[0] == "worse"


def test_verdict_unchanged_within_the_bound():
    cand = [v * 0.97 for v in BASE]
    assert ledgerstats.verdict(BASE, cand, "higher", 0.10)[0] == "unchanged"


def test_verdict_better_beyond_the_baseline_spread():
    cand = [v * 1.2 for v in BASE]
    assert ledgerstats.verdict(BASE, cand, "higher", 0.10)[0] == "better"
    assert ledgerstats.verdict(BASE, [v * 0.8 for v in BASE],
                               "lower", 0.10)[0] == "better"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
    cand = [95.0, 100.0, 105.0, 110.0, 70.0]
    assert ledgerstats.verdict(noisy, cand, "higher", 0.10)[0] == \
        "unresolved"
    # ... unless every candidate run beats every baseline run.
    assert ledgerstats.verdict(noisy, [150.0, 151, 152, 153, 154],
                               "higher", 0.10)[0] == "better"


def test_absolute_bound_flags_any_increase():
    assert ledgerstats.verdict([0, 0, 0], [0, 0.01, 0], "lower", 0.0,
                               absolute=True)[0] == "unchanged"
    assert ledgerstats.verdict([0, 0, 0], [0.01, 0.01, 0.02], "lower", 0.0,
                               absolute=True)[0] == "worse"


def _ledger_file(path, kind, values, layer_us=100.0):
    runs = [{"seed": 1 + i, "digest": "d", "trials_per_ref_s": v,
             "cp.self_us": layer_us} for i, v in enumerate(values)]
    summary = {"trials_per_ref_s": ledgerstats.summarize(values)}
    if kind == "trace":
        summary = {"cp.self_us": ledgerstats.summarize([layer_us] * 3)}
    path.write_text(json.dumps({
        "format": "perfledger", "version": 1, "kind": kind, "seed": 1,
        "workloads": {"relaxed-bus": {"runs": runs, "summary": summary}},
    }))
    return str(path)


def test_compare_exits_nonzero_on_a_regression(tmp_path, capsys):
    import ledger

    base = _ledger_file(tmp_path / "a.json", "run", BASE)
    same = _ledger_file(tmp_path / "b.json", "run", BASE)
    slow = _ledger_file(tmp_path / "c.json", "run", [v * 0.7 for v in BASE])
    assert ledger.main(["compare", base, same]) == 0
    assert ledger.main(["compare", base, slow]) == 1
    assert "WORSE" in capsys.readouterr().out


def test_compare_diffs_layer_self_times_through_the_registry(tmp_path,
                                                             capsys):
    import ledger

    base = _ledger_file(tmp_path / "a.json", "trace", [1.0], 100.0)
    slower = _ledger_file(tmp_path / "b.json", "trace", [1.0], 150.0)
    assert ledger.main(["compare", base, slower]) == 0  # layers: no bound
    out = capsys.readouterr().out
    assert "cp " in out and "+50.0%" in out and "REGRESSIONS" in out


# -- self-time subtraction ----------------------------------------------
class FakeClock:
    """``perf_counter`` that only moves when work is simulated."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_is_total_minus_wrapped_callees(monkeypatch, tmp_path):
    fake = FakeClock()
    monkeypatch.setattr(time, "perf_counter", fake)
    clock = layers.LayerClock(str(tmp_path))

    inner = clock.timed("cp", lambda: fake.work(5.0))

    def body():
        fake.work(3.0)
        inner()
        inner()
        fake.work(2.0)

    def count_hook(table, args, kwargs):
        fake.work(0.5)  # counter bookkeeping: the probe's time, no layer's
        table[2]["cp.cells"] += 7

    outer = clock.timed("slicer", body, hook=count_hook)
    outer()
    snap = clock.snapshot()
    cp, slicer = snap["layers"]["cp"], snap["layers"]["slicer"]
    assert (cp["calls"], cp["total_s"], cp["self_s"]) == (2, 10.0, 10.0)
    assert (slicer["calls"], slicer["total_s"], slicer["self_s"]) == \
        (1, 15.0, 5.0)
    assert snap["counters"]["cp.cells"] == 7
    assert snap["probe_s"] == pytest.approx(0.5)
    wall = fake.now
    own = sum(v["self_s"] for v in snap["layers"].values())
    assert own + snap["probe_s"] == pytest.approx(wall)


def test_calibrated_overhead_moves_from_caller_to_probe(monkeypatch,
                                                        tmp_path):
    fake = FakeClock()
    monkeypatch.setattr(time, "perf_counter", fake)
    clock = layers.LayerClock(str(tmp_path))
    clock.overhead = 0.25  # outside the timers: charged to the caller
    clock.inner = 0.1  # inside each call's own timer
    inner = clock.timed("route", lambda: fake.work(1.0))
    outer = clock.timed("bus", lambda: (fake.work(4.0), inner(), inner()))
    outer()
    snap = clock.snapshot()
    assert snap["layers"]["route"]["self_s"] == pytest.approx(2 * 0.9)
    # 6 s inside bus's timer, less its inner 0.1, less 2 x 1.25 s spent
    # in route calls.
    assert snap["layers"]["bus"]["self_s"] == pytest.approx(3.4)
    assert snap["probe_s"] == pytest.approx(2 * 0.35 + 0.35)
    own = sum(v["self_s"] for v in snap["layers"].values())
    assert own + snap["probe_s"] == pytest.approx(6.0 + 0.25)


def test_calibration_finds_a_positive_probe_cost(tmp_path):
    clock = layers.LayerClock(str(tmp_path))
    clock.calibrate(calls=2000, reps=3)
    assert 0 < clock.overhead < 1e-4
    assert 0 <= clock.inner < 1e-4


def test_two_wide_host_speed_reaps_its_child():
    import refclock

    assert refclock.host_speed(2) > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_per_process_snapshots_merge(tmp_path):
    clock = layers.LayerClock(str(tmp_path))
    clock.timed("list", lambda: None)()
    clock.dump()
    (snap,) = layers.collect(str(tmp_path))
    merged = layers.merge([snap, snap], processes=2)
    assert merged["layers"]["list"]["calls"] == 2
    assert layers.collect(str(tmp_path), exclude_pid=os.getpid()) == []


# -- the digest gate ----------------------------------------------------
def test_digest_gate_rejects_a_wrong_digest():
    pins = {"seed": 1, "digests": {"relaxed-bus": "aa"}}
    assert workload.check_pin(pins, "relaxed-bus", 1, "aa")["ok"]
    wrong = workload.check_pin(pins, "relaxed-bus", 1, "ab")
    assert not wrong["ok"] and "pinned aa" in wrong["detail"]
    assert not workload.check_pin(pins, "sweep-fleet", 1, "aa")["ok"]
    assert workload.check_pin(pins, "relaxed-bus", 2, "zz")["ok"]


# -- BENCHMARK.json -----------------------------------------------------
def test_benchmark_json_matches_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        document = json.load(fp)
    assert document == spec.benchmark_json(document["run_seconds"])
    names = [m["name"] for m in document["end_to_end"]
             + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(m["bound"] <= 0.25 for m in document["end_to_end"])


def test_every_listed_layer_metric_is_produced():
    produced = set(layers.per_trial(layers.merge([]), 1))
    produced |= {"batch.scalar_ms", "batch.batch_ms", "batch.speedup",
                 "trace.overhead_pct"}
    side = {m.name for m in spec.PER_LAYER if m.workloads is not None}
    for m in spec.PER_LAYER:
        if m.name not in side:
            assert m.name in produced, m.name


# -- smoke runs (subprocess) --------------------------------------------
def _copy_benchmark(tmp_path):
    """A checkout holding the benchmark and a link to the program."""
    shutil.copytree(HERE, tmp_path / "perfledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return tmp_path


def _ledger(cwd, *argv):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfledger", "ledger.py"),
         *argv],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_smoke_gate_passes_and_fails_on_an_altered_pin(tmp_path):
    root = _copy_benchmark(tmp_path)
    ok = _ledger(root, "run", "--smoke", "--workload", "strict-locality")
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert "strict-locality seed 1: correct" in ok.stdout

    pins_path = root / "perfledger" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["digests"]["strict-locality"] = "0" * 32
    pins_path.write_text(json.dumps(pins))
    bad = _ledger(root, "run", "--smoke", "--workload", "strict-locality")
    assert bad.returncode == 1
    assert "records digest equals the pinned digest" in bad.stdout


def test_bench_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _ledger(tmp_path, "bench", "--workload", "relaxed-bus",
                     "--seed", "1", "--seconds", "1", "--trace", "0")
    assert result.returncode != 0
    assert not any(line.startswith("{")
                   for line in result.stdout.splitlines())
    assert "no program to measure" in result.stderr
