"""The deterministic fuzzer: sampling, shrinking, reproducers, CLI."""

import json

from repro.cli import main
from repro.graph.serialization import graph_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.qa import (
    CheckResult,
    FuzzConfig,
    FuzzFailure,
    QAReport,
    replay_reproducer,
    run_fuzz,
    scenario_from_dict,
    shrink_graph,
)
from repro.qa.fuzz import _build_graph, _draw_scenario


def _fan_graph(n_leaves=4):
    g = TaskGraph(name="fan")
    g.add_subtask("root", wcet=1.0, release=0.0)
    for i in range(n_leaves):
        g.add_subtask(f"leaf{i}", wcet=2.0, end_to_end_deadline=50.0)
        g.add_edge("root", f"leaf{i}", message_size=3.0)
    return g


class TestScenarioSampling:
    def test_draw_is_deterministic(self):
        assert _draw_scenario(5, 17) == _draw_scenario(5, 17)
        assert _draw_scenario(5, 17) != _draw_scenario(5, 18)
        assert _draw_scenario(5, 17) != _draw_scenario(6, 17)

    def test_scenarios_are_json_serializable(self):
        for trial in range(20):
            scenario = _draw_scenario(0, trial)
            assert json.loads(json.dumps(scenario)) == scenario

    def test_graph_rebuild_is_deterministic(self):
        scenario = _draw_scenario(1, 2)
        a = _build_graph(scenario)
        b = _build_graph(scenario)
        assert graph_to_dict(a) == graph_to_dict(b)

    def test_scenario_from_dict_roundtrip(self):
        scenario = _draw_scenario(4, 9)
        graph, system, metric, estimator = scenario_from_dict(scenario)
        assert graph_to_dict(graph) == graph_to_dict(_build_graph(scenario))
        assert system.n_processors == scenario["n_processors"]
        assert metric == scenario["metric"]
        assert estimator == scenario["estimator"]

    def test_scenario_from_dict_prefers_embedded_graph(self):
        scenario = _draw_scenario(4, 9)
        embedded = _fan_graph()
        data = {"scenario": scenario, "graph": graph_to_dict(embedded)}
        graph, _, _, _ = scenario_from_dict(data)
        assert graph_to_dict(graph) == graph_to_dict(embedded)


class TestShrinking:
    def test_shrinks_to_minimal_witness(self):
        # Predicate: the graph still contains leaf2. The minimum is the
        # single-node graph {leaf2} (root is droppable: leaf2 then
        # becomes an input and gets re-anchored).
        shrunk = shrink_graph(
            _fan_graph(), lambda g: "leaf2" in g
        )
        assert shrunk.node_ids() == ["leaf2"]
        shrunk.validate()  # still a well-anchored graph

    def test_reanchors_new_inputs_and_outputs(self):
        g = TaskGraph(name="chain")
        g.add_subtask("a", wcet=1.0, release=0.0)
        g.add_subtask("b", wcet=2.0)
        g.add_subtask("c", wcet=3.0, end_to_end_deadline=30.0)
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        shrunk = shrink_graph(g, lambda graph: "b" in graph)
        assert shrunk.node_ids() == ["b"]
        assert shrunk.node("b").release == 0.0
        assert shrunk.node("b").end_to_end_deadline == 30.0

    def test_rounds_weights(self):
        g = TaskGraph(name="w")
        g.add_subtask("a", wcet=3.7182, release=0.0)
        g.add_subtask("b", wcet=2.1415, end_to_end_deadline=25.5)
        g.add_edge("a", "b", message_size=4.333)
        shrunk = shrink_graph(g, lambda graph: graph.has_edge("a", "b"))
        assert shrunk.node("a").wcet == 4.0
        assert shrunk.node("b").wcet == 2.0
        assert shrunk.message("a", "b").size == 4.0

    def test_never_returns_invalid_graph(self):
        # A predicate that accepts anything must still only ever see
        # (and return) validly anchored graphs.
        seen = []

        def predicate(graph):
            graph.validate()
            seen.append(graph.n_subtasks)
            return True

        shrunk = shrink_graph(_fan_graph(), predicate)
        assert shrunk.n_subtasks == 1
        assert seen  # candidates were actually exercised

    def test_respects_step_budget(self):
        calls = []

        def predicate(graph):
            calls.append(1)
            return False

        shrink_graph(_fan_graph(), predicate, max_steps=3)
        assert len(calls) <= 3


class TestRunFuzz:
    def test_clean_campaign_is_deterministic(self):
        config = FuzzConfig(seed=0, trials=8)
        first = run_fuzz(config)
        second = run_fuzz(config)
        assert first.trials_run == second.trials_run == 8
        assert first.ok and second.ok
        assert "PASS" in first.summary()

    def test_time_budget_stops_early(self):
        result = run_fuzz(FuzzConfig(seed=0, trials=50, time_budget=0.0))
        assert result.trials_run == 0

    def test_progress_callback_sees_every_trial(self):
        trials = []
        run_fuzz(
            FuzzConfig(seed=0, trials=5),
            progress=lambda trial, failure: trials.append((trial, failure)),
        )
        assert [t for t, _ in trials] == list(range(5))
        assert all(f is None for _, f in trials)


class TestReproducers:
    def _failure(self):
        scenario = _draw_scenario(0, 0)
        report = QAReport(
            graph_name="fan", metric="PURE", estimator="CCNE",
            n_processors=2, n_subtasks=5,
        )
        report.checks.append(CheckResult("schedule.replay", False, "boom"))
        return FuzzFailure(
            trial=0, scenario=scenario, report=report,
            shrunk_graph=_fan_graph(), shrunk_report=report,
        )

    def test_to_dict_is_standalone(self):
        data = self._failure().to_dict()
        assert data["format"] == "repro-qa-failure"
        assert data["failing_checks"] == ["schedule.replay"]
        graph, system, metric, estimator = scenario_from_dict(
            json.loads(json.dumps(data))
        )
        assert graph_to_dict(graph) == graph_to_dict(_fan_graph())

    def test_cli_replay_of_reproducer(self, tmp_path, capsys):
        # A reproducer for a scenario that is actually healthy replays
        # clean and exits 0.
        data = self._failure().to_dict()
        path = tmp_path / "failure.json"
        path.write_text(json.dumps(data))
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "[PASS]" in capsys.readouterr().out


class TestReplayGating:
    """``--replay`` must exercise the live campaign's exact check set.

    The replay path once re-checked reproducers through
    ``check_pipeline``'s defaults, which silently dropped the exhaustive
    differential and widened the B&B gate — precisely on the degenerate
    (zero-edge, single-subtask) scenarios small enough to sit behind
    that gating. These pin ``replay_reproducer`` to ``_check_scenario``.
    """

    @staticmethod
    def _scenario(n_processors=2):
        scenario = dict(_draw_scenario(0, 0))
        scenario["n_processors"] = n_processors
        scenario["metric"] = "PURE"
        scenario["estimator"] = "CCNE"
        return scenario

    @staticmethod
    def _names(report):
        return [c.name for c in report.checks]

    def test_replay_matches_live_check_set(self):
        from repro.qa.fuzz import _check_scenario

        config = FuzzConfig()
        for trial in range(6):
            scenario = _draw_scenario(2, trial)
            live = _check_scenario(_build_graph(scenario), scenario, config)
            replayed = replay_reproducer(scenario, config=config)
            assert self._names(replayed) == self._names(live)
            assert replayed.ok == live.ok

    def test_single_subtask_replay_runs_exhaustive_differential(self):
        g = TaskGraph(name="solo")
        g.add_subtask("only", wcet=3.0, release=0.0,
                      end_to_end_deadline=10.0)
        data = {"scenario": self._scenario(), "graph": graph_to_dict(g)}
        report = replay_reproducer(data)
        assert "optimal.matches_exhaustive" in self._names(report)
        assert report.ok

    def test_zero_edge_replay_runs_exhaustive_differential(self):
        g = TaskGraph(name="islands")
        for i in range(3):
            g.add_subtask(f"n{i}", wcet=1.0 + i, release=0.0,
                          end_to_end_deadline=25.0)
        data = {"scenario": self._scenario(), "graph": graph_to_dict(g)}
        report = replay_reproducer(data)
        assert "optimal.matches_exhaustive" in self._names(report)
        assert report.ok

    def test_over_constrained_replay_checks_degenerate_contract(self):
        g = TaskGraph(name="collapsed")
        g.add_subtask("only", wcet=5.0, release=0.0,
                      end_to_end_deadline=2.0)
        data = {"scenario": self._scenario(), "graph": graph_to_dict(g)}
        report = replay_reproducer(data)
        assert "distribution.degenerate_contract" in self._names(report)
        assert report.ok

    def test_large_platform_gates_exhaustive_off_like_live(self):
        g = _fan_graph(n_leaves=2)
        data = {
            "scenario": self._scenario(n_processors=8),
            "graph": graph_to_dict(g),
        }
        report = replay_reproducer(data)
        assert "optimal.matches_exhaustive" not in self._names(report)


class TestCLI:
    def test_fuzz_command_passes(self, capsys):
        code = main(["fuzz", "--trials", "4", "--seed", "0", "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] fuzz seed=0: 4/4 trials" in out

    def test_fuzz_command_writes_nothing_on_success(self, tmp_path, capsys):
        out_dir = tmp_path / "reproducers"
        code = main([
            "fuzz", "--trials", "3", "--seed", "0",
            "--out", str(out_dir), "--quiet",
        ])
        assert code == 0
        assert not out_dir.exists() or not list(out_dir.iterdir())
