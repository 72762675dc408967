"""Parameter sweeps and parallel experiment execution."""

import pytest

from repro.errors import ExperimentError
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.sweep import run_experiments, sweep_field, sweep_grid
from repro.graph.generator import RandomGraphConfig


def base_config():
    return ExperimentConfig(
        name="sweepme",
        description="sweep test",
        methods=(MethodSpec(label="PURE", metric="PURE"),),
        graph_config=RandomGraphConfig(
            n_subtasks_range=(8, 10), depth_range=(3, 4)
        ),
        scenarios=("MDET",),
        n_graphs=2,
        system_sizes=(2,),
        seed=3,
    )


class TestSweepField:
    def test_experiment_field(self):
        configs = sweep_field(base_config(), "topology", ["bus", "ring"])
        assert [c.topology for c in configs] == ["bus", "ring"]
        assert configs[0].name == "sweepme-topology=bus"
        assert configs[1].name == "sweepme-topology=ring"

    def test_graph_field(self):
        configs = sweep_field(
            base_config(), "overall_laxity_ratio", [1.1, 2.0]
        )
        assert [
            c.graph_config.overall_laxity_ratio for c in configs
        ] == [1.1, 2.0]
        # Base experiment fields survive.
        assert all(c.scenarios == ("MDET",) for c in configs)

    def test_unknown_field(self):
        with pytest.raises(ExperimentError, match="unknown sweep field"):
            sweep_field(base_config(), "warp_factor", [1])

    def test_empty_values(self):
        with pytest.raises(ExperimentError):
            sweep_field(base_config(), "topology", [])


class TestSweepGrid:
    def test_cartesian_product(self):
        configs = sweep_grid(
            base_config(),
            {"topology": ["bus", "ring"], "policy": ["EDF", "LLF"]},
        )
        assert len(configs) == 4
        combos = {(c.topology, c.policy) for c in configs}
        assert combos == {
            ("bus", "EDF"), ("bus", "LLF"), ("ring", "EDF"), ("ring", "LLF"),
        }
        assert all(c.name.startswith("sweepme-") for c in configs)
        assert len({c.name for c in configs}) == 4

    def test_mixed_levels(self):
        configs = sweep_grid(
            base_config(),
            {"overall_laxity_ratio": [1.1, 1.5], "topology": ["bus"]},
        )
        assert len(configs) == 2
        assert {c.graph_config.overall_laxity_ratio for c in configs} == {
            1.1, 1.5,
        }

    def test_empty_grid(self):
        with pytest.raises(ExperimentError):
            sweep_grid(base_config(), {})


class TestRunExperiments:
    def test_serial(self):
        configs = sweep_field(base_config(), "topology", ["bus", "ideal"])
        done = []
        results = run_experiments(
            configs, progress=lambda i, n: done.append((i, n))
        )
        assert len(results) == 2
        assert done == [(1, 2), (2, 2)]
        assert all(len(r) == 2 for r in results)  # 1 size x 1 method x 2 graphs

    def test_trial_jobs_match_serial(self):
        configs = sweep_field(base_config(), "seed", [3, 4])
        serial = run_experiments(configs)
        fanned = run_experiments(configs, jobs=2)
        for a, b in zip(serial, fanned):
            assert [r.as_dict() for r in a.records] == [
                r.as_dict() for r in b.records
            ]

    def test_checkpoint_dir_resumes_batch(self, tmp_path):
        import os

        configs = sweep_field(base_config(), "seed", [3, 4])
        ckpt = str(tmp_path / "ckpts")
        first = run_experiments(configs, checkpoint_dir=ckpt)
        assert sorted(os.listdir(ckpt)) == sorted(
            f"{c.name}.ckpt" for c in configs
        )
        again = run_experiments(configs, checkpoint_dir=ckpt)
        for a, b in zip(first, again):
            assert [r.as_dict() for r in a.records] == [
                r.as_dict() for r in b.records
            ]

    def test_checkpoint_dir_rejects_duplicate_names(self, tmp_path):
        with pytest.raises(ExperimentError, match="unique"):
            run_experiments(
                [base_config(), base_config()],
                checkpoint_dir=str(tmp_path),
            )

    def test_empty(self):
        assert run_experiments([]) == []
