"""Experiment configuration validation and method specs."""

import pytest

from repro.core.metrics import (
    AdaptiveLaxityRatio,
    PureLaxityRatio,
    ThresholdLaxityRatio,
)
from repro.errors import ExperimentError
from repro.feast.config import (
    PAPER_N_GRAPHS,
    PAPER_SYSTEM_SIZES,
    ExperimentConfig,
    MethodSpec,
)


def spec(**kwargs):
    defaults = dict(label="m", metric="PURE")
    defaults.update(kwargs)
    return MethodSpec(**defaults)


class TestMethodSpec:
    def test_build_pure(self):
        d = spec(metric="PURE", comm="CCAA").build()
        assert isinstance(d.metric, PureLaxityRatio)
        assert d.estimator.name == "CCAA"

    def test_build_thres_with_params(self):
        d = spec(metric="THRES", surplus=2.0, threshold_factor=1.0).build()
        assert isinstance(d.metric, ThresholdLaxityRatio)
        assert d.metric.surplus == 2.0
        assert d.metric.threshold_factor == 1.0

    def test_build_adapt(self):
        d = spec(metric="ADAPT", threshold_factor=1.25).build()
        assert isinstance(d.metric, AdaptiveLaxityRatio)

    def test_needs_system_size(self):
        assert spec(metric="ADAPT").needs_system_size
        assert not spec(metric="THRES").needs_system_size
        assert not spec(metric="PURE").needs_system_size

    def test_unknown_metric(self):
        with pytest.raises(ExperimentError):
            spec(metric="MAGIC")

    def test_unknown_comm(self):
        with pytest.raises(ExperimentError):
            spec(comm="CCXX")

    def test_cost_per_item_propagates(self):
        d = spec(comm="CCAA", cost_per_item=2.5).build()
        assert d.estimator.cost_per_item == 2.5


class TestExperimentConfig:
    def base(self, **kwargs):
        defaults = dict(
            name="exp",
            description="d",
            methods=(spec(label="A"), spec(label="B", metric="NORM")),
        )
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    def test_defaults_match_paper(self):
        cfg = self.base()
        assert cfg.n_graphs == PAPER_N_GRAPHS == 128
        assert cfg.system_sizes == PAPER_SYSTEM_SIZES
        assert min(cfg.system_sizes) == 2 and max(cfg.system_sizes) == 16
        assert cfg.scenarios == ("LDET", "MDET", "HDET")
        assert cfg.topology == "bus"
        assert cfg.policy == "EDF"

    def test_n_trials(self):
        cfg = self.base(
            n_graphs=4, system_sizes=(2, 4), scenarios=("MDET",)
        )
        assert cfg.n_trials == 1 * 2 * 2 * 4

    def test_scaled(self):
        assert self.base().scaled(8).n_graphs == 8

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ExperimentError, match="duplicate"):
            self.base(methods=(spec(label="A"), spec(label="A")))

    def test_no_methods_rejected(self):
        with pytest.raises(ExperimentError):
            self.base(methods=())

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExperimentError):
            self.base(scenarios=("XDET",))

    def test_bad_sizes_rejected(self):
        with pytest.raises(ExperimentError):
            self.base(system_sizes=())
        with pytest.raises(ExperimentError):
            self.base(system_sizes=(0, 2))
        with pytest.raises(ExperimentError, match="repeat"):
            self.base(system_sizes=(4, 4, 8))

    def test_unknown_topology_rejected(self):
        with pytest.raises(ExperimentError):
            self.base(topology="hypercube")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ExperimentError):
            self.base(policy="SJF")

    def test_bad_n_graphs(self):
        with pytest.raises(ExperimentError):
            self.base(n_graphs=0)

    def test_validation_messages_name_the_field(self):
        """Eager validation points at the offending field and value."""
        with pytest.raises(ExperimentError, match="methods"):
            self.base(methods=())
        with pytest.raises(ExperimentError, match=r"n_graphs.*-3"):
            self.base(n_graphs=-3)
        with pytest.raises(ExperimentError, match="system_sizes"):
            self.base(system_sizes=())
        with pytest.raises(ExperimentError, match=r"system_sizes.*\(0, 2\)"):
            self.base(system_sizes=(0, 2))

    def test_trial_timeout_validation(self):
        assert self.base(trial_timeout=None).trial_timeout is None
        assert self.base(trial_timeout=1.5).trial_timeout == 1.5
        for bad in (0, -1.0, float("nan")):
            with pytest.raises(ExperimentError, match="trial_timeout"):
                self.base(trial_timeout=bad)

    def test_max_retries_validation(self):
        assert self.base(max_retries=0).max_retries == 0
        with pytest.raises(ExperimentError, match="max_retries"):
            self.base(max_retries=-1)
