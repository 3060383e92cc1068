"""Tests for the built-in experiment campaigns and spec resolution."""

import pytest

from repro.campaign.experiments import BENCH_CONFIG, BUILTIN_CAMPAIGNS, resolve_spec
from repro.campaign.spec import CampaignSpec
from repro.scenarios.spec import build_controller
from repro.scenarios.trials import scenario_grid_spec, scenario_trial
from repro.sim.runner import run_attack

#: The fields every paper-experiment grid point pins.
CSA_GRID = {"scenario": "csa-baseline", "twin": False}


class TestGridShapes:
    def test_exp03_grid(self):
        spec = resolve_spec("exp03")
        assert spec.trial_count == 60  # 5 sizes x 4 controllers x 3 seeds
        assert spec.grid[0] == {
            "node_count": 50, "controller": "csa", "seed": 1, **CSA_GRID,
        }
        # Seeds vary fastest, so one (size, controller) cell is contiguous.
        assert [p["seed"] for p in spec.grid[:3]] == [1, 2, 3]
        assert [p["controller"] for p in spec.grid[:12:3]] == [
            "csa", "greedy-weight", "nearest-first", "random",
        ]

    def test_exp04_grid(self):
        spec = resolve_spec("exp04")
        assert spec.trial_count == 30  # 5 key counts x 2 controllers x 3 seeds
        assert {p["node_count"] for p in spec.grid} == {150}
        assert [p["seed"] for p in spec.grid[:3]] == [1, 2, 3]

    def test_exp07_grid(self):
        spec = resolve_spec("exp07")
        assert spec.trial_count == 48  # 4 intervals x 3 controllers x 4 seeds
        controllers = {p["controller"] for p in spec.grid}
        assert controllers == {"csa", "csa-no-windows", "blatant"}
        intervals = sorted({p["audit_interval_s"] for p in spec.grid})
        assert intervals == [h * 3600.0 for h in (12.0, 24.0, 48.0, 96.0)]
        assert [p["seed"] for p in spec.grid[:4]] == [1, 2, 3, 4]

    def test_ext04_grid(self):
        spec = resolve_spec("ext04")
        assert spec.trial_count == 12  # 4 honest counts x 3 seeds
        assert {p["honest_chargers"] for p in spec.grid} == {0, 1, 2, 3}
        assert [p["seed"] for p in spec.grid[:3]] == [1, 2, 3]

    def test_all_builtins_resolve_their_kernels(self):
        for builder in BUILTIN_CAMPAIGNS.values():
            spec = builder()
            assert spec.trial == "repro.scenarios.trials:scenario_trial"
            assert callable(spec.resolve_trial())
            assert spec.description


class TestResolveSpec:
    def test_builtin_name(self):
        assert resolve_spec("exp03").name == "exp03"

    def test_module_reference(self):
        spec = resolve_spec("tests.campaign.trials:tiny_spec")
        assert isinstance(spec, CampaignSpec)
        assert spec.name == "tiny"

    def test_unknown_name_lists_builtins(self):
        with pytest.raises(ValueError, match="exp03"):
            resolve_spec("definitely-not-a-campaign")

    def test_reference_must_produce_a_spec(self):
        with pytest.raises(ValueError, match="did not produce a CampaignSpec"):
            resolve_spec("tests.campaign.trials:not_a_spec")


class TestTrialKernels:
    def test_exp03_point_smoke(self):
        # One real (small) simulation through the kernel: the headline
        # scenario at its smallest size must exhaust key nodes undetected.
        metrics = scenario_trial(resolve_spec("exp03").grid[0])
        assert metrics["controller"] == "attacker[CSA]"
        assert metrics["exhausted_key_ratio"] >= 0.8
        assert metrics["detected"] is False

    def test_spec_field_override(self):
        metrics = scenario_trial(
            {**CSA_GRID, "seed": 1, "node_count": 40, "controller": "greedy-weight"}
        )
        assert metrics["controller"] == "attacker[Greedy-Weight]"
        assert metrics["twin_latency_s"] is None

    def test_honest_chargers_join_the_fleet(self):
        cfg = BENCH_CONFIG.with_(node_count=40, honest_chargers=2)
        direct = run_attack(
            cfg, 1, controller=build_controller("csa", cfg.key_count, 1)
        )
        metrics = scenario_trial(
            {**CSA_GRID, "seed": 1, "node_count": 40, "honest_chargers": 2}
        )
        assert metrics["exhausted_key_count"] == len(direct.exhausted_key_ids())
        assert metrics["deaths"] == len(direct.trace.deaths())
        assert metrics["spoof_services"] > 0

    def test_unknown_controller_rejected_at_grid_build(self):
        with pytest.raises(ValueError, match="unknown controller 'Mystery'"):
            scenario_grid_spec(
                "bad", "typo", {"controller": ("csa", "Mystery"), "seed": (1,)},
                pinned=CSA_GRID,
            )

    @pytest.mark.parametrize(
        "axis, error",
        [
            ({"node_cnt": (40,)}, ValueError),
            ({"controller_params": ({"spoof_probabilty": 0.5},)}, TypeError),
        ],
        ids=["config-field", "controller-param"],
    )
    def test_unknown_field_rejected_at_grid_build(self, axis, error):
        with pytest.raises(error, match="node_cnt|spoof_probabilty"):
            scenario_grid_spec("bad", "typo", {**axis, "seed": (1,)}, pinned=CSA_GRID)
