"""Tests for the scenario spec dataclass and the named registry."""

import pytest

from repro.scenarios import (
    CONTROLLER_CATALOGUE,
    ScenarioSpec,
    all_specs,
    build_controller,
    get_scenario,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from repro.sim.scenario import ScenarioConfig

BUILTINS = (
    "benign",
    "benign-on-demand",
    "command-spoof",
    "command-spoof-on-demand",
    "csa-baseline",
    "csa-intermittent",
    "csa-on-demand",
)


class TestSpecValidation:
    def test_bad_name_rejected(self):
        with pytest.raises(ValueError, match="scenario name"):
            ScenarioSpec(name="Bad Name!", description="x")

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError, match="unknown controller"):
            ScenarioSpec(name="x", description="x", controller="nonesuch")

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ScenarioConfig field"):
            ScenarioSpec(
                name="x", description="x",
                config_overrides={"not_a_field": 1},
            )

    def test_mappings_frozen_after_construction(self):
        spec = ScenarioSpec(name="x", description="x",
                            controller_params={"key_count": 5})
        with pytest.raises(TypeError):
            spec.controller_params["key_count"] = 6

    def test_unknown_catalogue_name_errors_helpfully(self):
        with pytest.raises(ValueError, match="catalogue"):
            build_controller("nonesuch", key_count=5, seed=0)


class TestComposition:
    def test_derive_merges_overrides(self):
        base = ScenarioSpec(
            name="base", description="base",
            controller_params={"key_count": 5, "spoof_probability": 1.0},
            config_overrides={"node_count": 50},
        )
        child = base.derive(
            "child", "child",
            controller_params={"spoof_probability": 0.5},
            config_overrides={"horizon_days": 7.0},
        )
        assert dict(child.controller_params) == {
            "key_count": 5, "spoof_probability": 0.5,
        }
        assert dict(child.config_overrides) == {
            "node_count": 50, "horizon_days": 7.0,
        }
        # The parent is untouched.
        assert dict(base.config_overrides) == {"node_count": 50}

    def test_derive_replaces_scalar_fields(self):
        base = ScenarioSpec(name="base", description="base", twin=True)
        child = base.derive("child", "child", twin=False)
        assert base.twin and not child.twin

    def test_derived_spec_revalidates(self):
        base = ScenarioSpec(name="base", description="base")
        with pytest.raises(ValueError, match="unknown ScenarioConfig field"):
            base.derive("child", "child", config_overrides={"bogus": 1})


class TestResolution:
    def test_resolve_config_applies_overrides(self):
        spec = ScenarioSpec(
            name="x", description="x",
            config_overrides={"request_delay_mean_s": 600.0},
        )
        cfg = spec.resolve_config(ScenarioConfig(node_count=40))
        assert cfg.node_count == 40
        assert cfg.request_delay_mean_s == 600.0

    def test_resolve_config_defaults_to_stock_config(self):
        spec = ScenarioSpec(name="x", description="x")
        assert spec.resolve_config() == ScenarioConfig()

    def test_every_builtin_builds_a_controller(self):
        for name in BUILTINS:
            spec = get_scenario(name)
            cfg = spec.resolve_config(ScenarioConfig(node_count=30, key_count=3))
            controller = spec.build_controller(cfg, seed=1)
            assert hasattr(controller, "next_action"), name

    def test_catalogue_names_are_stable(self):
        assert set(CONTROLLER_CATALOGUE) == {
            "benign", "csa", "blatant", "command-spoof",
            "csa-no-windows", "greedy-weight", "nearest-first", "random",
        }


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTINS) <= set(scenario_names())

    def test_get_unknown_scenario_lists_known(self):
        with pytest.raises(KeyError, match="csa-baseline"):
            get_scenario("nonesuch")

    def test_all_specs_sorted_by_name(self):
        names = [s.name for s in all_specs()]
        assert names == sorted(names)

    def test_duplicate_registration_rejected(self):
        spec = ScenarioSpec(name="tmp-dup-test", description="x")
        register_scenario(spec)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(spec)
            # Deliberate replacement is allowed.
            register_scenario(spec, replace=True)
        finally:
            unregister_scenario("tmp-dup-test")
        assert "tmp-dup-test" not in scenario_names()

    def test_to_dict_round_trips_through_json(self):
        import json

        for spec in all_specs():
            encoded = json.dumps(spec.to_dict())
            assert json.loads(encoded)["name"] == spec.name

    def test_on_demand_variants_compose_arrival_delay(self):
        for name in BUILTINS:
            spec = get_scenario(name)
            delay = dict(spec.config_overrides).get("request_delay_mean_s", 0.0)
            if name.endswith("-on-demand"):
                assert delay > 0.0, name
            else:
                assert delay == 0.0, name
