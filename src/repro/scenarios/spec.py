"""Declarative scenario specifications.

A :class:`ScenarioSpec` is pure data describing one attack×defence
set-up: which controller drives the charger (by catalogue name, with
parameters), which knobs of the shared :class:`~repro.sim.scenario.ScenarioConfig`
it overrides, and which defences are deployed.  Specs are frozen and
JSON-able, so the same object backs the CLI catalogue, campaign grids and
the streaming-detection benchmark.

Composition is by derivation: :meth:`ScenarioSpec.derive` produces a new
spec with overrides *merged* over the parent's — e.g. the
probabilistic-arrivals pack is each base scenario with one extra config
override, not a hand-copied variant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.sim.scenario import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.actions import MissionController

__all__ = ["CONTROLLER_CATALOGUE", "ScenarioSpec", "build_controller"]

_NAME_PATTERN = re.compile(r"[a-z0-9][a-z0-9\-]*")

_CONFIG_FIELDS = frozenset(f.name for f in fields(ScenarioConfig))


def _make_benign(key_count: int, seed: int, params: Mapping[str, Any]) -> Any:
    from repro.sim.benign import BenignController

    return BenignController(**params)


def _make_csa(key_count: int, seed: int, params: Mapping[str, Any]) -> Any:
    from repro.attack.attacker import CsaAttacker

    return CsaAttacker(key_count=key_count, seed=seed, **params)


def _make_blatant(key_count: int, seed: int, params: Mapping[str, Any]) -> Any:
    from repro.attack.attacker import BlatantAttacker

    return BlatantAttacker(key_count=key_count, **params)


def _make_command_spoof(key_count: int, seed: int, params: Mapping[str, Any]) -> Any:
    from repro.attack.command_spoof import CommandSpoofAttacker

    return CommandSpoofAttacker(key_count=key_count, **params)


def _make_csa_no_windows(key_count: int, seed: int, params: Mapping[str, Any]) -> Any:
    from repro.attack.attacker import PlannedAttacker
    from repro.core.windows import StealthPolicy

    return PlannedAttacker(
        stealth=StealthPolicy.none(), key_count=key_count, **params
    )


def _make_greedy_weight(key_count: int, seed: int, params: Mapping[str, Any]) -> Any:
    from repro.attack.attacker import PlannedAttacker
    from repro.core.baselines import GreedyWeightPlanner

    return PlannedAttacker(
        planner=GreedyWeightPlanner(), key_count=key_count, **params
    )


def _make_nearest_first(key_count: int, seed: int, params: Mapping[str, Any]) -> Any:
    from repro.attack.attacker import PlannedAttacker
    from repro.core.baselines import NearestFirstPlanner

    return PlannedAttacker(
        planner=NearestFirstPlanner(), key_count=key_count, **params
    )


def _make_random(key_count: int, seed: int, params: Mapping[str, Any]) -> Any:
    from repro.attack.attacker import PlannedAttacker
    from repro.core.baselines import RandomPlanner

    # The planner's seed is pinned at 0, not the trial seed: EXP-03's
    # Random column has always been generated this way.
    return PlannedAttacker(planner=RandomPlanner(0), key_count=key_count, **params)


#: Controller factories by catalogue name.  Each factory receives the
#: resolved config's ``key_count``, the trial seed, and the spec's
#: ``controller_params``, and returns a fresh single-use controller.
#: The last four are the planner baselines: the CSA attacker's
#: cover-traffic behaviour with a different TIDE planner or no
#: stealth windows.
CONTROLLER_CATALOGUE: dict[
    str, Callable[[int, int, Mapping[str, Any]], "MissionController"]
] = {
    "benign": _make_benign,
    "csa": _make_csa,
    "blatant": _make_blatant,
    "command-spoof": _make_command_spoof,
    "csa-no-windows": _make_csa_no_windows,
    "greedy-weight": _make_greedy_weight,
    "nearest-first": _make_nearest_first,
    "random": _make_random,
}


def build_controller(
    name: str, key_count: int, seed: int, params: Mapping[str, Any] | None = None
) -> "MissionController":
    """A fresh controller from the catalogue (clear error on a typo)."""
    try:
        factory = CONTROLLER_CATALOGUE[name]
    except KeyError:
        known = ", ".join(sorted(CONTROLLER_CATALOGUE))
        raise ValueError(
            f"unknown controller {name!r}; catalogue: {known}"
        ) from None
    return factory(key_count, seed, dict(params or {}))


@dataclass(frozen=True)
class ScenarioSpec:
    """One named attack×defence scenario, as pure data.

    Parameters
    ----------
    name:
        Registry key (lower-case, digits, dashes).
    description:
        One-line human summary (shown by ``repro scenarios list``).
    controller:
        Catalogue name of the mission controller
        (:data:`CONTROLLER_CATALOGUE`).
    controller_params:
        Keyword arguments for the controller factory (JSON-able).
    config_overrides:
        :class:`~repro.sim.scenario.ScenarioConfig` fields this scenario
        pins; unknown field names are rejected at construction.
    detectors:
        Deploy the periodic base-station detector suite.
    twin:
        Deploy the streaming :class:`~repro.twin.detector.TwinDetector`.
    audit_interval_s:
        Optional voltage-audit intensity override.
    tags:
        Free-form labels (``repro scenarios list`` groups by them).
    """

    name: str
    description: str
    controller: str = "csa"
    controller_params: Mapping[str, Any] = field(default_factory=dict)
    config_overrides: Mapping[str, Any] = field(default_factory=dict)
    detectors: bool = True
    twin: bool = True
    audit_interval_s: float | None = None
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not _NAME_PATTERN.fullmatch(self.name):
            raise ValueError(
                f"scenario name must match {_NAME_PATTERN.pattern!r}, "
                f"got {self.name!r}"
            )
        if self.controller not in CONTROLLER_CATALOGUE:
            known = ", ".join(sorted(CONTROLLER_CATALOGUE))
            raise ValueError(
                f"scenario {self.name!r}: unknown controller "
                f"{self.controller!r}; catalogue: {known}"
            )
        unknown = set(self.config_overrides) - _CONFIG_FIELDS
        if unknown:
            raise ValueError(
                f"scenario {self.name!r}: unknown ScenarioConfig field(s) "
                f"{sorted(unknown)}; valid fields: {sorted(_CONFIG_FIELDS)}"
            )
        # Freeze the mappings so a registered spec cannot drift.
        object.__setattr__(
            self, "controller_params", MappingProxyType(dict(self.controller_params))
        )
        object.__setattr__(
            self, "config_overrides", MappingProxyType(dict(self.config_overrides))
        )
        object.__setattr__(self, "tags", tuple(self.tags))

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def derive(self, name: str, description: str, **changes: Any) -> "ScenarioSpec":
        """A new spec composed over this one.

        ``controller_params`` and ``config_overrides`` passed here are
        *merged* over the parent's (key-wise); every other field given
        replaces the parent's value outright.
        """
        merged: dict[str, Any] = dict(changes)
        if "controller_params" in merged:
            merged["controller_params"] = {
                **self.controller_params,
                **dict(merged["controller_params"]),
            }
        if "config_overrides" in merged:
            merged["config_overrides"] = {
                **self.config_overrides,
                **dict(merged["config_overrides"]),
            }
        return replace(self, name=name, description=description, **merged)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_config(self, base: ScenarioConfig | None = None) -> ScenarioConfig:
        """The concrete :class:`ScenarioConfig` this scenario runs under."""
        base = base if base is not None else ScenarioConfig()
        if not self.config_overrides:
            return base
        return base.with_(**dict(self.config_overrides))

    def build_controller(self, cfg: ScenarioConfig, seed: int) -> "MissionController":
        """A fresh single-use controller for one trial."""
        return build_controller(
            self.controller, cfg.key_count, seed, self.controller_params
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-able encoding (``repro scenarios show --json``)."""
        return {
            "name": self.name,
            "description": self.description,
            "controller": self.controller,
            "controller_params": dict(self.controller_params),
            "config_overrides": dict(self.config_overrides),
            "detectors": self.detectors,
            "twin": self.twin,
            "audit_interval_s": self.audit_interval_s,
            "tags": list(self.tags),
        }
