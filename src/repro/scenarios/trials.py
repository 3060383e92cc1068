"""The scenario trial kernel and the campaign grids built on it.

:func:`scenario_trial` is a pure campaign trial (params dict in, JSON
metrics dict out) importable by worker processes and service runners as
``repro.scenarios.trials:scenario_trial``.  It resolves a registry
scenario by name, applies the grid point's overrides, runs one
simulation with the scenario's defences deployed, and reports outcome
metrics plus *per-detector-family first-alarm times* — the raw material
for detection-latency and TPR/FPR comparisons between the streaming
digital twin and the periodic audit suite.

Every built-in campaign is a :func:`scenario_grid_spec` over this one
kernel; :func:`scenario_matrix_spec` is the EXP-13 scenario × seed sweep.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.campaign.spec import CampaignSpec, parameter_grid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.scenario import ScenarioConfig

__all__ = ["scenario_grid_spec", "scenario_matrix_spec", "scenario_trial"]

#: Scenario names swept by the default matrix (every built-in scenario).
DEFAULT_MATRIX = (
    "benign",
    "benign-on-demand",
    "csa-baseline",
    "csa-intermittent",
    "csa-on-demand",
    "command-spoof",
    "command-spoof-on-demand",
)

#: Grid-point keys applied to the :class:`ScenarioSpec` itself; every
#: other key (besides ``scenario`` and ``seed``) is a config override.
_SPEC_FIELDS = ("controller", "controller_params", "detectors", "twin", "audit_interval_s")


def _resolve(params: Mapping[str, Any]) -> tuple["ScenarioSpec", "ScenarioConfig", int]:
    """The spec, config and seed one grid point runs under.

    Overrides go through :func:`dataclasses.replace`, so the spec's own
    validation (controller catalogue, config field names) applies.
    """
    # Imported lazily so the kernel is cheap to reference by dotted name.
    from repro.campaign.experiments import BENCH_CONFIG
    from repro.scenarios.registry import get_scenario

    params = dict(params)
    spec = get_scenario(params.pop("scenario"))
    seed = int(params.pop("seed"))
    changes = {key: params.pop(key) for key in _SPEC_FIELDS if key in params}
    spec = replace(
        spec, config_overrides={**spec.config_overrides, **params}, **changes
    )
    return spec, spec.resolve_config(BENCH_CONFIG), seed


def scenario_trial(params: Mapping[str, Any]) -> dict[str, Any]:
    """One scenario run → outcome and detection-latency metrics.

    ``params`` must carry ``scenario`` (a registry name) and ``seed``.
    Keys naming a :class:`ScenarioSpec` field (``controller``,
    ``controller_params``, ``detectors``, ``twin``, ``audit_interval_s``)
    replace that field of the scenario; every other key is applied as a
    :class:`ScenarioConfig` override on top of the scenario's own (so
    campaigns can swap the attacker, or shrink ``node_count`` /
    ``horizon_days`` for smoke scales, without forking the registry).
    """
    from repro.mc.charger import ChargeMode
    from repro.sim.runner import run_attack

    spec, cfg, seed = _resolve(params)
    result = run_attack(
        cfg,
        seed,
        controller=spec.build_controller(cfg, seed),
        detectors=spec.detectors,
        audit_interval_s=spec.audit_interval_s,
        twin=spec.twin,
    )

    twin_first: float | None = None
    periodic_first: float | None = None
    for det in result.detections:
        if det.detector == "twin":
            if twin_first is None:
                twin_first = det.time
        elif periodic_first is None:
            periodic_first = det.time
    return {
        "scenario": spec.name,
        "seed": seed,
        "controller": result.controller_name,
        "horizon_s": cfg.horizon_s,
        "ended_at": result.ended_at,
        "exhausted_key_ratio": result.exhausted_key_ratio(),
        "exhausted_key_count": len(result.exhausted_key_ids()),
        "deaths": len(result.trace.deaths()),
        "spoof_services": sum(
            1 for s in result.trace.services() if s.mode == ChargeMode.SPOOF
        ),
        "detected": result.detected,
        "twin_latency_s": twin_first,
        "periodic_latency_s": periodic_first,
        "detections": len(result.detections),
    }


def scenario_grid_spec(
    name: str,
    description: str,
    axes: Mapping[str, Sequence[Any]],
    pinned: Mapping[str, Any] | None = None,
) -> CampaignSpec:
    """A :func:`scenario_trial` campaign over the cross product of ``axes``.

    The last axis varies fastest; ``pinned`` params are added to every
    point.  Every point is resolved here, so a typo'd scenario,
    controller or field fails at spec-build time, not inside a worker.
    """
    grid = [{**point, **(pinned or {})} for point in parameter_grid(**axes)]
    for point in grid:
        spec, cfg, seed = _resolve(point)
        spec.build_controller(cfg, seed)
    return CampaignSpec(
        name=name,
        trial="repro.scenarios.trials:scenario_trial",
        grid=tuple(grid),
        description=description,
    )


def scenario_matrix_spec(
    scenarios: Sequence[str] | None = None,
    seeds: Sequence[int] = (1, 2, 3),
    **config_overrides: Any,
) -> CampaignSpec:
    """The scenario × seed sweep as a :class:`CampaignSpec`.

    Extra keyword arguments become per-trial ``ScenarioConfig``
    overrides (e.g. ``node_count=40, horizon_days=10`` for a smoke
    scale).
    """
    names = tuple(scenarios) if scenarios is not None else DEFAULT_MATRIX
    return scenario_grid_spec(
        "exp13-scenarios",
        "EXP-13: streaming digital-twin vs periodic audits across the "
        "declarative scenario matrix (detection latency + TPR/FPR).",
        {"scenario": names, "seed": seeds},
        pinned=config_overrides,
    )
