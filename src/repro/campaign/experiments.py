"""Built-in campaign definitions for the paper's benchmark experiments.

Every built-in campaign is a grid over the one scenario kernel,
``repro.scenarios.trials:scenario_trial``: each grid point names a
registry scenario and a seed, plus whichever controller, defence or
config fields the experiment sweeps.  The benchmark scripts under
``benchmarks/`` resolve these specs by name, read their axes back from
the grid, and rebuild their printed tables from the campaigns' results;
the ``python -m repro campaign`` CLI runs them standalone.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.scenario import ScenarioConfig

__all__ = ["BENCH_CONFIG", "BUILTIN_CAMPAIGNS", "resolve_spec"]

BENCH_CONFIG = ScenarioConfig(node_count=100, key_count=10, horizon_days=42)
"""The benchmark suite's default scenario (overridden per experiment)."""


def _csa_grid(name: str, description: str, **axes: Any) -> Any:
    """A grid over ``csa-baseline`` with periodic detectors, no twin."""
    # Imported lazily: the scenario registry sits above the campaign layer.
    from repro.scenarios.trials import scenario_grid_spec

    return scenario_grid_spec(
        name, description, axes, pinned={"scenario": "csa-baseline", "twin": False}
    )


def _exp03_spec() -> Any:
    """EXP-03 — exhausted key-node ratio vs network size (60 trials)."""
    return _csa_grid(
        "exp03",
        "exhausted key-node ratio vs network size (headline figure)",
        node_count=(50, 100, 150, 200, 250),
        controller=("csa", "greedy-weight", "nearest-first", "random"),
        seed=(1, 2, 3),
    )


def _exp04_spec() -> Any:
    """EXP-04 — exhaustion vs number of key nodes targeted (30 trials)."""
    return _csa_grid(
        "exp04",
        "exhaustion vs number of key nodes targeted (N=150)",
        node_count=(150,),
        key_count=(5, 10, 15, 20, 25),
        controller=("csa", "greedy-weight"),
        seed=(1, 2, 3),
    )


def _exp07_spec() -> Any:
    """EXP-07 — detection rate vs defender audit intensity (48 trials)."""
    return _csa_grid(
        "exp07",
        "detection rate vs voltage-audit intensity",
        audit_interval_s=tuple(h * 3600.0 for h in (12.0, 24.0, 48.0, 96.0)),
        controller=("csa", "csa-no-windows", "blatant"),
        seed=(1, 2, 3, 4),
    )


def _ext04_spec() -> Any:
    """EXT-04 — one compromised charger inside an honest fleet (12 trials)."""
    return _csa_grid(
        "ext04",
        "CSA vs honest fleet redundancy",
        honest_chargers=(0, 1, 2, 3),
        seed=(1, 2, 3),
    )


def _exp13_spec() -> Any:
    """EXP-13 — twin vs periodic audits across the scenario matrix."""
    from repro.scenarios.trials import scenario_matrix_spec

    return scenario_matrix_spec()


#: Spec builders the CLI can run by name.
BUILTIN_CAMPAIGNS: dict[str, Callable[[], Any]] = {
    "exp03": _exp03_spec,
    "exp04": _exp04_spec,
    "exp07": _exp07_spec,
    "exp13": _exp13_spec,
    "ext04": _ext04_spec,
}


def resolve_spec(name_or_ref: str) -> Any:
    """A CampaignSpec from a built-in name or ``module:callable`` reference.

    A reference's callable is invoked with no arguments if it is not
    already a :class:`~repro.campaign.spec.CampaignSpec`.
    """
    from importlib import import_module

    from repro.campaign.spec import CampaignSpec

    if name_or_ref in BUILTIN_CAMPAIGNS:
        return BUILTIN_CAMPAIGNS[name_or_ref]()
    module_name, sep, attr = name_or_ref.partition(":")
    if not sep or not module_name or not attr:
        known = ", ".join(sorted(BUILTIN_CAMPAIGNS))
        raise ValueError(
            f"unknown campaign {name_or_ref!r}; built-ins: {known} "
            "(or pass a 'module:callable' spec reference)"
        )
    try:
        target = getattr(import_module(module_name), attr)
    except AttributeError as exc:
        raise ValueError(
            f"module {module_name!r} has no attribute {attr!r}"
        ) from exc
    spec = target() if not isinstance(target, CampaignSpec) else target
    if not isinstance(spec, CampaignSpec):
        raise ValueError(
            f"{name_or_ref!r} did not produce a CampaignSpec "
            f"(got {type(spec).__name__})"
        )
    return spec
