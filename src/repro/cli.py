"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the library's main entry points so a downstream user
can see the system work before writing any code:

* ``quickstart`` — one attack campaign with the full detector suite
  (``--twin`` adds the streaming digital-twin detector);
* ``scenarios`` — list/show/run the declarative scenario registry;
* ``testbed`` — the bench campaign and the headline-claim verdict;
* ``superposition`` — the Section II phase sweep as a table;
* ``params`` — the default simulation parameter table;
* ``campaign`` — the experiment-campaign runner (see ``docs/campaigns.md``);
* ``service`` — the distributed campaign service: HTTP control plane
  plus leasing worker fleets (see ``docs/campaigns.md``);
* ``lint`` — the reprolint static-analysis gate (see ``docs/reprolint.md``).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from repro.campaign.cli import configure_parser as configure_campaign_parser
from repro.lint.cli import configure_parser as configure_lint_parser
from repro.service.cli import configure_parser as configure_service_parser

__all__ = ["main"]


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro import ScenarioConfig
    from repro.analysis.metrics import attack_metrics
    from repro.sim.runner import run_attack

    cfg = ScenarioConfig(
        node_count=args.nodes, key_count=args.key_nodes, horizon_days=args.days
    )
    metrics = attack_metrics(run_attack(cfg, args.seed, twin=args.twin))
    print(
        f"exhausted {metrics.exhausted_key_count}/{metrics.key_count} key nodes "
        f"({metrics.exhausted_key_ratio:.0%}) over {args.days:.0f} days"
    )
    print(f"spoofed services: {metrics.spoof_services}; "
          f"genuine cover services: {metrics.genuine_services}")
    if metrics.detected:
        print(f"DETECTED at t = {metrics.detection_time_s / 3600:.1f} h")
    else:
        print("detected: no")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import all_specs, get_scenario

    if args.scenarios_command == "list":
        specs = all_specs()
        if args.json:
            print(json.dumps([s.to_dict() for s in specs], indent=2))
            return 0
        width = max(len(s.name) for s in specs)
        for spec in specs:
            tags = f"  [{', '.join(spec.tags)}]" if spec.tags else ""
            print(f"{spec.name:<{width}}  {spec.description}{tags}")
        return 0

    spec = get_scenario(args.name)
    if args.scenarios_command == "show":
        print(json.dumps(spec.to_dict(), indent=2))
        return 0

    # scenarios run
    from repro.scenarios import scenario_trial

    params: dict[str, object] = {"scenario": args.name, "seed": args.seed}
    if args.nodes is not None:
        params["node_count"] = args.nodes
    if args.key_nodes is not None:
        params["key_count"] = args.key_nodes
    if args.days is not None:
        params["horizon_days"] = args.days
    out = scenario_trial(params)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_testbed(args: argparse.Namespace) -> int:
    from repro.testbed import run_testbed

    summary = run_testbed(trial_count=args.trials)
    for trial in summary.trials:
        print(
            f"trial {trial.seed:>2}: {trial.exhausted_key_count}/"
            f"{trial.key_count} exhausted, "
            f"{'DETECTED' if trial.detected else 'undetected'}"
        )
    print(f"mean exhausted ratio: {summary.mean_exhausted_ratio:.0%}; "
          f"detections: {summary.detection_count}/{args.trials}")
    print("headline claim: "
          + ("HOLDS" if summary.headline_claim_holds else "FAILS"))
    return 0 if summary.headline_claim_holds else 1


def _cmd_superposition(args: argparse.Namespace) -> int:
    from repro.em.superposition import fit_two_wave_model, superposition_sweep

    offsets = [i * 2.0 * math.pi / (args.points - 1) for i in range(args.points)]
    sweep = superposition_sweep(offsets, wave_power_w=args.power_mw * 1e-3)
    print(f"{'phase/pi':>9} {'coherent_mW':>12} {'harvested_mW':>13}")
    for dphi, rf, dc in zip(offsets, sweep["rf_power"], sweep["harvested"]):
        print(f"{dphi / math.pi:>9.2f} {rf * 1e3:>12.3f} {dc * 1e3:>13.3f}")
    fit = fit_two_wave_model(sweep["phase_offsets"], sweep["rf_power"])
    print(f"fit: {fit.p_sum * 1e3:.3f} + {fit.p_cross * 1e3:.3f} cos(dphi) mW, "
          f"r^2 = {fit.r_squared:.4f}")
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.sim.scenario import ScenarioConfig

    print(
        format_table(
            ["parameter", "value"],
            list(ScenarioConfig().parameter_rows()),
            title="Default simulation parameters",
        )
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign.cli import run_campaign_command

    return run_campaign_command(args)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def _cmd_service(args: argparse.Namespace) -> int:
    from repro.service.cli import run_service_command

    return run_service_command(args)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Are You Really Charging Me?' (ICDCS 2022): "
            "the Charging Spoofing Attack on WRSNs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quick = sub.add_parser("quickstart", help="run one attack campaign")
    quick.add_argument("--nodes", type=int, default=100)
    quick.add_argument("--key-nodes", type=int, default=10)
    quick.add_argument("--days", type=float, default=42.0)
    quick.add_argument("--seed", type=int, default=1)
    quick.add_argument(
        "--twin",
        action="store_true",
        help="deploy the streaming digital-twin detector alongside the suite",
    )
    quick.set_defaults(func=_cmd_quickstart)

    scenarios = sub.add_parser(
        "scenarios", help="list/show/run the declarative scenario registry"
    )
    scen_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scen_list = scen_sub.add_parser("list", help="list registered scenarios")
    scen_list.add_argument("--json", action="store_true")
    scen_list.set_defaults(func=_cmd_scenarios)
    scen_show = scen_sub.add_parser("show", help="show one scenario as JSON")
    scen_show.add_argument("name")
    scen_show.set_defaults(func=_cmd_scenarios)
    scen_run = scen_sub.add_parser("run", help="run one scenario trial")
    scen_run.add_argument("name")
    scen_run.add_argument("--seed", type=int, default=1)
    scen_run.add_argument("--nodes", type=int, default=None)
    scen_run.add_argument("--key-nodes", type=int, default=None)
    scen_run.add_argument("--days", type=float, default=None)
    scen_run.set_defaults(func=_cmd_scenarios)

    bench = sub.add_parser("testbed", help="run the bench campaign")
    bench.add_argument("--trials", type=int, default=20)
    bench.set_defaults(func=_cmd_testbed)

    sweep = sub.add_parser("superposition", help="print the phase sweep")
    sweep.add_argument("--points", type=int, default=25)
    sweep.add_argument("--power-mw", type=float, default=10.0)
    sweep.set_defaults(func=_cmd_superposition)

    params = sub.add_parser("params", help="print the parameter table")
    params.set_defaults(func=_cmd_params)

    campaign = sub.add_parser(
        "campaign", help="run/inspect cached experiment campaigns"
    )
    configure_campaign_parser(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    lint = sub.add_parser(
        "lint", help="run the reprolint static-analysis rules"
    )
    configure_lint_parser(lint)
    lint.set_defaults(func=_cmd_lint)

    service = sub.add_parser(
        "service", help="distributed campaign service (server/workers)"
    )
    configure_service_parser(service)
    service.set_defaults(func=_cmd_service)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
