"""CLI wiring for ``python -m repro lint``.

Kept separate from :mod:`repro.cli` so the top-level CLI only pays the
import cost of the lint engine when the subcommand actually runs.

Exit codes: 0 clean, 1 findings, 2 usage error.
Usage errors go to stderr; ``--statistics`` also prints to stderr so the
stdout report stays machine-parseable under ``--format json``/``sarif``.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["configure_parser", "run_lint"]


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint subcommand's arguments to ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="print per-rule finding counts and per-pack rule timings "
        "to stderr",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULES",
        help="run only these rules (comma-separated ids or prefixes, "
        "e.g. --select RL-C001,RL-C002 or --select RL-C; repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULES",
        help="skip these rules (comma-separated ids or prefixes; "
        "repeatable, applied after --select)",
    )
    parser.add_argument(
        "--cache-dir",
        nargs="?",
        const=".reprolint-cache",
        default=None,
        metavar="DIR",
        help="enable the content-addressed per-file result cache "
        "(default dir when the flag is given bare: .reprolint-cache)",
    )


def _expand_selectors(values: list[str], known_ids: set[str]) -> set[str]:
    """Expand ``--select``/``--ignore`` selectors into rule ids.

    Each selector is an exact rule id or a prefix (``RL-C`` selects the
    whole concurrency pack).  A selector matching no registered rule is
    a usage error (:class:`ValueError`): a typo must not silently lint
    nothing.
    """
    selected: set[str] = set()
    for chunk in values:
        for selector in chunk.split(","):
            selector = selector.strip()
            if not selector:
                continue
            matched = {rid for rid in known_ids if rid.startswith(selector)}
            if not matched:
                raise ValueError(
                    f"no rule matches selector {selector!r} "
                    "(see --list-rules)"
                )
            selected |= matched
    return selected


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint subcommand; returns the process exit code."""
    from repro.lint.cache import LintCache
    from repro.lint.engine import LintEngine
    from repro.lint.registry import (
        all_project_rules,
        all_rules,
        ruleset_signature,
    )
    from repro.lint.reporting import (
        render_json,
        render_sarif,
        render_statistics,
        render_text,
    )

    if args.list_rules:
        for rule in (*all_rules(), *all_project_rules()):
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    rule_classes = all_rules()
    project_classes = all_project_rules()
    known_ids = {cls.rule_id for cls in (*rule_classes, *project_classes)}
    try:
        selected = (
            _expand_selectors(args.select, known_ids)
            if args.select is not None
            else set(known_ids)
        )
        ignored = (
            _expand_selectors(args.ignore, known_ids)
            if args.ignore is not None
            else set()
        )
    except ValueError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    active_ids = selected - ignored
    engine = LintEngine(
        rules=[c for c in rule_classes if c.rule_id in active_ids],
        project_rules=[c for c in project_classes if c.rule_id in active_ids],
    )

    cache = None
    if args.cache_dir is not None:
        # The cache signature covers exactly the selection, so filtered
        # and full runs never reuse each other's entries.
        cache = LintCache(args.cache_dir, ruleset_signature(active_ids))

    try:
        findings = engine.lint_paths(args.paths, cache=cache)
    except FileNotFoundError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    renderer = {
        "json": render_json,
        "sarif": render_sarif,
        "text": render_text,
    }[args.output_format]
    try:
        print(renderer(findings))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; the exit code still stands.
        pass
    if args.statistics:
        print(
            render_statistics(findings, engine.rule_timings), file=sys.stderr
        )
    return 1 if findings else 0
