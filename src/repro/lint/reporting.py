"""Finding reporters: compiler-style text, JSON, and SARIF 2.1.0.

The SARIF renderer targets the GitHub code-scanning ingestion subset of
SARIF 2.1.0: one run, a ``tool.driver`` with the full rule catalogue
(per-file and project rules), and one ``result`` per finding with a
``physicalLocation``.  Columns are converted from reprolint's 0-based
convention to SARIF's 1-based one.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import Mapping, Sequence

from repro.lint.findings import Finding

__all__ = [
    "render_json",
    "render_sarif",
    "render_statistics",
    "render_text",
]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: RULE message`` line per finding, plus a tally."""
    lines = [finding.format() for finding in findings]
    count = len(findings)
    noun = "finding" if count == 1 else "findings"
    lines.append(f"reprolint: {count} {noun}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """A stable JSON document for tooling (CI annotations, dashboards)."""
    payload = {
        "tool": "reprolint",
        "count": len(findings),
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "rule": finding.rule_id,
                "message": finding.message,
            }
            for finding in findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _rule_catalogue() -> list[dict]:
    from repro.lint.registry import all_project_rules, all_rules

    catalogue = [
        {
            "id": cls.rule_id,
            "name": cls.__name__,
            "shortDescription": {"text": cls.title},
        }
        for cls in (*all_rules(), *all_project_rules())
    ]
    return sorted(catalogue, key=lambda rule: rule["id"])


def render_sarif(findings: Sequence[Finding]) -> str:
    """A SARIF 2.1.0 log suitable for GitHub code scanning upload."""
    rules = _rule_catalogue()
    rule_index = {rule["id"]: index for index, rule in enumerate(rules)}
    results = []
    for finding in findings:
        result = {
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        if finding.rule_id in rule_index:
            result["ruleIndex"] = rule_index[finding.rule_id]
        results.append(result)
    payload = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "informationUri": "docs/reprolint.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


#: ``RL-N001`` -> pack ``RL-N``: the letter names the pack, the digits the
#: rule within it.
_PACK_PREFIX = re.compile(r"^([A-Z]+-[A-Z]+)\d")


def _pack_of(rule_id: str) -> str:
    match = _PACK_PREFIX.match(rule_id)
    return match.group(1) if match else rule_id


def render_statistics(
    findings: Sequence[Finding],
    rule_timings: Mapping[str, float] | None = None,
) -> str:
    """Per-rule finding counts plus per-pack rule execution time.

    Counts come first, most frequent rule first (ties by rule id).  When
    ``rule_timings`` (rule id -> seconds, as accumulated on
    :attr:`LintEngine.rule_timings`) is given, a second section
    aggregates the time by rule pack — the letter prefix shared by a
    family of rules, e.g. ``RL-N`` for the array-semantics pack — so the
    cost of enabling a whole pack is visible at a glance, slowest pack
    first.
    """
    counts = Counter(finding.rule_id for finding in findings)
    lines = [
        f"{rule_id:<10} {count:>5}"
        for rule_id, count in sorted(
            counts.items(), key=lambda item: (-item[1], item[0])
        )
    ]
    lines.append(f"{'total':<10} {len(findings):>5}")
    if rule_timings:
        pack_seconds: dict[str, float] = {}
        for rule_id, seconds in rule_timings.items():
            pack = _pack_of(rule_id)
            pack_seconds[pack] = pack_seconds.get(pack, 0.0) + seconds
        lines.append("")
        lines.append("pack timings:")
        for pack, seconds in sorted(
            pack_seconds.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(f"{pack:<10} {seconds * 1000.0:>8.1f} ms")
    return "\n".join(lines)
