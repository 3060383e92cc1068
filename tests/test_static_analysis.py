"""Tier-1 gate: the source tree is reprolint-clean, and the rule
catalogue, fixture table, and documentation stay in sync with the
registry (per-file and project rules alike)."""

from pathlib import Path

from repro.lint import lint_paths
from repro.lint.registry import all_project_rules, all_rules

from tests.lint.fixtures import RULE_FIXTURES

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
RULE_DOC = REPO_ROOT / "docs" / "reprolint.md"


def _all_rule_ids():
    return {rule.rule_id for rule in (*all_rules(), *all_project_rules())}


def test_source_tree_has_zero_findings():
    findings = lint_paths([SRC_TREE])
    report = "\n".join(finding.format() for finding in findings)
    assert findings == [], f"reprolint findings in src/repro:\n{report}"


def test_every_registered_rule_has_a_fixture():
    covered = {fixture.rule_id for fixture in RULE_FIXTURES}
    assert _all_rule_ids() == covered


def test_every_registered_rule_is_documented():
    text = RULE_DOC.read_text(encoding="utf-8")
    missing = [
        rule_id for rule_id in sorted(_all_rule_ids()) if rule_id not in text
    ]
    assert not missing, f"rules missing from docs/reprolint.md: {missing}"


def test_readme_links_the_rule_catalogue():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/reprolint.md" in readme
