"""Reporter tests: SARIF 2.1.0 document shape, statistics, text tally."""

import json

from repro.lint import lint_source, render_sarif, render_statistics, render_text
from repro.lint.registry import all_project_rules, all_rules

_DIRTY = "def f(id):\n    return id\n"


def _findings():
    return lint_source(_DIRTY, "src/repro/analysis/mod.py")


class TestSarifRenderer:
    def test_document_envelope(self):
        payload = json.loads(render_sarif(_findings()))
        assert payload["version"] == "2.1.0"
        assert payload["$schema"].endswith("sarif-schema-2.1.0.json")
        assert len(payload["runs"]) == 1

    def test_driver_carries_the_full_rule_catalogue(self):
        payload = json.loads(render_sarif([]))
        driver = payload["runs"][0]["tool"]["driver"]
        assert driver["name"] == "reprolint"
        ids = [rule["id"] for rule in driver["rules"]]
        assert ids == sorted(ids)
        expected = {cls.rule_id for cls in (*all_rules(), *all_project_rules())}
        assert set(ids) == expected
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]

    def test_results_have_physical_locations(self):
        findings = _findings()
        payload = json.loads(render_sarif(findings))
        results = payload["runs"][0]["results"]
        assert len(results) == len(findings) > 0
        for result, finding in zip(results, findings):
            assert result["ruleId"] == finding.rule_id
            assert result["level"] == "error"
            assert result["message"]["text"] == finding.message
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"] == finding.path
            region = location["region"]
            assert region["startLine"] == finding.line
            # SARIF columns are 1-based; reprolint's are 0-based.
            assert region["startColumn"] == finding.col + 1

    def test_rule_index_points_into_the_catalogue(self):
        payload = json.loads(render_sarif(_findings()))
        run = payload["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_empty_findings_render_an_empty_results_array(self):
        payload = json.loads(render_sarif([]))
        assert payload["runs"][0]["results"] == []


class TestTextAndStatistics:
    def test_text_tally_counts_findings(self):
        findings = _findings()
        text = render_text(findings)
        assert f"reprolint: {len(findings)} findings" in text

    def test_statistics_order_and_total(self):
        stats = render_statistics(_findings())
        lines = stats.splitlines()
        assert lines[-1].startswith("total")
        counts = [int(line.split()[-1]) for line in lines[:-1]]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == int(lines[-1].split()[-1])

    def test_statistics_aggregate_timings_by_pack(self):
        timings = {
            "RL-P001": 0.010,
            "RL-P004": 0.020,
            "RL-C002": 0.001,
            "RL-H003": 0.002,
        }
        stats = render_statistics(_findings(), timings)
        section = stats.split("pack timings:")[1].splitlines()
        rows = [line.split() for line in section if line]
        assert [row[0] for row in rows] == ["RL-P", "RL-H", "RL-C"]
        assert rows[0][1] == "30.0"  # RL-P001 + RL-P004, in ms

    def test_statistics_omit_timing_section_without_timings(self):
        assert "pack timings" not in render_statistics(_findings())
        assert "pack timings" not in render_statistics(_findings(), {})
