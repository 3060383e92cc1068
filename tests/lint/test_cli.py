"""CLI tests for ``python -m repro lint``."""

import json

import pytest

from repro.cli import main


def _write_pkg(tmp_path, name, source):
    target = tmp_path / name
    target.write_text(source)
    return str(target)


class TestLintCommand:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        path = _write_pkg(tmp_path, "clean.py", "__all__ = []\n")
        assert main(["lint", path]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_findings_exit_one_with_report_lines(self, tmp_path, capsys):
        path = _write_pkg(
            tmp_path, "dirty.py", "def f(acc=[]):\n    return acc\n"
        )
        assert main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "RL-H001" in out
        assert "dirty.py" in out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        path = _write_pkg(
            tmp_path, "dirty.py", "def f(acc=[]):\n    return acc\n"
        )
        assert main(["lint", "--format", "json", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "reprolint"
        assert payload["count"] == len(payload["findings"]) > 0
        first = payload["findings"][0]
        assert {"path", "line", "col", "rule", "message"} <= set(first)

    def test_missing_path_exits_two_and_reports_on_stderr(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "nope.py")
        assert main(["lint", missing]) == 2
        captured = capsys.readouterr()
        assert "reprolint" in captured.err
        assert "nope.py" in captured.err
        assert captured.out == ""

    def test_list_rules_prints_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL-D001", "RL-P003", "RL-H004", "RL-H007"):
            assert rule_id in out

    def test_statistics_go_to_stderr(self, tmp_path, capsys):
        path = _write_pkg(
            tmp_path, "dirty.py", "def f(acc=[]):\n    return acc\n"
        )
        assert main(["lint", "--statistics", path]) == 1
        captured = capsys.readouterr()
        assert "RL-H001" in captured.err
        assert "total" in captured.err

    def test_statistics_report_per_pack_timings(self, tmp_path, capsys):
        path = _write_pkg(
            tmp_path, "dirty.py", "def f(acc=[]):\n    return acc\n"
        )
        assert main(["lint", "--statistics", path]) == 1
        err = capsys.readouterr().err
        assert "pack timings:" in err
        timing_section = err.split("pack timings:")[1]
        # Every registered pack ran and reports a time, the new
        # array-semantics pack included.
        for pack in ("RL-N", "RL-C", "RL-H"):
            assert pack in timing_section
        assert "ms" in timing_section

    def test_sarif_format_is_valid_json(self, tmp_path, capsys):
        path = _write_pkg(
            tmp_path, "dirty.py", "def f(acc=[]):\n    return acc\n"
        )
        assert main(["lint", "--format", "sarif", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["results"]

    @pytest.mark.parametrize(
        "flag", [["--jobs", "2"], ["--baseline", "b.json"], ["--update-baseline"]]
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, flag):
        path = _write_pkg(tmp_path, "clean.py", "__all__ = []\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", *flag, path])
        assert excinfo.value.code == 2


class TestRuleSelection:
    # Trips RL-H001 (mutable default) and RL-H003 (missing __all__).
    DIRTY = "def f(acc=[]):\n    return acc\n"

    def test_select_runs_only_the_named_rule(self, tmp_path, capsys):
        path = _write_pkg(tmp_path, "dirty.py", self.DIRTY)
        assert main(["lint", "--select", "RL-H001", path]) == 1
        out = capsys.readouterr().out
        assert "RL-H001" in out
        assert "RL-H003" not in out

    def test_select_prefix_expands_to_the_pack(self, tmp_path, capsys):
        path = _write_pkg(tmp_path, "dirty.py", self.DIRTY)
        assert main(["lint", "--select", "RL-H", path]) == 1
        out = capsys.readouterr().out
        assert "RL-H001" in out
        assert "RL-H003" in out

    def test_ignore_drops_the_named_rule(self, tmp_path, capsys):
        path = _write_pkg(tmp_path, "dirty.py", self.DIRTY)
        assert main(["lint", "--ignore", "RL-H003", path]) == 1
        out = capsys.readouterr().out
        assert "RL-H001" in out
        assert "RL-H003" not in out

    def test_ignore_applies_after_select(self, tmp_path, capsys):
        path = _write_pkg(tmp_path, "dirty.py", self.DIRTY)
        assert (
            main(["lint", "--select", "RL-H", "--ignore", "RL-H001", path])
            == 1
        )
        out = capsys.readouterr().out
        assert "RL-H001" not in out
        assert "RL-H003" in out

    def test_selecting_everything_away_is_clean(self, tmp_path, capsys):
        path = _write_pkg(tmp_path, "dirty.py", self.DIRTY)
        assert (
            main(["lint", "--select", "RL-H001", "--ignore", "RL-H001", path])
            == 0
        )
        assert "0 findings" in capsys.readouterr().out

    def test_comma_separated_and_repeated_selectors(self, tmp_path, capsys):
        path = _write_pkg(tmp_path, "dirty.py", self.DIRTY)
        code = main(
            ["lint", "--select", "RL-H001,RL-H003", "--select", "RL-D", path]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "RL-H001" in out
        assert "RL-H003" in out

    def test_unknown_selector_exits_two_on_stderr(self, tmp_path, capsys):
        path = _write_pkg(tmp_path, "clean.py", "__all__ = []\n")
        assert main(["lint", "--select", "RL-ZZZ", path]) == 2
        captured = capsys.readouterr()
        assert "RL-ZZZ" in captured.err
        assert "--list-rules" in captured.err
        assert captured.out == ""
