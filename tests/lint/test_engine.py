"""Engine-level tests: suppression parsing, dispatch, scoping, registry."""

import ast

import pytest

from repro.lint import LintEngine, Rule, lint_source, register
from repro.lint.engine import (
    PARSE_ERROR_ID,
    ModuleContext,
    collect_suppressions,
    lint_paths,
)
from repro.lint.registry import all_rules


class TestSuppressionParsing:
    def test_single_rule_on_own_line(self):
        sup = collect_suppressions("x = 1  # reprolint: disable=RL-D001\n")
        assert sup == {1: {"RL-D001"}}

    def test_comma_separated_rules(self):
        sup = collect_suppressions("x = 1  # reprolint: disable=RL-D001,RL-H004\n")
        assert sup == {1: {"RL-D001", "RL-H004"}}

    def test_disable_next_targets_following_line(self):
        sup = collect_suppressions("# reprolint: disable-next=RL-P001\nx = 1\n")
        assert sup == {2: {"RL-P001"}}

    def test_disable_all_token(self):
        sup = collect_suppressions("x = 1  # reprolint: disable=all\n")
        assert sup == {1: {"all"}}

    def test_bracketed_ignore_alias(self):
        sup = collect_suppressions("x = 1  # reprolint: ignore[RL-D001]\n")
        assert sup == {1: {"RL-D001"}}

    def test_bracketed_ignore_with_multiple_rules(self):
        sup = collect_suppressions(
            "x = 1  # reprolint: ignore[RL-D001, RL-H004]\n"
        )
        assert sup == {1: {"RL-D001", "RL-H004"}}

    def test_bracketed_ignore_next_targets_following_line(self):
        sup = collect_suppressions("# reprolint: ignore-next[RL-P001]\nx = 1\n")
        assert sup == {2: {"RL-P001"}}

    def test_unbracketed_ignore_is_not_a_suppression(self):
        # Only the bracketed form is valid for the ``ignore`` spelling.
        sup = collect_suppressions("x = 1  # reprolint: ignore=RL-D001\n")
        assert sup == {}

    def test_hash_inside_string_is_not_a_suppression(self):
        sup = collect_suppressions('x = "# reprolint: disable=RL-D001"\n')
        assert sup == {}

    def test_trailing_prose_after_rule_id_is_ignored(self):
        sup = collect_suppressions(
            "x = 1  # reprolint: disable=RL-P001 (exact-zero sentinel)\n"
        )
        assert sup == {1: {"RL-P001"}}

    def test_disable_all_suppresses_any_finding(self):
        source = (
            "def f(id: int):  # reprolint: disable=all\n"
            "    return id\n"
        )
        findings = lint_source(source, "src/repro/analysis/_mod.py")
        assert findings == []


class TestEngineBasics:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n", "src/repro/sim/bad.py")
        assert len(findings) == 1
        assert findings[0].rule_id == PARSE_ERROR_ID
        assert "does not parse" in findings[0].message

    def test_engine_exposes_its_rule_classes(self):
        engine = LintEngine()
        ids = [rule.rule_id for rule in engine.rule_classes]
        assert ids == sorted(ids)
        assert "RL-D001" in ids

    def test_restricted_engine_runs_only_given_rules(self):
        from repro.lint.rules.hygiene import NoBuiltinShadowing

        engine = LintEngine(rules=[NoBuiltinShadowing])
        source = "def f(id):\n    return id\n"
        findings = engine.lint_source(source, "src/repro/x.py")
        assert {f.rule_id for f in findings} == {"RL-H004"}

    def test_lint_paths_walks_directories(self, tmp_path):
        clean = tmp_path / "pkg" / "good.py"
        clean.parent.mkdir()
        clean.write_text("__all__ = []\n")
        dirty = tmp_path / "pkg" / "bad.py"
        dirty.write_text("def f(id):\n    return id\n")
        findings = lint_paths([tmp_path])
        assert {f.rule_id for f in findings} >= {"RL-H004", "RL-H003"}
        assert all("good.py" not in f.path for f in findings)

    def test_lint_paths_missing_target_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["definitely/not/a/path.py"])

    def test_pycache_directories_are_skipped(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("def f(id):\n    return id\n")
        assert lint_paths([tmp_path]) == []


class TestOverlappingTargets:
    def test_overlapping_targets_lint_each_file_once(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        dirty = pkg / "bad.py"
        dirty.write_text("def f(id):\n    return id\n")
        once = lint_paths([pkg])
        twice = lint_paths([pkg, dirty, str(pkg)])
        assert [f.format() for f in twice] == [f.format() for f in once]

    def test_resolve_lint_files_dedupes_relative_and_absolute(self, tmp_path):
        from repro.lint.engine import resolve_lint_files

        target = tmp_path / "mod.py"
        target.write_text("__all__ = []\n")
        files = resolve_lint_files([target, str(target), tmp_path])
        assert len(files) == 1


class TestMultiLineSuppression:
    def test_suppression_on_any_physical_line_of_statement(self):
        # The offending call spans three lines; the disable comment sits on
        # the *last* one, far from the reported lineno.
        source = (
            "import random\n"
            "__all__ = ['draw']\n"
            "def draw() -> float:\n"
            "    return random.uniform(\n"
            "        0.0,\n"
            "        1.0,\n"
            "    )  # reprolint: disable=RL-D001\n"
        )
        assert lint_source(source, "src/repro/sim/mod.py") == []

    def test_suppression_on_first_line_still_works(self):
        source = (
            "import random\n"
            "__all__ = ['draw']\n"
            "def draw() -> float:\n"
            "    return random.uniform(  # reprolint: disable=RL-D001\n"
            "        0.0,\n"
            "        1.0,\n"
            "    )\n"
        )
        assert lint_source(source, "src/repro/sim/mod.py") == []

    def test_unrelated_rule_id_does_not_suppress(self):
        source = (
            "import random\n"
            "__all__ = ['draw']\n"
            "def draw() -> float:\n"
            "    return random.uniform(\n"
            "        0.0,\n"
            "        1.0,\n"
            "    )  # reprolint: disable=RL-H004\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert [f.rule_id for f in findings] == ["RL-D001"]


class TestModuleContext:
    def test_import_alias_resolution(self):
        ctx = ModuleContext("src/repro/x.py", "")
        ctx.record_imports(ast.parse("import numpy as np").body[0])
        call = ast.parse("np.random.rand(3)").body[0].value
        assert ctx.resolve_call_name(call.func) == "numpy.random.rand"

    def test_from_import_resolution(self):
        ctx = ModuleContext("src/repro/x.py", "")
        ctx.record_imports(
            ast.parse("from numpy.random import default_rng as mk").body[0]
        )
        call = ast.parse("mk()").body[0].value
        assert ctx.resolve_call_name(call.func) == "numpy.random.default_rng"

    def test_dynamic_targets_resolve_to_none(self):
        ctx = ModuleContext("src/repro/x.py", "")
        call = ast.parse("funcs[0]()").body[0].value
        assert ctx.resolve_call_name(call.func) is None

    def test_test_code_classification(self):
        assert ModuleContext("tests/em/test_waves.py", "").is_test_code
        assert ModuleContext("benchmarks/bench_sim.py", "").is_test_code
        assert ModuleContext("tests/conftest.py", "").is_test_code
        assert not ModuleContext("src/repro/em/waves.py", "").is_test_code


class TestRegistry:
    def test_all_rules_are_sorted_and_unique(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        assert len(ids) == 13

    def test_combined_registry_counts_project_rules(self):
        from repro.lint.registry import all_project_rules

        project_ids = [rule.rule_id for rule in all_project_rules()]
        assert project_ids == sorted(project_ids)
        assert len(project_ids) == 8
        per_file_ids = {rule.rule_id for rule in all_rules()}
        assert per_file_ids.isdisjoint(project_ids)

    def test_ruleset_signature_is_stable_and_short(self):
        from repro.lint.registry import ruleset_signature

        sig = ruleset_signature()
        assert sig == ruleset_signature()
        assert len(sig) == 16
        int(sig, 16)  # hex digest prefix

    def test_get_rule_finds_both_kinds(self):
        from repro.lint.registry import get_rule

        assert get_rule("RL-D001").rule_id == "RL-D001"
        assert get_rule("RL-H007").rule_id == "RL-H007"

    def test_register_rejects_malformed_rule_id(self):
        with pytest.raises(ValueError, match="convention"):

            @register
            class BadId(Rule):
                rule_id = "X-1"
                title = "nope"
                node_types = (ast.Call,)

    def test_register_rejects_duplicate_rule_id(self):
        all_rules()  # ensure the built-in packs are registered first
        with pytest.raises(ValueError, match="duplicate"):

            @register
            class Clone(Rule):
                rule_id = "RL-D001"
                title = "imposter"
                node_types = (ast.Call,)

    def test_register_requires_node_types(self):
        with pytest.raises(ValueError, match="node types"):

            @register
            class NoNodes(Rule):
                rule_id = "RL-Z999"
                title = "subscribes to nothing"
                node_types = ()
