"""LintCache tests: content addressing, invalidation, crash tolerance."""

import json

from repro.lint import LintCache, LintEngine
from repro.lint.cache import source_digest
from repro.lint.findings import Finding
from repro.lint.registry import ruleset_signature

_DIRTY = "def f(acc=[]):\n    return acc\n"


def _cache(tmp_path):
    return LintCache(tmp_path / "cache", ruleset_signature())


class TestCacheBasics:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = _cache(tmp_path)
        finding = Finding(
            path="src/repro/x.py", line=3, col=4,
            rule_id="RL-H001", message="msg",
        )
        assert cache.get("src/repro/x.py", "source") is None
        cache.put("src/repro/x.py", "source", [finding])
        assert cache.get("src/repro/x.py", "source") == [finding]
        assert cache.hits == 1 and cache.misses == 1

    def test_source_change_invalidates(self, tmp_path):
        cache = _cache(tmp_path)
        cache.put("src/repro/x.py", "a = 1\n", [])
        assert cache.get("src/repro/x.py", "a = 2\n") is None

    def test_path_participates_in_the_key(self, tmp_path):
        # Rule scoping is path-sensitive, so identical bytes at another
        # location must not share an entry.
        cache = _cache(tmp_path)
        cache.put("src/repro/em/x.py", "a = 1\n", [])
        assert cache.get("src/repro/analysis/x.py", "a = 1\n") is None

    def test_signature_change_invalidates(self, tmp_path):
        old = LintCache(tmp_path / "cache", "sig-one")
        new = LintCache(tmp_path / "cache", "sig-two")
        old.put("src/repro/x.py", "a = 1\n", [])
        assert new.get("src/repro/x.py", "a = 1\n") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = _cache(tmp_path)
        cache.put("src/repro/x.py", "a = 1\n", [])
        for entry in (tmp_path / "cache").glob("*.json"):
            entry.write_text("{truncated")
        assert cache.get("src/repro/x.py", "a = 1\n") is None

    def test_source_digest_is_sha256_hex(self):
        digest = source_digest("a = 1\n")
        assert len(digest) == 64
        int(digest, 16)


class TestEngineCacheIntegration:
    def test_warm_run_reproduces_cold_findings(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(_DIRTY)
        engine = LintEngine()
        cache = _cache(tmp_path)
        cold = engine.lint_paths([target], cache=cache)
        warm = engine.lint_paths([target], cache=cache)
        assert [f.format() for f in warm] == [f.format() for f in cold]
        assert cache.hits >= 1

    def test_project_findings_survive_warm_runs(self, tmp_path):
        # The warm run serves the cross-module pass from the project
        # entry; a dead export must be reported on it too.
        a = tmp_path / "src" / "repro" / "pkg" / "a.py"
        a.parent.mkdir(parents=True)
        a.write_text(
            "__all__ = ['used', 'unused']\n\n\ndef used() -> int:\n"
            "    return 1\n\n\ndef unused() -> int:\n    return 2\n"
        )
        b = a.with_name("b.py")
        b.write_text(
            "from repro.pkg.a import used\n"
            "__all__: list[str] = []\n"
            "def f() -> int:\n    return used()\n"
        )
        engine = LintEngine()
        cache = _cache(tmp_path)
        cold = engine.lint_paths([a.parent], cache=cache)
        warm = engine.lint_paths([a.parent], cache=cache)
        assert [f.rule_id for f in cold] == ["RL-H006"]
        assert [f.format() for f in warm] == [f.format() for f in cold]

    def test_project_entry_round_trip(self, tmp_path):
        cache = _cache(tmp_path)
        items = [("src/repro/a.py", "a = 1\n"), ("src/repro/b.py", "b = 2\n")]
        finding = Finding(
            path="src/repro/a.py", line=1, col=0,
            rule_id="RL-X001", message="cross-module msg",
        )
        assert cache.get_project(items) is None
        cache.put_project(items, [finding])
        assert cache.get_project(items) == [finding]

    def test_project_key_ignores_item_order(self, tmp_path):
        cache = _cache(tmp_path)
        items = [("src/repro/a.py", "a = 1\n"), ("src/repro/b.py", "b = 2\n")]
        cache.put_project(items, [])
        assert cache.get_project(list(reversed(items))) == []

    def test_editing_any_file_invalidates_the_project_entry(self, tmp_path):
        # The project key hashes every module's content: a cross-file
        # edit (an input of the import/call graphs) must be a miss even
        # for findings anchored in an untouched file.
        cache = _cache(tmp_path)
        items = [("src/repro/a.py", "a = 1\n"), ("src/repro/b.py", "b = 2\n")]
        cache.put_project(items, [])
        edited = [("src/repro/a.py", "a = 1\n"), ("src/repro/b.py", "b = 3\n")]
        assert cache.get_project(edited) is None

    def test_adding_a_file_invalidates_the_project_entry(self, tmp_path):
        cache = _cache(tmp_path)
        items = [("src/repro/a.py", "a = 1\n")]
        cache.put_project(items, [])
        grown = items + [("src/repro/b.py", "b = 2\n")]
        assert cache.get_project(grown) is None

    def test_cross_file_edit_recomputes_project_findings(self, tmp_path):
        # End-to-end: removing the import from b.py turns a.py's export
        # dead; the warm engine run must surface the new RL-H006 even
        # though a.py itself is byte-identical.
        a = tmp_path / "src" / "repro" / "pkg" / "a.py"
        a.parent.mkdir(parents=True)
        a.write_text(
            "__all__ = ['helper']\n\n\ndef helper() -> int:\n    return 1\n"
        )
        b = a.with_name("b.py")
        b.write_text(
            "from repro.pkg.a import helper\n"
            "__all__: list[str] = []\n"
            "def f() -> int:\n    return helper()\n"
        )
        engine = LintEngine()
        cache = _cache(tmp_path)
        before = engine.lint_paths([a.parent], cache=cache)
        assert "RL-H006" not in {f.rule_id for f in before}
        b.write_text("__all__: list[str] = []\n")
        after = engine.lint_paths([a.parent], cache=cache)
        assert "RL-H006" in {f.rule_id for f in after}

    def test_cache_entries_are_json_documents(self, tmp_path):
        cache = _cache(tmp_path)
        cache.put("src/repro/x.py", "a = 1\n", [])
        entries = list((tmp_path / "cache").glob("*.json"))
        assert len(entries) == 1
        payload = json.loads(entries[0].read_text())
        assert payload["version"] == 1
        assert payload["findings"] == []
