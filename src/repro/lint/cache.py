"""Content-addressed per-file lint result cache.

Each per-file pass result is stored as one small JSON document keyed on
``sha256(path NUL sha256(source) NUL ruleset_signature)``: identical
content at the same path under the same rule set is a guaranteed hit, and
any change to the source, the rule ids, or :data:`~repro.lint.registry.RULESET_VERSION`
misses cleanly.  The path participates in the key because rule scoping is
path-sensitive (``em/`` vs ``analysis/`` classify differently), so the
same bytes can legitimately produce different findings at different
locations.

The cross-module passes (:mod:`repro.lint.flow`, the concurrency pack's
call-graph rules) depend on every module at once, so their results are
cached as one *project-level* entry keyed on the digests of **all**
``(path, source)`` pairs plus the ruleset signature — editing any one
file (or adding/removing one) changes the key and re-runs the whole
cross-module analysis, which is exactly the invalidation the call graph
needs: a new ``Thread(target=...)`` in module A can change findings
reported against module B.

The cache mirrors the campaign store's crash-tolerance posture: a
corrupt or truncated entry is treated as a miss and rewritten, never an
error.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Sequence

from repro.lint.findings import Finding

__all__ = ["LintCache"]

_FORMAT_VERSION = 1


def source_digest(source: str) -> str:
    """SHA-256 hex digest of a module's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class LintCache:
    """Filesystem-backed cache of per-file lint results."""

    def __init__(self, root: str | Path, signature: str) -> None:
        self.root = Path(root)
        self.signature = signature
        self.hits = 0
        self.misses = 0

    def _entry_path(self, path: str, digest: str) -> Path:
        key = hashlib.sha256(
            f"{path}\0{digest}\0{self.signature}".encode("utf-8")
        ).hexdigest()
        return self.root / f"{key}.json"

    def get(self, path: str, source: str) -> list[Finding] | None:
        """Cached findings for ``(path, source)``; ``None`` on a miss."""
        entry = self._entry_path(path, source_digest(source))
        try:
            payload = json.loads(entry.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != _FORMAT_VERSION
        ):
            self.misses += 1
            return None
        try:
            findings = [
                Finding(
                    path=path,
                    line=int(line),
                    col=int(col),
                    rule_id=str(rule_id),
                    message=str(message),
                )
                for line, col, rule_id, message in payload["findings"]
            ]
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return findings

    def put(self, path: str, source: str, findings: Sequence[Finding]) -> None:
        """Store the per-file findings for ``(path, source)``."""
        entry = self._entry_path(path, source_digest(source))
        payload = {
            "version": _FORMAT_VERSION,
            "findings": [
                [f.line, f.col, f.rule_id, f.message] for f in findings
            ],
        }
        self._write(entry, payload)

    # ------------------------------------------------------------------
    # Project-level (cross-module) results
    # ------------------------------------------------------------------
    def _project_entry_path(self, items: Sequence[tuple[str, str]]) -> Path:
        """Cache entry for a whole-project pass over ``(path, source)``.

        The key hashes *every* module's path and content digest, so any
        cross-file edit — the inputs of the import graph and call graph —
        produces a different key and a clean miss.
        """
        hasher = hashlib.sha256(b"project\0")
        for path, source in sorted(items):
            hasher.update(path.encode("utf-8"))
            hasher.update(b"\0")
            hasher.update(source_digest(source).encode("utf-8"))
            hasher.update(b"\0")
        hasher.update(self.signature.encode("utf-8"))
        return self.root / f"{hasher.hexdigest()}.json"

    def get_project(
        self, items: Sequence[tuple[str, str]]
    ) -> list[Finding] | None:
        """Cached cross-module findings for the project; ``None`` on miss."""
        entry = self._project_entry_path(items)
        try:
            payload = json.loads(entry.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != _FORMAT_VERSION
        ):
            self.misses += 1
            return None
        try:
            findings = [
                Finding(
                    path=str(path),
                    line=int(line),
                    col=int(col),
                    rule_id=str(rule_id),
                    message=str(message),
                )
                for path, line, col, rule_id, message in payload["findings"]
            ]
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return findings

    def put_project(
        self, items: Sequence[tuple[str, str]], findings: Sequence[Finding]
    ) -> None:
        """Store the cross-module findings for the project snapshot."""
        payload = {
            "version": _FORMAT_VERSION,
            "findings": [
                [f.path, f.line, f.col, f.rule_id, f.message]
                for f in findings
            ],
        }
        self._write(self._project_entry_path(items), payload)

    def _write(self, entry: Path, payload: dict) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            # Atomic replace so a concurrent reader never sees a torn entry.
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=entry.stem, suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, entry)
        except OSError:
            # A read-only or full filesystem degrades to uncached linting.
            pass
