"""Rule base classes and the global rule registries.

Two kinds of rule exist:

* a per-file :class:`Rule` has a unique ``rule_id`` (``RL-<pack
  letter><3 digits>``), a one-line ``title``, the AST ``node_types`` it
  wants to inspect, and a :meth:`Rule.check` generator yielding
  ``(node, message)`` pairs; the engine walks each module's AST exactly
  once and dispatches nodes to subscribed rules, so adding a rule never
  adds a traversal;
* a :class:`ProjectRule` sees the whole :class:`~repro.lint.project.ProjectModel`
  at once and yields ``(path, node, message)`` triples, so it can reason
  across import and call boundaries (RNG taint, unit inference, API
  graph).

Decorating a class with :func:`register` / :func:`register_project` makes
the engine run it.  Rule ids are unique across *both* registries.
"""

from __future__ import annotations

import ast
import hashlib
import re
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import ModuleContext
    from repro.lint.project import ProjectModel

__all__ = [
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "get_rule",
    "register",
    "register_project",
    "ruleset_signature",
]

#: Bumped whenever rule semantics change, so content-addressed cache
#: entries written by an older rule set are never reused.
#: 3: concurrency pack (RL-C001..C005) + ``ignore[...]`` suppressions.
#: 4: array-semantics pack (RL-N001..N005).
RULESET_VERSION = "4"

_RULE_ID_PATTERN = re.compile(r"^RL-[A-Z]\d{3}$")

_REGISTRY: dict[str, Type["Rule"]] = {}

_PROJECT_REGISTRY: dict[str, Type["ProjectRule"]] = {}


class Rule:
    """Base class for reprolint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    One instance is created per linted module, so instances may keep
    per-module state across calls.
    """

    rule_id: ClassVar[str] = ""
    title: ClassVar[str] = ""
    #: AST node classes this rule wants to see.
    node_types: ClassVar[tuple[type, ...]] = ()

    def applies_to(self, ctx: "ModuleContext") -> bool:
        """Whether this rule runs at all for the module in ``ctx``."""
        return True

    def check(self, node: ast.AST, ctx: "ModuleContext") -> Iterator[tuple[ast.AST, str]]:
        """Yield ``(offending_node, message)`` for each violation at ``node``."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for subclass typing


class ProjectRule:
    """Base class for whole-project (cross-module) reprolint rules.

    One instance is created per lint run; :meth:`check_project` sees the
    complete :class:`~repro.lint.project.ProjectModel` and yields
    ``(path, anchor, message)`` triples.  The anchor may be an AST node
    (line/column taken from it), a bare line number, or ``None`` for the
    top of the file.
    """

    rule_id: ClassVar[str] = ""
    title: ClassVar[str] = ""

    def check_project(
        self, project: "ProjectModel"
    ) -> Iterator[tuple[str, "ast.AST | int | None", str]]:
        """Yield ``(path, node, message)`` for each violation in the project."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for subclass typing


def _validate_rule_id(cls: type) -> None:
    if not _RULE_ID_PATTERN.match(cls.rule_id):
        raise ValueError(
            f"rule id {cls.rule_id!r} does not match the RL-Xnnn convention"
        )
    if not cls.title:
        raise ValueError(f"rule {cls.rule_id} must set a title")
    existing = _REGISTRY.get(cls.rule_id) or _PROJECT_REGISTRY.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id}")


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a per-file rule to the global registry.

    Enforces the ``RL-Xnnn`` id convention and id uniqueness, so a
    copy-pasted rule pack cannot silently mask an existing rule.
    """
    _validate_rule_id(cls)
    if not cls.node_types:
        raise ValueError(f"rule {cls.rule_id} must subscribe to node types")
    _REGISTRY[cls.rule_id] = cls
    return cls


def register_project(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a project rule to the global registry."""
    _validate_rule_id(cls)
    _PROJECT_REGISTRY[cls.rule_id] = cls
    return cls


def _load_builtin_rules() -> None:
    # Importing the pack modules triggers their @register decorators.
    from repro.lint import flow, rules  # noqa: F401


def all_rules() -> tuple[Type[Rule], ...]:
    """All registered per-file rule classes, sorted by rule id."""
    _load_builtin_rules()
    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def all_project_rules() -> tuple[Type[ProjectRule], ...]:
    """All registered project (cross-module) rule classes, sorted by id."""
    _load_builtin_rules()
    return tuple(_PROJECT_REGISTRY[rule_id] for rule_id in sorted(_PROJECT_REGISTRY))


def get_rule(rule_id: str) -> Type[Rule] | Type[ProjectRule]:
    """Look up one rule class by id; raises ``KeyError`` if unknown."""
    _load_builtin_rules()
    if rule_id in _REGISTRY:
        return _REGISTRY[rule_id]
    return _PROJECT_REGISTRY[rule_id]


def ruleset_signature(rule_ids: "Iterable[str] | None" = None) -> str:
    """Stable digest of the rule ids in play + :data:`RULESET_VERSION`.

    Cache entries are keyed on this, so adding/removing a rule or bumping
    the version invalidates every cached per-file result at once.  With
    ``rule_ids`` (e.g. from ``--select``/``--ignore`` filtering) the
    digest covers exactly that selection, so a filtered run never reuses
    a full run's cached findings or vice versa.
    """
    if rule_ids is None:
        ids = [cls.rule_id for cls in all_rules()]
        ids += [cls.rule_id for cls in all_project_rules()]
    else:
        ids = list(rule_ids)
    blob = ",".join(sorted(ids)) + "|" + RULESET_VERSION
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
