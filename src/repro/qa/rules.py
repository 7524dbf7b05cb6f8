"""Rule base class and the process-wide rule registry.

A rule is a stateless object that inspects one parsed module at a time.
Rules register themselves via the :func:`register` decorator at import
time; the engine iterates :func:`all_rules` so adding a rule is a single
new class, with no engine changes.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from collections.abc import Iterable

from repro.qa.findings import Severity

#: (line, col, message) before the engine attaches rule/path/severity.
RawFinding = tuple[int, int, str]


class Rule:
    """Base class for AST lint rules.

    Subclasses set the class attributes and implement :meth:`check`;
    :meth:`applies_to` restricts a rule to part of the tree (e.g. REP002
    only polices simulation-facing packages).
    """

    rule_id: str = "REP000"
    title: str = ""
    severity: Severity = Severity.WARNING
    rationale: str = ""

    def applies_to(self, path: PurePath) -> bool:
        """Whether ``path`` is in scope for this rule (default: yes)."""
        return True

    def check(self, tree: ast.Module, source: str, path: PurePath) -> Iterable[RawFinding]:
        """Yield ``(line, col, message)`` for each violation in ``tree``."""
        raise NotImplementedError


#: rule_id -> singleton rule instance, in registration order.
_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate ``cls`` and add it to the registry."""
    rule = cls()
    if not rule.rule_id or rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate or empty rule id: {rule.rule_id!r}")
    _REGISTRY[rule.rule_id] = rule
    return cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, in registration (i.e. numeric) order."""
    import repro.qa.checks  # noqa: F401  (registers the built-in rules)

    return tuple(_REGISTRY.values())


def get_rule(rule_id: str) -> Rule | None:
    """Look up one rule by id (None when unknown)."""
    all_rules()
    return _REGISTRY.get(rule_id)


def known_rule_ids() -> frozenset[str]:
    """The ids of every registered rule."""
    return frozenset(r.rule_id for r in all_rules())


# -- shared helpers used by several rules ---------------------------------


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def has_path_segment(path: PurePath, segments: frozenset[str]) -> bool:
    """True when any path component (sans suffix) is in ``segments``."""
    return any(part in segments for part in path.parts) or path.stem in segments


def is_test_module(path: PurePath) -> bool:
    """pytest test modules and conftest files (exempt from some rules)."""
    return path.name.startswith("test_") or path.name == "conftest.py"
