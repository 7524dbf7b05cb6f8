"""repro.qa — determinism & correctness static analysis + runtime sanitizer.

Static side: an AST lint engine (:mod:`repro.qa.engine`) with a rule
registry (:mod:`repro.qa.rules`), six project-specific REP rules
(:mod:`repro.qa.checks`), line-scoped ``# repro: noqa[RULE]``
suppressions with unused-suppression detection, and JSON/human output.

Runtime side (:mod:`repro.qa.sanitizer`): :func:`deterministic_guard`
turns unseeded entropy access into an immediate exception, and
:class:`DrawAudit` / :func:`assert_identical_draws` verify that two
identically-seeded runs consume identical RNG draw sequences.

CLI: ``python -m repro.cli qa [--json] [--fix-suppressions] [--list-rules]
PATHS``.
"""

from repro.qa.engine import (
    ScanResult,
    fix_unused_suppressions,
    scan_paths,
    scan_source,
)
from repro.qa.findings import Finding, Severity
from repro.qa.rules import Rule, all_rules, get_rule
from repro.qa.sanitizer import (
    DrawAudit,
    DrawSnapshot,
    NondeterminismError,
    assert_identical_draws,
    audited,
    deterministic_guard,
)

__all__ = [
    "ScanResult",
    "fix_unused_suppressions",
    "scan_paths",
    "scan_source",
    "Finding",
    "Severity",
    "Rule",
    "all_rules",
    "get_rule",
    "DrawAudit",
    "DrawSnapshot",
    "NondeterminismError",
    "assert_identical_draws",
    "audited",
    "deterministic_guard",
]
