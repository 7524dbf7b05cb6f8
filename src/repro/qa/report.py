"""Rendering of scan results: human text and machine JSON."""

from __future__ import annotations

import json

from repro.qa.engine import ScanResult
from repro.qa.rules import all_rules


def render_human(result: ScanResult) -> str:
    """One finding per line plus a summary footer."""
    lines = [finding.render() for finding in result.findings]
    if result.findings:
        by_rule = ", ".join(
            f"{rule_id}×{count}" for rule_id, count in result.counts_by_rule().items()
        )
        lines.append(
            f"qa: {len(result.findings)} finding(s) in "
            f"{result.files_scanned} file(s) [{by_rule}]"
        )
    else:
        lines.append(f"qa: clean ({result.files_scanned} file(s) scanned)")
    return "\n".join(lines)


def render_json(result: ScanResult) -> str:
    """Stable-keyed JSON document for tooling."""
    payload = {
        "ok": result.ok,
        "files_scanned": result.files_scanned,
        "counts": result.counts_by_rule(),
        "findings": [finding.to_json() for finding in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def render_rules() -> str:
    """A table of every registered rule (``qa --list-rules``)."""
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.rule_id} [{rule.severity}] {rule.title}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)
