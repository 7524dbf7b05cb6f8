"""Scan orchestration: file discovery, suppressions, unused-noqa audit.

Suppression syntax (line-scoped, reason encouraged)::

    frac = hits / total if total else 0.0  # repro: noqa[REP004] exact sentinel

Multiple ids separate with commas: ``# repro: noqa[REP001,REP004]``.
A suppression that silences nothing is itself reported (REP000) so stale
annotations cannot accumulate; ``fix_unused_suppressions`` rewrites them
away mechanically.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from collections.abc import Iterable, Sequence

from repro.qa.findings import Finding, Severity
from repro.qa.rules import Rule, all_rules, known_rule_ids

#: Pseudo-rules emitted by the engine itself (not in the registry).
UNUSED_SUPPRESSION_ID = "REP000"
PARSE_ERROR_ID = "REP999"

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]*)\]")

#: Directories never scanned even when nested under a requested path.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules", ".ruff_cache"})


@dataclass
class ScanResult:
    """Everything one scan produced, ready for rendering or fixing."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: path -> {line -> unused rule ids}; consumed by fix_unused_suppressions.
    unused_suppressions: dict[str, dict[int, set[str]]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the tree is clean (CI gate)."""
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        """Finding totals keyed by rule id, sorted by id."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated .py file list.

    Sorting keeps the scan (and therefore its output and exit code)
    independent of filesystem enumeration order.
    """
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    out.add(candidate)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def _parse_suppressions(source: str) -> dict[int, set[str]]:
    """line number -> rule ids suppressed on that line.

    Tokenize-based so the noqa marker only counts inside real comments —
    a docstring *describing* the syntax is not a suppression.
    """
    suppressions: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match is None:
                continue
            ids = {
                part.strip().upper()
                for part in match.group(1).split(",")
                if part.strip()
            }
            suppressions.setdefault(token.start[0], set()).update(ids)
    except tokenize.TokenError:  # pragma: no cover - ast.parse succeeded already
        pass
    return suppressions


def scan_source(
    source: str,
    path: PurePath,
    *,
    rules: Iterable[Rule] | None = None,
) -> tuple[list[Finding], dict[int, set[str]]]:
    """Scan one module's text; returns (findings, unused suppressions).

    Exposed separately from :func:`scan_paths` so tests can lint
    snippets under any pretend path (rule scoping is path-sensitive).
    A suppression that silenced nothing comes back as a REP000 finding
    and in the unused map.
    """
    display = str(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        finding = Finding(
            path=display,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id=PARSE_ERROR_ID,
            severity=Severity.ERROR,
            message=f"could not parse: {exc.msg}",
        )
        return [finding], {}

    suppressions = _parse_suppressions(source)
    used: set[tuple[int, str]] = set()
    findings: list[Finding] = []
    for rule in rules if rules is not None else all_rules():
        if not rule.applies_to(path):
            continue
        for line, col, message in rule.check(tree, source, path):
            if rule.rule_id in suppressions.get(line, ()):
                used.add((line, rule.rule_id))
                continue
            findings.append(
                Finding(
                    path=display,
                    line=line,
                    col=col,
                    rule_id=rule.rule_id,
                    severity=rule.severity,
                    message=message,
                )
            )
    unused: dict[int, set[str]] = {}
    known = known_rule_ids()
    for lineno, ids in suppressions.items():
        for rule_id in ids:
            if (lineno, rule_id) in used:
                continue
            unused.setdefault(lineno, set()).add(rule_id)
            qualifier = "" if rule_id in known else " (unknown rule)"
            findings.append(
                Finding(
                    path=display,
                    line=lineno,
                    col=0,
                    rule_id=UNUSED_SUPPRESSION_ID,
                    severity=Severity.WARNING,
                    message=(
                        f"suppression noqa[{rule_id}]{qualifier} matches no "
                        "finding on this line; remove it (or run --fix-suppressions)"
                    ),
                )
            )
    return findings, unused


def scan_paths(
    paths: Sequence[Path],
    *,
    rules: Iterable[Rule] | None = None,
) -> ScanResult:
    """Scan every Python file under ``paths``; findings sorted by location."""
    result = ScanResult()
    rule_set = tuple(rules) if rules is not None else all_rules()
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings, unused = scan_source(source, file_path, rules=rule_set)
        result.findings.extend(findings)
        result.files_scanned += 1
        if unused:
            result.unused_suppressions[str(file_path)] = unused
    result.findings.sort()
    return result


def _strip_suppression(line: str, drop: set[str]) -> str:
    """Remove ``drop`` ids from the line's noqa comment (whole comment if empty)."""
    match = _NOQA_RE.search(line)
    if match is None:
        return line
    kept = [
        part.strip()
        for part in match.group(1).split(",")
        if part.strip() and part.strip().upper() not in drop
    ]
    if kept:
        replacement = line[match.start() : match.end()]
        replacement = replacement[: replacement.index("[")] + "[" + ",".join(kept) + "]"
        return line[: match.start()] + replacement + line[match.end() :]
    # comment now empty: drop it and any reason text that followed it
    return line[: match.start()].rstrip()


def fix_unused_suppressions(result: ScanResult) -> int:
    """Rewrite files to remove the unused suppressions in ``result``.

    Returns the number of suppression ids removed.
    """
    removed = 0
    for path_str, by_line in result.unused_suppressions.items():
        path = Path(path_str)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for lineno, ids in by_line.items():
            raw = lines[lineno - 1]
            ending = raw[len(raw.rstrip("\r\n")) :]
            fixed = _strip_suppression(raw.rstrip("\r\n"), ids)
            lines[lineno - 1] = fixed + ending
            removed += len(ids)
        path.write_text("".join(lines), encoding="utf-8")
    return removed
