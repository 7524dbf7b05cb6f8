"""The ``qa`` subcommand: scan, report, gate.

Exit codes: 0 clean, 1 findings (CI gate), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.qa.engine import fix_unused_suppressions, scan_paths
from repro.qa.report import render_human, render_json, render_rules


def add_qa_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the qa options to a (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to scan (e.g. src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of text",
    )
    parser.add_argument(
        "--fix-suppressions",
        action="store_true",
        help="rewrite files to delete unused # repro: noqa[...] entries",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )


def run_qa(args: argparse.Namespace) -> int:
    """Execute a scan described by parsed qa arguments."""
    if args.list_rules:
        print(render_rules())
        return 0
    paths = list(args.paths)
    if not paths:
        print("error: qa needs at least one path to scan", file=sys.stderr)
        return 2
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    result = scan_paths(paths)
    if args.fix_suppressions and result.unused_suppressions:
        removed = fix_unused_suppressions(result)
        print(f"qa: removed {removed} unused suppression id(s); re-scanning")
        result = scan_paths(paths)
    print(render_json(result) if args.json else render_human(result))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.qa.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro qa",
        description="determinism & correctness static analysis",
    )
    add_qa_arguments(parser)
    return run_qa(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
