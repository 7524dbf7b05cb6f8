"""Byte pin for ``repro analyze --json``: the analysis-side golden.

``GOLDEN_TRACE_SHA`` pins the bytes a campaign writes; these digests pin
what the analysis makes of a campaign's trace.  A small seeded campaign
is charted by ``repro analyze --json`` for ``--figure all`` and
``--figure windows``, each in a fresh interpreter under two different
``PYTHONHASHSEED`` values, and the sha256 of the printed document must
match the digest captured before the trace parser and the analytics'
partner loops were last optimised.  The trace is named by a fixed
relative path, because the document records it.  If a digest ever
changes, an edit changed what a figure reports, not just its speed.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: A 0.5-day campaign: 72 report windows, so the windows figure runs
#: past one incremental resync (every 64 windows).
RUN_FLAGS = ["--days", "0.5", "--base", "120", "--seed", "5", "--no-flash-crowd"]

GOLDEN_ANALYZE_SHA = {
    "all": "b43c86d5cd380b7f4f40edc3414cf80c3575caaf1c5bc0919b3e418f934130de",
    "windows": "7791f9426919a1647aa85f87580e18976396d6c73981a3f34005fd68f9c60070",
}


@pytest.fixture(scope="module")
def campaign_root(tmp_path_factory):
    """A directory holding the seeded campaign as ``./trace``."""
    root = tmp_path_factory.mktemp("analysis-golden")
    assert main(["run", "--trace-dir", str(root / "trace"), *RUN_FLAGS]) == 0
    return root


def analyze_digest(root: Path, figure: str, hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hashseed
    done = subprocess.run(
        [
            sys.executable, "-m", "repro", "analyze",
            "--trace", "trace", "--figure", figure, "--json",
        ],
        cwd=root,
        env=env,
        capture_output=True,
        check=True,
    )
    return hashlib.sha256(done.stdout).hexdigest()


@pytest.mark.parametrize("hashseed", ["0", "271828"])
@pytest.mark.parametrize("figure", sorted(GOLDEN_ANALYZE_SHA))
def test_analyze_json_is_pinned(campaign_root, figure, hashseed):
    assert analyze_digest(campaign_root, figure, hashseed) == GOLDEN_ANALYZE_SHA[figure]
