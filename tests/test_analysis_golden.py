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

The document embeds the campaign's ``health.json``, so the digests
also pin its ``rng_fingerprint``: they changed once, and only in that
field, when the tracker and arrival streams joined the fingerprint.
The same documents must come out of a pass read in 2 or 3 shards.
"""

from __future__ import annotations

import hashlib
import json
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
    "all": "76f052a25e18b3c827616ee7f7317b5d56c26784d4382e2121adc5e2a466c81a",
    "windows": "098d4d58f27933f98cdad101deb877831415af15d294516878b0ce1923d9cb91",
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


@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("figure", sorted(GOLDEN_ANALYZE_SHA))
def test_analyze_json_is_pinned_in_shards(
    campaign_root, figure, shards, monkeypatch, capsys, tmp_path
):
    from repro.core import shards as sharding

    monkeypatch.setattr(sharding, "shard_count", lambda reader: shards)
    monkeypatch.chdir(campaign_root)
    obs_dir = tmp_path / "obs"
    argv = ["analyze", "--trace", "trace", "--figure", figure, "--json"]
    assert main(argv + ["--obs-dir", str(obs_dir)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ANALYZE_SHA[figure]
    metrics = json.loads((obs_dir / "metrics.json").read_text())
    assert metrics["counters"]["analytics.shards"] == shards
