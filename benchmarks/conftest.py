"""Shared fixtures for the figure-regeneration benchmarks.

The flagship trace reproduces the paper's evaluation setting at ~1/100
scale: 8 simulated days starting Sunday 2006-10-01 00:00, double-peak
diurnal load, slight weekend boost, and the mid-autumn-festival flash
crowd on day 5 (Friday Oct 6) at 9 p.m.  It is simulated once and
cached as a campaign directory under ``benchmarks/.cache/`` keyed by its
parameters; delete the directory to force a re-run.

Scale knobs (environment):
  REPRO_BENCH_DAYS  simulated days  (default 8; paper used 14)
  REPRO_BENCH_BASE  base concurrency (default 1000; paper saw ~100k)
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

from repro.core.experiments import run_campaign
from repro.network import build_default_database
from repro.simulator.protocol import SelectionPolicy
from repro.traces import SegmentedTraceReader

CACHE_DIR = Path(__file__).parent / ".cache"

BENCH_DAYS = float(os.environ.get("REPRO_BENCH_DAYS", "8"))
BENCH_BASE = float(os.environ.get("REPRO_BENCH_BASE", "1000"))
BENCH_SEED = 2006
#: partner-selection policy spec driving the flagship trace
#: (NAME[:key=val,...] from the overlay registry)
BENCH_POLICY = os.environ.get("REPRO_BENCH_POLICY", "uusee")

DAY = 86_400.0
HOUR = 3_600.0
#: centre of the flash-crowd hold phase (FlashCrowdEvent defaults)
FLASH_PEAK = 5 * DAY + 20.5 * HOUR + 1_800 + 3_600


def _cached_trace(name: str, **kwargs) -> SegmentedTraceReader:
    import dataclasses
    import hashlib

    CACHE_DIR.mkdir(exist_ok=True)
    # hash only values with stable reprs; anything else (e.g. a channel
    # catalogue) must be reflected in ``name`` by the caller
    stable = [
        (k, repr(v))
        for k, v in sorted(kwargs.items())
        if isinstance(v, (int, float, str, bool, type(None)))
        or dataclasses.is_dataclass(v)
        or hasattr(v, "value")  # enums
    ]
    key = hashlib.sha256(repr(stable).encode()).hexdigest()[:16]
    path = CACHE_DIR / f"{name}-{key}"
    if not path.exists():
        # staged under a temporary name, so an interrupted run never
        # leaves a partial campaign under the cache key
        tmp = path.with_name("tmp-" + path.name)
        shutil.rmtree(tmp, ignore_errors=True)
        run_campaign(tmp, **kwargs)
        tmp.rename(path)
    return SegmentedTraceReader(path)


@pytest.fixture(scope="session")
def flagship_trace() -> SegmentedTraceReader:
    """The paper's two selected weeks, scaled (see module docstring)."""
    return _cached_trace(
        "flagship",
        days=BENCH_DAYS,
        base_concurrency=BENCH_BASE,
        seed=BENCH_SEED,
        with_flash_crowd=True,
        policy=BENCH_POLICY,
    )


def _ablation_trace(policy: SelectionPolicy) -> SegmentedTraceReader:
    return _cached_trace(
        f"ablation-{policy.value}",
        days=1.5,
        base_concurrency=400,
        seed=77,
        with_flash_crowd=False,
        policy=policy,
    )


@pytest.fixture(scope="session")
def uusee_trace() -> SegmentedTraceReader:
    return _ablation_trace(SelectionPolicy.UUSEE)


@pytest.fixture(scope="session")
def random_trace() -> SegmentedTraceReader:
    return _ablation_trace(SelectionPolicy.RANDOM)


@pytest.fixture(scope="session")
def tree_trace() -> SegmentedTraceReader:
    return _ablation_trace(SelectionPolicy.TREE)


@pytest.fixture(scope="session")
def isp_db():
    return build_default_database()


def show(title: str, headers, rows) -> None:
    """Print a paper-vs-measured comparison table into the bench log."""
    from repro.core.report import format_table

    print()
    print(format_table(headers, rows, title=f"== {title} =="))


# --------------------------------------------------------- bench report
#
# Every benchmark run leaves a machine-readable BENCH_report.json at the
# repo root (uploaded as a CI artifact): call-phase wall time per test,
# plus pytest-benchmark timing stats where the `benchmark` fixture was
# used.  Local runs overwrite it; the file is gitignored.

REPORT_PATH = Path(
    os.environ.get("REPRO_BENCH_REPORT", Path(__file__).parent.parent / "BENCH_report.json")
)

_call_reports: dict[str, dict[str, object]] = {}


def pytest_runtest_logreport(report) -> None:
    if report.when != "call" or not report.nodeid.startswith("benchmarks/"):
        return
    _call_reports[report.nodeid] = {
        "nodeid": report.nodeid,
        "outcome": report.outcome,
        "wall_s": round(report.duration, 6),
    }


def _benchmark_stats(config) -> dict[str, dict[str, object]]:
    """Timing stats per test from pytest-benchmark, read defensively."""
    session = getattr(config, "_benchmarksession", None)
    out: dict[str, dict[str, object]] = {}
    for bench in getattr(session, "benchmarks", None) or ():
        stats = getattr(bench, "stats", None)
        mean = getattr(stats, "mean", None)
        if mean is None:
            continue
        out[getattr(bench, "fullname", getattr(bench, "name", "?"))] = {
            "mean_s": round(mean, 6),
            "stddev_s": round(getattr(stats, "stddev", 0.0), 6),
            "rounds": getattr(stats, "rounds", None),
            "ops_per_s": round(1.0 / mean, 3) if mean > 0 else None,
        }
    return out


def _policy_info(spec: str) -> dict[str, object]:
    """Name/params/canonical-spec triple for the bench report config."""
    from repro.overlay import canonical_spec, parse_policy_spec

    name, params = parse_policy_spec(spec)
    return {"name": name, "params": params, "spec": canonical_spec(name, params)}


def _git_sha() -> str | None:
    """HEAD commit of the benchmarked tree, or None outside a checkout."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def pytest_sessionfinish(session, exitstatus) -> None:
    if not _call_reports:
        return
    import json

    stats = _benchmark_stats(session.config)
    rows = []
    for nodeid, row in sorted(_call_reports.items()):
        bench = stats.get(nodeid)
        if bench is not None:
            row = {**row, **bench}
        rows.append(row)
    payload = {
        "config": {
            "days": BENCH_DAYS,
            "base": BENCH_BASE,
            "peers": BENCH_BASE,
            "seed": BENCH_SEED,
            "policy": _policy_info(BENCH_POLICY),
            "git_sha": _git_sha(),
        },
        "exitstatus": int(exitstatus),
        "benchmarks": rows,
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
