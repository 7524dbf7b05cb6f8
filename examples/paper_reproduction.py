#!/usr/bin/env python3
"""Full paper reproduction: every figure from one two-week trace.

Simulates the paper's two selected weeks (Sunday 2006-10-01 through
Saturday 2006-10-14, flash crowd on Friday Oct 6 at 9 p.m.), collects
the Magellan trace, regenerates Figures 1-8 and writes both the tables
and per-figure CSV series.

This is the long-running flagship driver; scale it down with flags:

    python examples/paper_reproduction.py --days 4 --base 400
    python examples/paper_reproduction.py            # full 14 days, ~15 min
    python examples/paper_reproduction.py --out-dir results/

The pytest benchmarks run the same pipeline on an 8-day trace with
shape assertions; this script is for producing the full artifact set.
"""

import argparse
import shutil
import time
from pathlib import Path

from repro.cli import main as repro_cli
from repro.core.experiments import run_campaign


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    # Unset flags keep run_campaign's defaults: 14 days at base 1000,
    # flash crowd on day 5.
    parser.add_argument("--days", type=float, default=None, help="default: 14")
    parser.add_argument("--base", type=float, default=None, help="default: 1000")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--out-dir", type=Path, default=Path("paper_run"))
    args = parser.parse_args()

    scale = {"days": args.days, "base_concurrency": args.base}
    scale = {k: v for k, v in scale.items() if v is not None}

    trace_path = args.out_dir / "trace"
    # A rerun into the same --out-dir replaces the previous campaign.
    shutil.rmtree(trace_path, ignore_errors=True)
    shown = ", ".join(f"{k}={v:g}" for k, v in scale.items()) or "default scale"
    print(f"Simulating the two weeks ({shown}, seed {args.seed}) -> {trace_path}")
    t0 = time.time()
    run_campaign(trace_path, seed=args.seed, **scale)
    print(f"simulation finished in {time.time() - t0:.0f}s")

    # Every figure from one pass over the trace; a figure the trace is
    # too short for prints "skipped (...)" — run with more days.
    csv_dir = args.out_dir / "csv"
    repro_cli(["analyze", "--trace", str(trace_path), "--csv-dir", str(csv_dir)])
    print(f"\nAll figure series written under {csv_dir}/")


if __name__ == "__main__":
    main()
