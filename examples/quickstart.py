#!/usr/bin/env python3
"""Quickstart: simulate a small UUSee deployment, collect a Magellan
trace, and compute the paper's headline topology metrics.

Run:  python examples/quickstart.py [TRACE_DIR]
Takes about half a minute.  The trace is kept under TRACE_DIR when one
is named; otherwise it lives in a temporary directory removed on exit.
"""

import sys
import tempfile
from pathlib import Path

from repro.core.experiments import (
    chart,
    fig1_plan,
    fig2_plan,
    fig3_plan,
    fig6_plan,
    fig7_plan,
    fig8_plan,
    run_campaign,
)
from repro.core.report import format_table
from repro.traces import SegmentedTraceReader


def main(trace_dir: Path | None = None) -> None:
    if trace_dir is None:
        with tempfile.TemporaryDirectory() as tmp:
            quickstart(Path(tmp))
    else:
        quickstart(trace_dir)
        print(f"\nTrace directory: {trace_dir / 'quickstart'}")


def quickstart(trace_dir: Path) -> None:
    trace_path = trace_dir / "quickstart"
    print("Simulating 1.5 days of a ~400-peer UUSee deployment ...")
    run_campaign(
        trace_path,
        days=1.5,
        base_concurrency=400,
        seed=42,
        with_flash_crowd=False,
    )
    figs = chart(
        SegmentedTraceReader(trace_path),
        {
            "fig1": fig1_plan(),
            "fig2": fig2_plan(),
            "fig3": fig3_plan(),
            "fig6": fig6_plan(),
            "fig7": fig7_plan(),
            "fig8": fig8_plan(),
        },
    )
    fig1, fig3, fig6, fig7 = figs["fig1"], figs["fig3"], figs["fig6"], figs["fig7"]

    frac_in, frac_out = fig6.mean_fractions()
    rho = figs["fig8"].means()
    rows = [
        ["stable / total peers", fig1.stable_ratio(), "~1/3 (Fig. 1A)"],
        ["daily peak hour", fig1.peak_hour_of_day(), "21:00 (Fig. 1A)"],
        ["CCTV1 satisfied fraction", fig3.mean_quality("CCTV1"), "~0.75 (Fig. 3)"],
        ["intra-ISP indegree fraction", frac_in, "~0.4 (Fig. 6)"],
        ["   (ISP-blind baseline)", fig6.random_baseline, "sum of share^2"],
        ["clustering vs random", fig7.mean_clustering_ratio(), ">10x (Fig. 7A)"],
        ["path length vs random", fig7.mean_path_ratio(), "~1x (Fig. 7A)"],
        ["edge reciprocity rho", rho.all_links, ">0 (Fig. 8A)"],
        ["   intra-ISP rho", rho.intra_isp, "> global (Fig. 8B)"],
        ["   inter-ISP rho", rho.inter_isp, "< global (Fig. 8B)"],
    ]
    print()
    print(format_table(["metric", "measured", "paper"], rows, title="Magellan quickstart"))
    print("\nISP shares (Fig. 2): ")
    shares = figs["fig2"]
    for name in sorted(shares, key=shares.get, reverse=True):
        print(f"  {name:16s} {shares[name]:.3f}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else None)
