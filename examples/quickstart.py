#!/usr/bin/env python3
"""Quickstart: simulate a small UUSee deployment, collect a Magellan
trace, and compute the paper's headline topology metrics.

Run:  python examples/quickstart.py
Takes about half a minute.
"""

import tempfile
from pathlib import Path

from repro.core.experiments import (
    fig1_scale,
    fig2_isp_shares,
    fig3_streaming_quality,
    fig6_intra_isp_degrees,
    fig7_small_world,
    fig8_reciprocity,
    run_campaign,
)
from repro.core.report import format_table
from repro.traces import SegmentedTraceReader


def main() -> None:
    trace_path = Path(tempfile.mkdtemp()) / "quickstart"
    print("Simulating 1.5 days of a ~400-peer UUSee deployment ...")
    run_campaign(
        trace_path,
        days=1.5,
        base_concurrency=400,
        seed=42,
        with_flash_crowd=False,
    )
    trace = SegmentedTraceReader(trace_path)

    fig1 = fig1_scale(trace)
    fig3 = fig3_streaming_quality(trace)
    fig6 = fig6_intra_isp_degrees(trace)
    fig7 = fig7_small_world(trace)
    fig8 = fig8_reciprocity(trace)

    frac_in, frac_out = fig6.mean_fractions()
    rho = fig8.means()
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
    print(f"\nISP shares (Fig. 2): ")
    shares = fig2_isp_shares(trace)
    for name in sorted(shares, key=shares.get, reverse=True):
        print(f"  {name:16s} {shares[name]:.3f}")
    print(f"\nTrace file: {trace_path}")


if __name__ == "__main__":
    main()
