#!/usr/bin/env python3
"""Backbone structure and churn dynamics (extension analyses).

The paper calls the reporting peers a 'stable backbone' and promises
protocol-improvement work built on these traces.  This study runs the
extension analytics this library adds on top of the paper's metric set:

- mesh structure: strongly connected core, k-core depth, dyad census,
  degree assortativity, ISP mixing;
- churn dynamics: reporting spans, stable-population turnover,
  partner-list persistence between consecutive reports;
- traffic locality: the ISP-to-ISP segment matrix and how much traffic
  still flows from the UUSee servers.

Run:  python examples/backbone_dynamics_study.py   (about a minute)
"""

import tempfile
from pathlib import Path

from repro.core import build_snapshot
from repro.core.dynamics import (
    partner_stability,
    population_turnover,
    session_statistics,
)
from repro.core.experiments import run_campaign
from repro.core.locality import isp_traffic_matrix
from repro.core.report import format_table
from repro.core.structure import mesh_structure
from repro.network import build_default_database
from repro.traces import SegmentedTraceReader
from repro.traces.store import iter_windows


def main() -> None:
    trace_path = Path(tempfile.mkdtemp()) / "backbone"
    print("Simulating 1 day of a ~450-peer UUSee deployment ...")
    run_campaign(
        trace_path, days=1.0, base_concurrency=450, seed=31, with_flash_crowd=False
    )
    trace = SegmentedTraceReader(trace_path)
    db = build_default_database()

    # one evening snapshot for the structural metrics
    target = 21 * 3600.0
    snapshot = None
    for start, reports in iter_windows(trace, 600.0):
        if start <= target < start + 600.0:
            snapshot = build_snapshot(reports, time=start, window_seconds=600.0)
            break
    assert snapshot is not None

    m = mesh_structure(snapshot, db)
    print()
    print(
        format_table(
            ["metric", "value", "reading"],
            [
                ["stable peers / active links", f"{m.num_nodes} / {m.num_edges}", ""],
                ["largest SCC fraction", m.largest_scc_fraction,
                 "bounded by the largest channel's share"],
                ["k-core depth (degeneracy)", m.degeneracy, "deep = stable backbone"],
                ["peers in deepest core", m.deep_core_fraction, ""],
                ["degree assortativity", m.degree_assortativity, ""],
                ["ISP mixing coefficient", m.isp_mixing, "> 0: ISP clustering"],
                ["mutual dyads", m.dyads.mutual, "bilateral exchange"],
                ["asymmetric dyads", m.dyads.asymmetric, ""],
            ],
            title="Mesh structure (9 p.m. snapshot)",
        )
    )

    traffic = isp_traffic_matrix(snapshot, db)
    print()
    rows = [[a, b, v] for a, b, v in traffic.top_flows(6)]
    rows.append(["(intra-ISP fraction)", "", traffic.intra_fraction()])
    rows.append(["(from servers)", "", traffic.server_fraction()])
    print(
        format_table(
            ["from ISP", "to ISP", "segments"],
            rows,
            title="Traffic locality (segments received in the window)",
        )
    )

    sessions = session_statistics(trace)
    turnover = population_turnover(trace)
    stability = partner_stability(trace)
    steady = turnover[len(turnover) // 4 :]
    mean_turnover = sum(p.turnover_rate for p in steady) / len(steady)
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["stable peers seen", sessions.num_peers],
                ["mean reporting span (min)", sessions.mean_span_s / 60.0],
                ["mean session estimate (min)", sessions.mean_session_estimate_s / 60.0],
                ["mean reports per peer", sessions.mean_reports_per_peer],
                ["stable-population turnover / 10 min", mean_turnover],
                ["partner-list jaccard between reports", stability.mean_jaccard],
                ["partners kept between reports", stability.mean_kept_fraction],
            ],
            title="Churn dynamics over the whole trace",
        )
    )


if __name__ == "__main__":
    main()
