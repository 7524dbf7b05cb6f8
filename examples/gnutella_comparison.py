#!/usr/bin/env python3
"""Streaming vs file-sharing topologies (paper Secs. 2, 4.2.1, 4.3).

Magellan repeatedly contrasts UUSee's topology with the Gnutella
generations studied before it: legacy Gnutella's power-law degrees,
and modern two-tier Gnutella's spiked ultrapeer degree distribution
(Stutzbach et al.).  This study generates all three topologies and
puts the paper's comparisons side by side.

Run:  python examples/gnutella_comparison.py   (about a minute)
"""

import tempfile
from pathlib import Path

from repro.baselines import (
    GnutellaConfig,
    legacy_gnutella_snapshot,
    modern_gnutella_snapshot,
)
from repro.baselines.gnutella import ultrapeer_ids
from repro.core.experiments import chart, fig4_plan, run_campaign
from repro.core.report import format_table
from repro.graph import DegreeDistribution, powerlaw_fit, small_world_metrics
from repro.traces import SegmentedTraceReader

DAY = 86_400.0


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        gnutella_comparison(Path(tmp))


def gnutella_comparison(tmp: Path) -> None:
    print("Simulating 1 day of UUSee ...")
    trace_path = tmp / "uusee"
    run_campaign(
        trace_path, days=1.0, base_concurrency=400, seed=77, with_flash_crowd=False
    )
    plan = fig4_plan(snapshot_times={"evening": int(0.9 * DAY)})
    uusee = chart(SegmentedTraceReader(trace_path), {"fig4": plan})["fig4"]
    uusee_in = uusee.kind_at("evening", "in")

    print("Generating Gnutella snapshots ...")
    cfg = GnutellaConfig(num_peers=3_000, seed=5)
    legacy = legacy_gnutella_snapshot(cfg)
    legacy_dist = DegreeDistribution.from_degrees(
        legacy.degree(n) for n in legacy.nodes()
    )
    modern = modern_gnutella_snapshot(cfg)
    ultra = set(ultrapeer_ids(cfg))
    top_mesh = modern.subgraph(ultra)
    modern_dist = DegreeDistribution.from_degrees(
        top_mesh.degree(n) for n in ultra
    )

    rows = []
    for name, dist in (
        ("UUSee active indegree", uusee_in),
        ("legacy Gnutella", legacy_dist),
        ("modern Gnutella ultrapeers", modern_dist),
    ):
        fit = powerlaw_fit(dist, min_degree=3)
        # power-law-like: monotone decay from the minimum degree with a
        # reasonably linear log-log pmf (empirical fits are never perfect)
        verdict = "yes" if (fit.r_squared > 0.7 and dist.mode() <= 4) else "no"
        rows.append(
            [
                name,
                dist.mode(),
                round(dist.mean(), 1),
                dist.max_degree(),
                round(fit.r_squared, 2),
                verdict,
            ]
        )
    print()
    print(
        format_table(
            ["topology", "mode", "mean", "max", "log-log R^2", "power law?"],
            rows,
            title="Degree distributions (paper: UUSee is NOT a power law)",
        )
    )

    legacy_sw = small_world_metrics(legacy, seed=0, path_sample_sources=48)
    modern_sw = small_world_metrics(top_mesh, seed=0, path_sample_sources=48)
    print()
    print(
        format_table(
            ["topology", "C/C_rand", "L/L_rand"],
            [
                ["legacy Gnutella", legacy_sw.clustering_ratio, legacy_sw.path_length_ratio],
                ["modern Gnutella ultrapeers", modern_sw.clustering_ratio, modern_sw.path_length_ratio],
                ["UUSee stable mesh (Fig. 7)", "~10x (see benchmarks)", "~1x"],
            ],
            title="Small-world comparison",
        )
    )


if __name__ == "__main__":
    main()
