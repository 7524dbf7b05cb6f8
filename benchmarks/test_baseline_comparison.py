"""Comparison — UUSee streaming vs Gnutella file-sharing topologies.

Paper Sec. 4.2.1/4.3: most prior P2P topology work reported power-law
degrees (legacy Gnutella) or a spiked distribution around the client's
neighbour target (modern Gnutella, Stutzbach et al.); UUSee's degree
distributions are spiked too but at positions set by the *streaming
workload*, and its mesh is far more clustered relative to random than
a crawler-built file-sharing mesh.
"""

from benchmarks.conftest import show
from repro.baselines import (
    GnutellaConfig,
    legacy_gnutella_snapshot,
    modern_gnutella_snapshot,
)
from repro.baselines.gnutella import ultrapeer_ids
from repro.core.experiments import chart, fig4_plan, fig7_plan
from repro.graph import DegreeDistribution, powerlaw_fit, small_world_metrics

DAY = 86_400.0
SNAPSHOT = {"evening": int(0.9 * DAY)}


def test_degree_distribution_contrast(benchmark, uusee_trace):
    uusee = benchmark.pedantic(
        lambda: chart(uusee_trace, {"fig4": fig4_plan(snapshot_times=SNAPSHOT)})["fig4"],
        rounds=1,
        iterations=1,
    )
    uusee_in = uusee.kind_at("evening", "in")

    cfg = GnutellaConfig(num_peers=3_000, seed=5)
    legacy = legacy_gnutella_snapshot(cfg)
    legacy_dist = DegreeDistribution.from_degrees(
        legacy.degree(n) for n in legacy.nodes()
    )
    modern = modern_gnutella_snapshot(cfg)
    ultra = set(ultrapeer_ids(cfg))
    modern_dist = DegreeDistribution.from_degrees(
        modern.subgraph(ultra).degree(n) for n in ultra
    )

    fits = {
        "UUSee indegree": powerlaw_fit(uusee_in, min_degree=3),
        "legacy Gnutella": powerlaw_fit(legacy_dist, min_degree=3),
        "modern Gnutella (ultra)": powerlaw_fit(modern_dist, min_degree=3),
    }
    show(
        "Degree distributions: streaming vs file sharing",
        ["topology", "mode", "log-log R^2", "power law?"],
        [
            ["UUSee indegree", uusee_in.mode(), fits["UUSee indegree"].r_squared, "no (paper)"],
            ["legacy Gnutella", legacy_dist.mode(), fits["legacy Gnutella"].r_squared, "yes"],
            [
                "modern Gnutella (ultra)",
                modern_dist.mode(),
                fits["modern Gnutella (ultra)"].r_squared,
                "no (spike ~30)",
            ],
        ],
    )
    # legacy file sharing: power law (mass at minimum degree, linear fit)
    assert legacy_dist.mode() <= 4
    assert fits["legacy Gnutella"].r_squared > 0.7
    # both modern systems: interior spikes, no power law
    assert uusee_in.mode() >= 7
    assert 24 <= modern_dist.mode() <= 36
    assert not fits["UUSee indegree"].is_plausible_powerlaw
    assert not fits["modern Gnutella (ultra)"].is_plausible_powerlaw


def test_clustering_contrast(benchmark, uusee_trace, isp_db):
    uusee = benchmark.pedantic(
        lambda: chart(uusee_trace, {"fig7": fig7_plan(db=isp_db)})["fig7"],
        rounds=1,
        iterations=1,
    )
    uusee_ratio = uusee.mean_clustering_ratio(skip_first_hours=6)

    cfg = GnutellaConfig(num_peers=3_000, seed=6)
    modern = modern_gnutella_snapshot(cfg)
    ultra = set(ultrapeer_ids(cfg))
    gnutella_metrics = small_world_metrics(
        modern.subgraph(ultra), seed=1, path_sample_sources=48
    )
    show(
        "Clustering vs matched random graphs",
        ["topology", "C/C_random"],
        [
            ["UUSee stable-peer mesh", uusee_ratio],
            ["modern Gnutella ultrapeer mesh", gnutella_metrics.clustering_ratio],
        ],
    )
    # the streaming mesh's gossip-built structure clusters far more
    # strongly than the crawler-observed random-wired file-sharing mesh
    assert uusee_ratio > 2 * gnutella_metrics.clustering_ratio
