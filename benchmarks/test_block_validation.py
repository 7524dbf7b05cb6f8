"""Validation — the aggregate flow model vs the block-accurate plane.

The two-week figure benchmarks run on the aggregate (kbps-per-round)
exchange model for tractability.  This benchmark cross-checks its
emergent observables against the block-accurate single-swarm plane:
both must agree that (1) streaming succeeds with the default capacity
mix, (2) active suppliers are far fewer than partners, and (3) the
transfer digraph is strongly reciprocal — the properties every paper
figure builds on.
"""

import statistics

from benchmarks.conftest import show
from repro.core.experiments import chart, fig5_plan, fig8_plan
from repro.simulator.blocks import BlockSwarm, SwarmConfig


def test_flow_model_matches_block_plane(benchmark, uusee_trace, isp_db):
    def run_block_plane():
        swarm = BlockSwarm(SwarmConfig(num_peers=60, seed=17))
        swarm.run(1_200)  # 20 minutes of stream
        return swarm

    swarm = benchmark.pedantic(run_block_plane, rounds=1, iterations=1)
    block_continuity = swarm.continuity_index()
    # scale the activity threshold to the observation span: the figure
    # pipeline uses >=10 segments per 10-minute report, the swarm ran for
    # 20 minutes
    block_in = statistics.mean(swarm.active_indegrees(threshold=20))
    block_rho = swarm.reciprocity(threshold=20)

    flow = chart(uusee_trace, {"fig5": fig5_plan(), "fig8": fig8_plan(isp_db)})
    flow_in = flow["fig5"].mean_indegree(skip_first_hours=6)
    flow_rho = flow["fig8"].means(skip_first_hours=6).all_links

    show(
        "Validation: aggregate flow model vs block-accurate plane",
        ["observable", "flow model", "block plane"],
        [
            ["streaming works (continuity/satisfied)", ">0.6", block_continuity],
            ["mean active indegree", flow_in, block_in],
            ["edge reciprocity rho", flow_rho, block_rho],
        ],
    )
    assert block_continuity > 0.9
    # both planes put the active supplier count in the same band: far
    # above a tree's 1, far below the partner-list size
    assert 5 <= flow_in <= 20
    assert 5 <= block_in <= 30
    # both planes agree the mesh is strongly reciprocal
    assert flow_rho > 0.25
    assert block_rho > 0.25
