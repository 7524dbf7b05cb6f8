"""Ablation — mesh exchange vs tree-like distribution.

DESIGN.md Sec. 4 / paper Sec. 4.4: if media propagated tree-like (each
peer only drawing from peers strictly closer to the servers), edge
reciprocity would be negative (rho = -abar/(1-abar) < 0).  The TREE
policy enforces exactly that; the UUSee mesh should stay strongly
reciprocal.
"""

from benchmarks.conftest import show
from repro.core.experiments import chart, fig8_plan


def test_tree_distribution_is_antireciprocal(
    benchmark, uusee_trace, tree_trace, random_trace, isp_db
):
    def fig8(trace):
        return chart(trace, {"fig8": fig8_plan(isp_db)})["fig8"]

    mesh = benchmark.pedantic(lambda: fig8(uusee_trace), rounds=1, iterations=1)
    tree = fig8(tree_trace)
    random_policy = fig8(random_trace)
    mesh_rho = mesh.means().all_links
    tree_rho = tree.means().all_links
    random_rho = random_policy.means().all_links
    show(
        "Ablation: reciprocity by distribution structure",
        ["policy", "rho", "interpretation"],
        [
            ["uusee (mesh)", mesh_rho, "reciprocal exchange"],
            ["random (mesh)", random_rho, "structural mesh reciprocity"],
            ["tree", tree_rho, "antireciprocal"],
        ],
    )
    assert mesh_rho > 0.2
    assert tree_rho <= 0.05  # ~ -abar/(1-abar), never meaningfully positive
    assert mesh_rho > tree_rho + 0.2
    # bilateral exchange is structural to mesh block exchange: even
    # direction-blind selection stays reciprocal (unlike the tree)
    assert random_rho > 0.1
