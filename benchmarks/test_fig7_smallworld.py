"""Fig. 7 — small-world metrics of stable-peer graphs.

Paper: (A) the global stable-peer graph has clustering coefficients
consistently more than an order of magnitude above matched random
graphs while average path lengths stay comparable (~5 hops at 100k
scale) — a small world; (B) a single ISP's subgraph (China Netcom) is
even more clustered.  Path lengths shrink with graph size, so at this
simulation scale absolute L is smaller; the ratios carry the claim.
"""

from benchmarks.conftest import show


def test_fig7a_global_small_world(benchmark, paper_figures):
    result = paper_figures(benchmark)["fig7"]
    metrics = [
        m
        for t, m in zip(result.series.times, result.series.column("sw"))
        if t >= 12 * 3600
    ]
    c_ratio = result.mean_clustering_ratio()
    l_ratio = result.mean_path_ratio()
    mean_c = sum(m.clustering for m in metrics) / len(metrics)
    mean_l = sum(m.path_length for m in metrics) / len(metrics)
    show(
        "Fig. 7(A) global small-world metrics",
        ["metric", "paper", "measured"],
        [
            ["C / C_random", ">10x", c_ratio],
            ["L / L_random", "~1x", l_ratio],
            ["C (absolute)", "0.2-0.6", mean_c],
            ["L (absolute)", "~5 at 100k peers", mean_l],
            ["graph size", "~30k stable", metrics[0].num_nodes],
        ],
    )
    assert c_ratio > 8
    assert 0.4 <= l_ratio <= 2.0
    assert all(m.clustering > 5 * m.random_clustering for m in metrics)


def test_fig7b_isp_subgraph(benchmark, paper_figures):
    figures = paper_figures(benchmark)
    netcom = figures["fig7 China Netcom"]
    global_result = figures["fig7"]

    def means(result):
        ms = [
            m
            for t, m in zip(result.series.times, result.series.column("sw"))
            if t >= 12 * 3600
        ]
        return (
            sum(m.clustering for m in ms) / len(ms),
            sum(m.path_length for m in ms) / len(ms),
        )

    c_netcom, l_netcom = means(netcom)
    c_global, l_global = means(global_result)
    show(
        "Fig. 7(B) China Netcom subgraph vs global",
        ["graph", "C", "L"],
        [["China Netcom", c_netcom, l_netcom], ["global", c_global, l_global]],
    )
    # the ISP subgraph is more clustered than the complete topology
    assert c_netcom > c_global
    # and still a connected small community (short internal paths)
    assert 0 < l_netcom <= l_global + 1.5
