"""Fig. 8 — edge reciprocity of the active streaming topology.

Paper: (A) the Garlaschelli-Loffredo rho of the active-link digraph is
consistently greater than zero (mesh streaming genuinely relies on
reciprocal segment exchange, not tree-like distribution), with daily
peaks; (B) intra-ISP links are more reciprocal than the topology as a
whole, inter-ISP links less.
"""

from benchmarks.conftest import show


def test_fig8a_global_reciprocity(benchmark, paper_figures):
    result = paper_figures(benchmark)["fig8"]
    rows = [
        m
        for t, m in zip(result.series.times, result.series.column("rho"))
        if t >= 12 * 3600
    ]
    values = [m.all_links for m in rows]
    show(
        "Fig. 8(A) edge reciprocity (all links)",
        ["metric", "paper", "measured"],
        [
            ["mean rho", "0.1-0.4, always > 0", sum(values) / len(values)],
            ["min rho", "> 0", min(values)],
            ["max rho", "-", max(values)],
        ],
    )
    assert min(values) > 0.1  # never tree-like, never uncorrelated
    assert sum(values) / len(values) > 0.25


def test_fig8b_isp_split(benchmark, paper_figures):
    result = paper_figures(benchmark)["fig8"]
    means = result.means()
    show(
        "Fig. 8(B) reciprocity by link locality",
        ["link set", "paper", "measured rho"],
        [
            ["intra-ISP", "highest", means.intra_isp],
            ["all links", "middle", means.all_links],
            ["inter-ISP", "lowest", means.inter_isp],
        ],
    )
    assert means.intra_isp > means.all_links > means.inter_isp
    assert means.inter_isp > 0  # still reciprocal, just less so
