"""Fig. 6 — evolution of average intra-ISP degree fractions.

Paper: both the intra-ISP indegree and outdegree proportions hover
around 0.4 — far above what ISP-blind selection would give (the sum of
squared ISP shares) — and peak at the daily peak hours, when peers have
more partner choices and can keep the best, largely intra-ISP, links.
"""

from benchmarks.conftest import show


def _hourly_mean(result, hours, column="intra"):
    vals = []
    for t, v in zip(result.series.times, result.series.column(column)):
        if t < 12 * 3600:
            continue
        if int((t % 86_400) // 3_600) in hours:
            vals.append(v)
    return vals


def test_fig6_intra_isp_degrees(benchmark, paper_figures):
    result = paper_figures(benchmark)["fig6"]
    frac_in, frac_out = result.mean_fractions()
    peak = _hourly_mean(result, {20, 21, 22})
    trough = _hourly_mean(result, {4, 5, 6})
    peak_in = sum(v.indegree_fraction for v in peak) / len(peak)
    trough_in = sum(v.indegree_fraction for v in trough) / len(trough)
    show(
        "Fig. 6 intra-ISP degree fractions",
        ["metric", "paper", "measured"],
        [
            ["mean intra-ISP indegree fraction", "~0.4", frac_in],
            ["mean intra-ISP outdegree fraction", "~0.4", frac_out],
            ["ISP-blind baseline", "much lower", result.random_baseline],
            ["at daily peak hours (21h)", "higher", peak_in],
            ["at night trough (5h)", "lower", trough_in],
        ],
    )
    assert frac_in > result.random_baseline + 0.06
    assert frac_out > result.random_baseline + 0.06
    assert 0.30 <= frac_in <= 0.60
    assert 0.30 <= frac_out <= 0.60
    # natural clustering strengthens when the network is large
    assert peak_in >= trough_in - 0.03
