"""Fig. 5 — evolution of average degrees for stable peers.

Paper: the average total partner count swings with the daily load
(peaking at peak hours, 20-80), while the average active indegree stays
flat around 10 throughout — peers *know* more peers at peak times but do
not need to stream from more of them.
"""

from benchmarks.conftest import show


def test_fig5_degree_evolution(benchmark, paper_figures):
    result = paper_figures(benchmark)["fig5"]
    mean_in = result.mean_indegree()
    lo, hi = result.partner_count_range()
    summaries = [
        s
        for t, s in zip(result.series.times, result.series.column("degrees"))
        if t >= 12 * 3600
    ]
    in_values = [s.mean_indegree for s in summaries]
    out_values = [s.mean_outdegree for s in summaries]
    in_spread = max(in_values) - min(in_values)
    show(
        "Fig. 5 average degree evolution",
        ["metric", "paper", "measured"],
        [
            ["mean indegree", "~10, flat", mean_in],
            ["indegree spread (max-min)", "small", in_spread],
            ["partner count range", "swings 20-80", f"{lo:.1f} .. {hi:.1f}"],
            ["mean outdegree", "~indegree", sum(out_values) / len(out_values)],
        ],
    )
    assert 8 <= mean_in <= 16
    # partner counts swing much more than the flat indegree
    assert (hi - lo) > 1.5 * in_spread
    assert hi > 1.25 * lo
    # flow conservation: average out ~= average in over stable peers
    mean_out = sum(out_values) / len(out_values)
    assert 0.5 * mean_in <= mean_out <= 2.0 * mean_in
