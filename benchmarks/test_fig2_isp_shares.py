"""Fig. 2 — peer number statistics for different ISPs.

Paper: a pie chart dominated by China Telecom, then China Netcom, with
China Unicom / Tietong / Edu / others as minor slices and a visible
overseas share.  Distributions do not vary significantly over time.
"""

from benchmarks.conftest import show


def test_fig2_isp_shares(benchmark, paper_figures, isp_db):
    shares = paper_figures(benchmark)["fig2"]
    ranked = sorted(shares.items(), key=lambda kv: kv[1], reverse=True)
    show(
        "Fig. 2 ISP shares",
        ["ISP", "measured share", "registry share"],
        [[name, value, isp_db.isp(name).share] for name, value in ranked],
    )
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert ranked[0][0] == "China Telecom"
    assert ranked[1][0] == "China Netcom"
    assert ranked[0][1] > 0.3
    assert 0.02 < shares["Oversea ISPs"] < 0.2
    # measured shares track the registry within a few points
    for name, value in shares.items():
        assert abs(value - isp_db.isp(name).share) < 0.06
