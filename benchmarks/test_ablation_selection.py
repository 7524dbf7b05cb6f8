"""Ablation — quality-biased selection vs ISP/quality-blind selection.

DESIGN.md Sec. 4: the paper attributes ISP clustering (Figs. 6, 7B)
entirely to quality-biased peer selection over an Internet where
intra-ISP links are faster.  Replacing UUSee's selection with uniform
random choice must therefore collapse the intra-ISP degree fractions
toward the ISP-blind baseline.
"""

from benchmarks.conftest import show
from repro.core.experiments import chart, fig6_plan


def test_random_selection_destroys_isp_clustering(
    benchmark, uusee_trace, random_trace, isp_db
):
    def fig6(trace):
        return chart(trace, {"fig6": fig6_plan(isp_db)})["fig6"]

    uusee = benchmark.pedantic(lambda: fig6(uusee_trace), rounds=1, iterations=1)
    blind = fig6(random_trace)
    u_in, u_out = uusee.mean_fractions()
    b_in, b_out = blind.mean_fractions()
    show(
        "Ablation: selection policy vs ISP clustering",
        ["policy", "intra-ISP indegree", "intra-ISP outdegree", "blind baseline"],
        [
            ["uusee", u_in, u_out, uusee.random_baseline],
            ["random", b_in, b_out, blind.random_baseline],
        ],
    )
    # UUSee selection clusters well above the baseline ...
    assert u_in > uusee.random_baseline + 0.06
    # ... random selection sits near it ...
    assert abs(b_in - blind.random_baseline) < 0.06
    # ... and the gap between the policies is the clustering effect
    assert u_in > b_in + 0.05
