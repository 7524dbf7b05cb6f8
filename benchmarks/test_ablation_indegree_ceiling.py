"""Ablation — what pins the Fig. 4(B) indegree spike near 10.

Paper Sec. 4.2.1 observes the active-supplier spike stays near 10 at
all loads and rates.  In a block-scheduling mesh that constant is the
*spreading width*: each peer requests at most a fixed fraction of the
stream from any one partner, so it needs ~demand/fraction suppliers
regardless of the absolute rate.  Doubling the per-link fraction must
therefore halve the indegree spike — while the abrupt cut-off
(demand / weakest-useful-link) stays put.
"""

from benchmarks.conftest import _cached_trace, show
from repro.core.experiments import chart, fig4_plan
from repro.simulator.protocol import ProtocolConfig

DAY = 86_400.0
SNAPSHOTS = {"evening": int(0.9 * DAY)}


def _indegree(trace):
    result = chart(trace, {"fig4": fig4_plan(snapshot_times=SNAPSHOTS)})["fig4"]
    return result.kind_at("evening", "in")


def test_indegree_spike_tracks_spreading_width(benchmark):
    narrow_cfg = ProtocolConfig()  # 0.15 of the rate per link -> ~8+
    wide_cfg = ProtocolConfig(per_link_request_cap_fraction=0.35)  # -> ~4

    narrow_trace = _cached_trace(
        "ablation-spread-narrow",
        days=1.0,
        base_concurrency=350,
        seed=55,
        with_flash_crowd=False,
        protocol=narrow_cfg,
    )
    wide_trace = _cached_trace(
        "ablation-spread-wide",
        days=1.0,
        base_concurrency=350,
        seed=55,
        with_flash_crowd=False,
        protocol=wide_cfg,
    )
    narrow = benchmark.pedantic(
        lambda: _indegree(narrow_trace), rounds=1, iterations=1
    )
    wide = _indegree(wide_trace)
    show(
        "Ablation: block-spreading width vs indegree spike",
        ["per-link cap", "indegree mode", "mean", "max"],
        [
            ["0.15 x rate", narrow.mode(), narrow.mean(), narrow.max_degree()],
            ["0.35 x rate", wide.mode(), wide.mean(), wide.max_degree()],
        ],
    )
    # wider per-link requests -> fewer concurrent suppliers needed
    assert wide.mean() < 0.7 * narrow.mean()
    assert wide.mode() < narrow.mode()
    # the emergent cut-off never exceeds demand / min-useful-rate
    ceiling = narrow_cfg.indegree_ceiling(400.0)
    assert narrow.max_degree() <= 2 * ceiling  # first reports span 20 min
