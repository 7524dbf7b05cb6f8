"""Ablation — upload-capacity volunteering on/off.

DESIGN.md Sec. 4: UUSee's scalability (Fig. 3, especially under the
flash crowd) rests on peers with spare upload capacity volunteering at
the tracker, which is how newcomers find supply.  Disabling
volunteering (spare threshold above any peer's capacity) leaves only
the streaming servers to bootstrap from, and quality collapses.
"""

from benchmarks.conftest import _cached_trace, show
from repro.core.experiments import chart, fig3_plan
from repro.simulator.protocol import ProtocolConfig


def test_no_volunteering_collapses_quality(benchmark, uusee_trace):
    no_volunteer_trace = _cached_trace(
        "ablation-novolunteer",
        days=1.5,
        base_concurrency=400,
        seed=77,
        with_flash_crowd=False,
        protocol=ProtocolConfig(volunteer_spare_fraction=2.0),
    )
    def fig3(trace):
        return chart(trace, {"fig3": fig3_plan()})["fig3"]

    with_vol = benchmark.pedantic(lambda: fig3(uusee_trace), rounds=1, iterations=1)
    without = fig3(no_volunteer_trace)
    q_on = with_vol.mean_quality("CCTV1")
    q_off = without.mean_quality("CCTV1")
    show(
        "Ablation: volunteering vs streaming quality (CCTV1)",
        ["configuration", "satisfied fraction"],
        [["volunteering on", q_on], ["volunteering off", q_off]],
    )
    assert q_on > 0.6
    assert q_off < q_on - 0.25
