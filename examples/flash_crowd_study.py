#!/usr/bin/env python3
"""Flash crowd study (paper Secs. 4.1.1, 4.1.3, 4.2.1).

Simulates 2.5 days with a large flash crowd on the second evening (the
paper's mid-autumn-festival scenario, moved earlier so the run stays
short) and shows how the system absorbs it: population surges, streaming
quality *improves*, and partner counts rise — the paper's scalability
argument.

Run:  python examples/flash_crowd_study.py   (about two minutes)
"""

import tempfile
from pathlib import Path

from repro.core.experiments import chart, fig1_plan, fig3_plan, fig4_plan
from repro.core.report import format_table
from repro.simulator.protocol import ProtocolConfig
from repro.simulator.system import SystemConfig, UUSeeSystem
from repro.traces import SegmentedTraceReader, SegmentedTraceStore
from repro.workloads import FlashCrowdEvent

DAY = 86_400.0
HOUR = 3_600.0
CROWD_START = int(1 * DAY + 20.5 * HOUR)  # second evening, 20:30


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        flash_crowd_study(Path(tmp))


def flash_crowd_study(tmp: Path) -> None:
    trace_path = tmp / "flashcrowd"
    event = FlashCrowdEvent(start=CROWD_START, magnitude=2.3)
    config = SystemConfig(
        seed=7,
        base_concurrency=500,
        flash_crowd=event,
        protocol=ProtocolConfig(),
    )
    print("Simulating 2.5 days with a flash crowd on the second evening ...")
    with SegmentedTraceStore(trace_path) as store:
        system = UUSeeSystem(config, store)
        system.run(seconds=2.5 * DAY)
    times = {
        "9am day2": 1 * DAY + 9 * HOUR,
        "9pm normal (day1)": 21.0 * HOUR,
        "9pm flash (day2)": 1 * DAY + 21.5 * HOUR,
    }
    figs = chart(
        SegmentedTraceReader(trace_path),
        {
            "fig1": fig1_plan(),
            "fig3": fig3_plan(),
            "fig4": fig4_plan(snapshot_times=times),
        },
    )
    fig1, fig3, fig4 = figs["fig1"], figs["fig3"], figs["fig4"]
    crowd_peak = event.peak_time

    # Compare the flash-crowd evening to the previous (normal) evening.
    normal_evening = crowd_peak - DAY
    boost = fig1.flash_crowd_boost(crowd_peak - 7 * DAY + 7 * DAY)  # at event
    rows = []
    for label, when in (("normal 9pm", normal_evening), ("flash crowd 9pm", crowd_peak)):
        idx = min(
            range(len(fig1.series.times)),
            key=lambda i, t=when: abs(fig1.series.times[i] - t),
        )
        rows.append(
            [
                label,
                fig1.series.column("total")[idx],
                fig1.series.column("stable")[idx],
                fig3.quality_at("CCTV1", when),
                fig3.quality_at("CCTV4", when),
            ]
        )
    print()
    print(
        format_table(
            ["evening", "total peers", "stable", "CCTV1 ok", "CCTV4 ok"],
            rows,
            title="Population and streaming quality (paper: quality RISES in the crowd)",
        )
    )

    rows = [
        [
            label,
            fig4.kind_at(label, "partners").mode(),
            round(fig4.kind_at(label, "partners").mean(), 1),
            fig4.kind_at(label, "in").mode(),
            fig4.kind_at(label, "in").max_degree(),
        ]
        for label in times
    ]
    print()
    print(
        format_table(
            ["snapshot", "partner mode", "partner mean", "indegree mode", "indegree max"],
            rows,
            title="Degrees (paper Fig. 4: spikes shift right under the crowd)",
        )
    )


if __name__ == "__main__":
    main()
