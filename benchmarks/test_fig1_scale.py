"""Fig. 1 — scale of the UUSee topologies.

Paper: ~100k simultaneous peers with two daily peaks (1 p.m., 9 p.m.),
stable reporting peers asymptotically 1/3 of the total, a flash crowd
on the evening of Oct 6, and up to ~1M distinct IPs per day.
"""

from benchmarks.conftest import DAY, FLASH_PEAK, HOUR, show


def test_fig1a_simultaneous_peers(benchmark, paper_figures):
    result = paper_figures(benchmark)["fig1"]

    ratio = result.stable_ratio()
    peak_hour = result.peak_hour_of_day()
    boost = result.flash_crowd_boost(FLASH_PEAK)

    def total_at(when: float) -> int:
        idx = min(
            range(len(result.series.times)),
            key=lambda i: abs(result.series.times[i] - when),
        )
        return result.series.column("total")[idx]

    noon = total_at(2 * DAY + 13 * HOUR)
    night = total_at(2 * DAY + 5 * HOUR)
    show(
        "Fig. 1(A) simultaneous peers",
        ["metric", "paper", "measured"],
        [
            ["stable/total ratio", "~1/3", ratio],
            ["main daily peak", "21:00", f"{peak_hour}:00"],
            ["1pm vs 5am load", ">1", noon / night],
            ["flash-crowd boost vs prev evening", ">1.5x", boost],
        ],
    )
    assert 0.22 <= ratio <= 0.5
    assert 19 <= peak_hour <= 23
    assert noon > 1.15 * night  # secondary (1 p.m.) peak exists
    assert boost > 1.3


def test_fig1b_daily_distinct_ips(benchmark, paper_figures):
    result = paper_figures(benchmark)["fig1"]
    rows = [(d, total, stable) for d, total, stable in result.daily]
    show(
        "Fig. 1(B) daily distinct IPs",
        ["day", "total IPs", "stable IPs"],
        rows,
    )
    max_concurrent = max(result.series.column("total"))
    full_days = rows[1:-1]  # first/last day may be partial
    assert len(rows) >= 7
    for _, total, stable in full_days:
        assert total > stable > 0
        # daily turnover dwarfs the instantaneous population (paper: ~1M
        # daily vs ~100k concurrent)
        assert total > 3 * max_concurrent
    # flash-crowd day (5) sees the most distinct IPs of its week
    by_day = {d: total for d, total, _ in rows}
    assert by_day[5] == max(by_day[d] for d in range(1, 7))
