"""One shared trace pass charts every figure exactly as separate passes do."""

import pytest

from repro.core import experiments as ex
from repro.core.metrics import peer_counts
from repro.core.timeseries import Sampling, observe, sample_trace
from repro.obs import Observer
from repro.soa.incremental import IncrementalWindowMetrics
from tests.core.helpers import partner, report

DAY = 86_400.0
HOUR = 3_600.0
#: Fig. 4 instants inside the two-day shared trace.
FIG4_TIMES = {"9am": DAY + 9 * HOUR, "9pm": DAY + 21 * HOUR}


class CountingTrace:
    """A re-iterable trace that counts how often it is read."""

    def __init__(self, reports):
        self.reports = list(reports)
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return iter(self.reports)


def plans():
    return {
        "fig1": ex.fig1_plan(),
        "fig2": ex.fig2_plan(),
        "fig3": ex.fig3_plan(),
        "fig4": ex.fig4_plan(snapshot_times=FIG4_TIMES),
        "fig5": ex.fig5_plan(),
        "fig6": ex.fig6_plan(),
        "fig7": ex.fig7_plan(),
        "fig7 netcom": ex.fig7_plan(isp="China Netcom"),
        "fig8": ex.fig8_plan(),
    }


@pytest.fixture(scope="module")
def shared(small_trace):
    chosen = plans()
    series = sample_trace(small_trace, {k: p.sampling for k, p in chosen.items()})
    return {key: plan.finish(series[key]) for key, plan in chosen.items()}


class TestSharedPassEqualsSeparatePasses:
    def test_fig1_series_and_daily_rows(self, small_trace, shared):
        alone = ex.fig1_scale(small_trace)
        assert shared["fig1"].series == alone.series
        assert shared["fig1"].daily == alone.daily
        assert len(alone.daily) == 2

    def test_fig2_shares(self, small_trace, shared):
        assert shared["fig2"] == ex.fig2_isp_shares(small_trace)

    def test_fig3_series(self, small_trace, shared):
        alone = ex.fig3_streaming_quality(small_trace)
        assert shared["fig3"].series == alone.series
        assert shared["fig3"].channels == alone.channels

    def test_fig4_distributions(self, small_trace, shared):
        alone = ex.fig4_degree_distributions(small_trace, snapshot_times=FIG4_TIMES)
        assert shared["fig4"].distributions == alone.distributions
        assert list(shared["fig4"].distributions) == list(FIG4_TIMES)

    def test_fig5_and_fig6_series(self, small_trace, shared):
        assert shared["fig5"].series == ex.fig5_degree_evolution(small_trace).series
        alone = ex.fig6_intra_isp_degrees(small_trace)
        assert shared["fig6"].series == alone.series
        assert shared["fig6"].random_baseline == alone.random_baseline

    def test_fig7_both_graph_families(self, small_trace, shared):
        assert shared["fig7"].series == ex.fig7_small_world(small_trace).series
        alone = ex.fig7_small_world(small_trace, isp="China Netcom")
        assert shared["fig7 netcom"].series == alone.series
        assert shared["fig7 netcom"].isp == "China Netcom"

    def test_fig8_series(self, small_trace, shared):
        assert shared["fig8"].series == ex.fig8_reciprocity(small_trace).series

    def test_windows_sampling_shares_the_figures_pass(self, small_trace):
        chosen = plans()
        state = IncrementalWindowMetrics()
        samplings = {key: plan.sampling for key, plan in chosen.items()}
        samplings["windows"] = Sampling({}, every=600.0, on_window=state.update)
        trace = CountingTrace(small_trace)
        series = sample_trace(trace, samplings)
        assert trace.passes == 1
        for key, plan in plans().items():
            separate = plan.chart(small_trace)
            assert chosen[key].finish(series[key]) == separate, key
        alone = ex.windowed_structure(small_trace)
        assert series["windows"] == alone
        assert alone == observe(small_trace, ex.WINDOW_STRUCTURE_METRICS)
        assert len(alone) == state.windows_processed


def hourly_reports(hours):
    """One report a peer per 10-minute window, for ``hours`` hours."""
    return [
        report(t=600.0 * w + 5.0, ip=ip, partners=(partner(ip + 100, recv=20),))
        for w in range(int(hours * 6))
        for ip in (1, 2)
    ]


class TestSampleTrace:
    def test_reads_the_trace_once(self):
        trace = CountingTrace(hourly_reports(6))
        chosen = plans()
        sample_trace(trace, {k: p.sampling for k, p in chosen.items()})
        assert trace.passes == 1

    def test_snapshot_per_due_window_only(self):
        obs = Observer()
        trace = CountingTrace(hourly_reports(6))
        sample_trace(
            trace,
            {
                "hourly": Sampling({"n": peer_counts}, every=HOUR),
                "six-hourly": Sampling({"n": peer_counts}, every=6 * HOUR),
                "instant": Sampling({"n": peer_counts}, instants=(1_900.0,)),
            },
            obs=obs,
        )
        # windows at 0 h .. 5 h, plus the one holding t = 1900 s
        assert obs.registry.counters()["analytics.snapshots"] == 7
        assert obs.registry.histograms()["analytics.trace_pass"].count == 1

    def test_every_report_reaches_the_taps(self):
        seen = []
        reports = [report(t=-5.0, ip=7)] + hourly_reports(1)
        sample_trace(reports, {"tap": Sampling({}, on_report=seen.append)})
        assert seen == reports

    def test_instants_only_stop_after_the_last_instant(self):
        reports = hourly_reports(6)
        consumed = []

        def tracked():
            for r in reports:
                consumed.append(r)
                yield r

        series = sample_trace(
            tracked(), {"at": Sampling({"n": peer_counts}, instants=(650.0,))}
        )
        assert series["at"].times == [600.0]
        # reading stops one report into the window after the instant's
        assert len(consumed) == 5

    def test_observe_is_the_one_sampling_case(self):
        reports = hourly_reports(3)
        alone = observe(reports, {"n": peer_counts}, observe_every=HOUR)
        shared = sample_trace(reports, {0: Sampling({"n": peer_counts}, every=HOUR)})
        assert shared[0] == alone

    def test_cadence_below_window_rejected(self):
        with pytest.raises(ValueError, match="observe_every"):
            sample_trace([], {0: Sampling({}, every=60.0)})

    def test_on_window_sees_every_window_in_order(self):
        seen = []

        def tally(window_reports):
            seen.append(window_reports[0].time)
            return {"n": len(window_reports)}

        obs = Observer()
        series = sample_trace(
            hourly_reports(2), {0: Sampling({}, every=HOUR, on_window=tally)}, obs=obs
        )
        assert seen == [600.0 * w + 5.0 for w in range(12)]
        assert series[0].times == [0.0, HOUR]
        assert series[0].column("n") == [2, 2]
        # no sampling with metrics was due: no snapshot was built
        assert "analytics.snapshots" not in obs.registry.counters()
        assert obs.registry.histograms()["analytics.trace_pass"].count == 1

    def test_window_rows_come_before_the_metrics(self):
        series = sample_trace(
            hourly_reports(1),
            {
                0: Sampling(
                    {"n": peer_counts},
                    instants=(700.0,),
                    on_window=lambda window: {"first": window[0].peer_ip},
                )
            },
        )
        ((time, row),) = series[0].rows()
        assert time == 600.0
        assert list(row) == ["first", "n"]
        assert row["first"] == 1

    def test_on_window_reads_past_the_last_instant(self):
        reports = hourly_reports(2)
        consumed = []

        def tracked():
            for r in reports:
                consumed.append(r)
                yield r

        windows = []

        def note(window_reports):
            windows.append(window_reports)
            return {}

        sample_trace(
            tracked(),
            {
                "at": Sampling({"n": peer_counts}, instants=(650.0,)),
                "tap": Sampling({}, on_window=note),
            },
        )
        assert len(consumed) == len(reports)
        assert len(windows) == 12
