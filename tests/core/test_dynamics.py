"""Unit tests for churn/dynamics analytics."""

import pytest

from repro.core.dynamics import trace_dynamics
from repro.traces.store import TraceFormatError
from tests.core.helpers import partner, report


def session_statistics(reports):
    return trace_dynamics(reports).sessions


def population_turnover(reports, **kwargs):
    return trace_dynamics(reports, **kwargs).turnover


def partner_stability(reports):
    return trace_dynamics(reports).stability


class TestSessionStatistics:
    def test_spans_and_counts(self):
        reports = [
            report(1, t=1200.0),
            report(2, t=1200.0),
            report(1, t=1800.0),
            report(1, t=2400.0),
        ]
        stats = session_statistics(reports)
        assert stats.num_peers == 2
        assert stats.mean_span_s == pytest.approx((1200 + 0) / 2)
        assert stats.mean_reports_per_peer == pytest.approx(2.0)
        assert stats.mean_session_estimate_s == stats.mean_span_s + 1200.0

    def test_empty(self):
        stats = session_statistics([])
        assert stats.num_peers == 0
        assert stats.mean_span_s == 0.0

    def test_median(self):
        reports = [report(1, t=0.0), report(2, t=0.0), report(1, t=600.0)]
        stats = session_statistics(reports)
        assert stats.median_span_s in (0.0, 600.0)


class TestPopulationTurnover:
    def test_arrivals_and_departures(self):
        reports = [
            report(1, t=10.0),
            report(2, t=20.0),
            report(2, t=700.0),
            report(3, t=710.0),
        ]
        points = population_turnover(reports, window_seconds=600.0)
        assert len(points) == 2
        first, second = points
        assert first.present == 2 and first.arrived == 2 and first.departed == 0
        assert second.present == 2
        assert second.arrived == 1  # peer 3
        assert second.departed == 1  # peer 1
        assert second.turnover_rate == pytest.approx(1.0)

    def test_empty_trace(self):
        assert population_turnover([]) == []

    def test_stable_population_zero_turnover(self):
        reports = [report(1, t=float(w * 600 + 5)) for w in range(4)]
        points = population_turnover(reports)
        assert all(p.departed == 0 for p in points)
        assert [p.arrived for p in points] == [1, 0, 0, 0]


class TestPartnerStability:
    def test_jaccard_between_consecutive_reports(self):
        reports = [
            report(1, t=0.0, partners=[partner(10), partner(11)]),
            report(1, t=600.0, partners=[partner(11), partner(12)]),
        ]
        stats = partner_stability(reports)
        assert stats.num_transitions == 1
        assert stats.mean_jaccard == pytest.approx(1 / 3)
        assert stats.mean_kept_fraction == pytest.approx(1 / 2)

    def test_identical_lists_fully_stable(self):
        plist = [partner(10), partner(11)]
        reports = [report(1, t=0.0, partners=plist), report(1, t=600.0, partners=plist)]
        stats = partner_stability(reports)
        assert stats.mean_jaccard == pytest.approx(1.0)

    def test_multiple_peers_tracked_independently(self):
        reports = [
            report(1, t=0.0, partners=[partner(10)]),
            report(2, t=1.0, partners=[partner(20)]),
            report(1, t=600.0, partners=[partner(10)]),
            report(2, t=601.0, partners=[partner(99)]),
        ]
        stats = partner_stability(reports)
        assert stats.num_transitions == 2
        assert stats.mean_jaccard == pytest.approx(0.5)

    def test_no_transitions(self):
        stats = partner_stability([report(1, t=0.0)])
        assert stats.num_transitions == 0
        assert stats.mean_jaccard == 0.0


class TestTraceCounts:
    def test_counts_and_span_in_trace_order(self):
        reports = [
            report(1, t=5.0, channel=1),
            report(2, t=900.0, channel=2),
            report(1, t=1300.0, channel=1),
        ]
        dynamics = trace_dynamics(reports)
        assert dynamics.reports == 3
        assert dynamics.channels == 2
        assert (dynamics.first_time, dynamics.last_time) == (5.0, 1300.0)
        assert dynamics.mean_turnover_rate == pytest.approx(
            sum(p.turnover_rate for p in dynamics.turnover) / 3
        )

    def test_empty(self):
        dynamics = trace_dynamics([])
        assert dynamics.reports == dynamics.channels == 0
        assert dynamics.mean_turnover_rate == 0.0

    def test_order_regression_across_windows_raises(self):
        with pytest.raises(TraceFormatError):
            trace_dynamics([report(1, t=700.0), report(2, t=10.0)])


class TestOnSimulatedTrace:
    def test_simulated_dynamics_plausible(self, small_trace):
        dynamics = trace_dynamics(small_trace)
        stats = dynamics.sessions
        assert stats.num_peers > 100
        # stable peers live ~tens of minutes beyond their first report
        assert 0 < stats.mean_span_s < 3 * 3600
        rates = [p.turnover_rate for p in dynamics.turnover[10:]]
        assert 0.05 < sum(rates) / len(rates) < 1.5
        stability = dynamics.stability
        # partner lists churn but do not reset between reports
        assert 0.2 < stability.mean_jaccard < 0.98
