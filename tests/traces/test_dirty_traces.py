"""Tests for channel fault injection and the dirty-trace-tolerant reader."""

import pytest

from repro.traces import (
    ChannelFaults,
    FaultyChannel,
    InMemoryTraceStore,
    PartnerRecord,
    PeerReport,
    SegmentedTraceReader,
    SegmentedTraceStore,
    TraceFormatError,
    TraceHealth,
    TraceTruncatedError,
    iter_windows,
    sanitize,
)


def report_at(t, ip=1, buffer_fill=0.5):
    return PeerReport(
        time=t,
        peer_ip=ip,
        channel_id=0,
        buffer_fill=buffer_fill,
        playback_position=max(0, int(t)),
        download_capacity_kbps=2000.0,
        upload_capacity_kbps=500.0,
        recv_rate_kbps=400.0,
        sent_rate_kbps=100.0,
        partners=(PartnerRecord(ip=9, port=1, sent_segments=11, recv_segments=12),),
    )


class TestChannelFaults:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelFaults(loss_rate=1.0)
        with pytest.raises(ValueError):
            ChannelFaults(burst_length=0.5)
        with pytest.raises(ValueError):
            ChannelFaults(reorder_depth=0)
        with pytest.raises(ValueError):
            ChannelFaults(corrupt_rate=-0.1)

    def test_any_active(self):
        assert not ChannelFaults().any_active
        assert ChannelFaults(loss_rate=0.1).any_active


class TestFaultyChannel:
    def test_clean_channel_is_transparent(self):
        store = InMemoryTraceStore()
        with FaultyChannel(store, ChannelFaults(), seed=1) as channel:
            for i in range(50):
                channel.append(report_at(float(i), ip=i))
        assert len(store) == 50
        assert [r.peer_ip for r in store] == list(range(50))
        c = channel.counters
        assert (c.offered, c.delivered, c.dropped) == (50, 50, 0)

    def test_counter_invariant(self):
        faults = ChannelFaults(
            loss_rate=0.1, duplicate_rate=0.05, reorder_rate=0.05, corrupt_rate=0.0
        )
        store = InMemoryTraceStore()
        with FaultyChannel(store, faults, seed=3) as channel:
            for i in range(1000):
                channel.append(report_at(float(i * 10), ip=i % 20))
        c = channel.counters
        assert c.offered == 1000
        assert c.dropped > 0 and c.duplicated > 0 and c.reordered > 0
        assert c.delivered + c.corrupted == c.offered - c.dropped + c.duplicated
        assert len(store) == c.delivered

    def test_deterministic_under_seed(self):
        faults = ChannelFaults(loss_rate=0.2, duplicate_rate=0.1)

        def run(seed):
            store = InMemoryTraceStore()
            with FaultyChannel(store, faults, seed=seed) as channel:
                for i in range(300):
                    channel.append(report_at(float(i)))
            return [r.time for r in store]

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_bursty_loss_clusters(self):
        # With mean burst length 8, consecutive losses must appear far
        # more often than under independent loss at the same rate.
        faults = ChannelFaults(loss_rate=0.2, burst_length=8.0)
        store = InMemoryTraceStore()
        channel = FaultyChannel(store, faults, seed=9)
        delivered_flags = []
        for i in range(5000):
            before = len(store)
            channel.append(report_at(float(i)))
            delivered_flags.append(len(store) > before)
        losses = delivered_flags.count(False)
        runs = sum(
            1
            for i in range(1, len(delivered_flags))
            if not delivered_flags[i] and not delivered_flags[i - 1]
        )
        assert losses / len(delivered_flags) == pytest.approx(0.2, abs=0.05)
        # P(loss | previous lost) ~ 1 - 1/burst_length = 0.875 >> 0.2
        assert runs / losses > 0.5

    def test_corruption_writes_truncated_lines(self, tmp_path):
        path = tmp_path / "corrupt"
        faults = ChannelFaults(corrupt_rate=0.2)
        with SegmentedTraceStore(path) as store:
            with FaultyChannel(store, faults, seed=2) as channel:
                for i in range(100):
                    channel.append(report_at(float(i)))
        counters = channel.counters
        assert counters.corrupted > 0
        with pytest.raises(TraceFormatError) as err:
            list(SegmentedTraceReader(path))
        assert "line" in str(err.value)
        reader = SegmentedTraceReader(path, tolerant=True)
        good = list(reader)
        assert len(good) == counters.delivered
        assert reader.health.parse_failures == counters.corrupted

    def test_corruption_without_raw_store_drops(self):
        store = InMemoryTraceStore()  # no append_line
        faults = ChannelFaults(corrupt_rate=0.5)
        with FaultyChannel(store, faults, seed=4) as channel:
            for i in range(200):
                channel.append(report_at(float(i)))
        c = channel.counters
        assert c.corrupted > 0
        assert len(store) == c.delivered


class TestTruncatedFinalLine:
    def _write_truncated(self, trace_dir):
        trace_dir.mkdir()
        path = trace_dir / "seg-00000001.jsonl"
        with open(path, "w") as fh:
            fh.write(report_at(1.0).to_json() + "\n")
            fh.write(report_at(2.0).to_json() + "\n")
            fh.write(report_at(3.0).to_json()[:25])  # killed mid-write
        return path

    def test_strict_raises_naming_line(self, tmp_path):
        path = self._write_truncated(tmp_path / "trunc")
        with pytest.raises(TraceTruncatedError) as err:
            list(SegmentedTraceReader(tmp_path / "trunc"))
        assert "line 3" in str(err.value)
        assert str(path) in str(err.value)

    def test_tolerant_skips_and_counts(self, tmp_path):
        self._write_truncated(tmp_path / "trunc")
        reader = SegmentedTraceReader(tmp_path / "trunc", tolerant=True)
        reports = list(reader)
        assert [r.time for r in reports] == [1.0, 2.0]
        assert reader.health.truncated_lines == 1
        assert reader.health.parse_failures == 0
        assert reader.health.dirty


class TestTruncatedGzipTail:
    """A collector killed mid-write leaves a gzip stream without its
    end-of-stream marker; the stdlib raises ``EOFError`` mid-iteration,
    which must surface as a counted truncation, not a crash."""

    def _write_torn_gzip(self, trace_dir, n=200):
        import os

        with SegmentedTraceStore(trace_dir, compress=True, flush_every=10) as store:
            for i in range(n):
                store.append(report_at(float(i), ip=i + 1))
        # Cut into the final deflate block: the stream now ends before
        # its end-of-stream marker, exactly what a kill mid-write leaves.
        (path,) = SegmentedTraceReader(trace_dir).segment_paths()
        os.truncate(path, path.stat().st_size - 30)

    def test_tolerant_counts_truncation_and_keeps_prefix(self, tmp_path):
        path = tmp_path / "torn"
        self._write_torn_gzip(path)
        reader = SegmentedTraceReader(path, tolerant=True)
        reports = list(reader)
        # Everything the damaged stream can still decode survives.
        assert len(reports) > 150
        assert [r.time for r in reports] == [float(i) for i in range(len(reports))]
        assert reader.health.truncated_lines == 1
        assert reader.health.parse_failures == 0

    def test_strict_raises_truncated_error(self, tmp_path):
        path = tmp_path / "torn"
        self._write_torn_gzip(path)
        with pytest.raises(TraceTruncatedError) as err:
            list(SegmentedTraceReader(path))
        assert "tolerant=True" in str(err.value)


class TestTolerantReader:
    def test_duplicates_dropped_exactly(self, tmp_path):
        path = tmp_path / "dup"
        with SegmentedTraceStore(path) as store:
            for i in range(10):
                store.append(report_at(float(i), ip=1))
                store.append(report_at(float(i), ip=1))  # exact re-delivery
        reader = SegmentedTraceReader(path, tolerant=True)
        reports = list(reader)
        assert len(reports) == 10
        assert reader.health.duplicates == 10
        assert reader.health.records_ok == 10
        assert reader.health.lines_read == 20

    def test_quarantines_garbage_values(self, tmp_path):
        path = tmp_path / "garbage"
        bad = report_at(5.0).to_json().replace('"rr":400.0', '"rr":NaN')
        with SegmentedTraceStore(path) as store:
            store.append(report_at(1.0))
            store.append_line(bad)
            store.append(report_at(9.0))
        reader = SegmentedTraceReader(path, tolerant=True)
        reports = list(reader)
        assert [r.time for r in reports] == [1.0, 9.0]
        assert reader.health.quarantined == 1

    def test_health_resets_each_iteration(self, tmp_path):
        path = tmp_path / "dup"
        with SegmentedTraceStore(path) as store:
            store.append(report_at(1.0))
            store.append(report_at(1.0))
        reader = SegmentedTraceReader(path, tolerant=True)
        list(reader)
        list(reader)
        assert reader.health.duplicates == 1  # not 2: per-pass counters

    @pytest.mark.parametrize("records_per_segment", [2, 100])
    def test_duplicate_straddling_segment_boundary_dropped(
        self, tmp_path, records_per_segment
    ):
        # The original ends segment 1 and its re-delivery starts segment
        # 2: one dedup window spans the whole pass, so the boundary
        # does not hide the duplicate.
        path = tmp_path / "dup"
        with SegmentedTraceStore(
            path, records_per_segment=records_per_segment
        ) as store:
            for t in (1.0, 2.0, 2.0, 3.0):
                store.append(report_at(t))
        reader = SegmentedTraceReader(path, tolerant=True)
        assert [r.time for r in reader] == [1.0, 2.0, 3.0]
        assert reader.health.duplicates == 1
        assert reader.health.records_ok == 3


class TestSanitize:
    def test_local_reorder_repaired(self):
        times = [0.0, 30.0, 10.0, 40.0, 20.0, 50.0, 700.0, 710.0]
        health = TraceHealth()
        out = list(
            sanitize((report_at(t) for t in times), slack_s=100.0, health=health)
        )
        assert [r.time for r in out] == sorted(times)
        assert health.reordered == 2
        assert health.max_reorder_depth_s == 20.0
        assert health.quarantined == 0

    def test_hopelessly_late_quarantined(self):
        times = [0.0, 500.0, 1000.0, 5.0]  # 5.0 behind released output
        health = TraceHealth()
        out = list(
            sanitize((report_at(t) for t in times), slack_s=100.0, health=health)
        )
        assert [r.time for r in out] == [0.0, 500.0, 1000.0]
        assert health.quarantined == 1

    def test_invalid_slack(self):
        with pytest.raises(ValueError):
            list(sanitize([], slack_s=0.0))


class TestTolerantWindows:
    def test_reordered_stream_windows_cleanly(self):
        times = [0.0, 650.0, 500.0, 700.0, 1300.0]  # 500 after 650
        reports = [report_at(t) for t in times]
        with pytest.raises(ValueError):
            list(iter_windows(reports, 600.0))
        health = TraceHealth()
        windows = list(
            iter_windows(sanitize(reports, slack_s=600.0, health=health), 600.0)
        )
        assert [w for w, _ in windows] == [0.0, 600.0, 1200.0]
        assert [len(rs) for _, rs in windows] == [2, 2, 1]
        assert health.reordered == 1


class TestTolerantReadEndToEnd:
    def test_combined_health_and_reiterability(self, tmp_path):
        path = tmp_path / "dirty"
        faults = ChannelFaults(
            loss_rate=0.05,
            duplicate_rate=0.05,
            reorder_rate=0.05,
            corrupt_rate=0.02,
        )
        with SegmentedTraceStore(path) as store:
            with FaultyChannel(store, faults, seed=13) as channel:
                for i in range(2000):
                    channel.append(report_at(float(i * 10), ip=i % 40))
        trace = SegmentedTraceReader(path, tolerant=True, slack_s=300.0)
        first = [r.time for r in trace]
        assert first == sorted(first)
        h = trace.health
        assert h.dirty
        assert h.parse_failures == channel.counters.corrupted
        assert h.reordered > 0
        assert h.duplicates > 0
        second = [r.time for r in trace]
        assert second == first  # re-iterable, same result


class TestStoreModes:
    def test_create_refuses_existing(self, tmp_path):
        path = tmp_path / "t"
        with SegmentedTraceStore(path) as store:
            store.append(report_at(1.0))
        with pytest.raises(FileExistsError):
            SegmentedTraceStore(path)

    def test_append_extends(self, tmp_path):
        path = tmp_path / "t"
        with SegmentedTraceStore(path) as store:
            store.append(report_at(1.0))
        with SegmentedTraceStore.recover(path) as store:
            store.append(report_at(2.0))
        assert [r.time for r in SegmentedTraceReader(path)] == [1.0, 2.0]

    def test_invalid_flush_every(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentedTraceStore(tmp_path / "x", flush_every=0)
        with pytest.raises(ValueError):
            SegmentedTraceStore(tmp_path / "y", records_per_segment=0)

    def test_flush_every_leaves_readable_prefix(self, tmp_path):
        path = tmp_path / "t"
        store = SegmentedTraceStore(path, flush_every=10)
        for i in range(25):
            store.append(report_at(float(i)))
        # not closed: the flushed prefix (>= 20 records) is readable
        visible = list(SegmentedTraceReader(path, tolerant=True))
        assert len(visible) >= 20
        store.close()
        assert len(list(SegmentedTraceReader(path))) == 25
