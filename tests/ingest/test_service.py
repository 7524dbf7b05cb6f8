"""Live-service tests: admission, dedup, backpressure, queries, drain.

Every test here runs the real :class:`TraceIngestService` event loop in
a thread and exercises it over actual loopback sockets — UDP datagrams,
TCP frame streams and the line-oriented query API.
"""

import json
import socket
import threading

import pytest

from repro.ingest import ReportClient, ShardCursor, TraceIngestService, encode_frame
from repro.ingest.framing import HEADER_SIZE
from repro.traces import SegmentedTraceReader, SegmentedTraceStore
from tests.ingest.helpers import (
    LiveService,
    frame_of,
    read_reply_line,
    recv_exact,
    report_at,
    wait_until,
)


class TestShardCursor:
    def test_contiguous_absorption(self):
        cursor = ShardCursor()
        for seq in (1, 2, 3):
            cursor.add(seq)
        assert cursor.contiguous == 3
        assert cursor.extra == set()
        assert cursor.seen(2) and not cursor.seen(4)

    def test_out_of_order_extras_absorb_later(self):
        cursor = ShardCursor()
        cursor.add(3)
        cursor.add(1)
        assert cursor.contiguous == 1 and cursor.extra == {3}
        cursor.add(2)  # plugs the gap: watermark jumps over the extra
        assert cursor.contiguous == 3 and cursor.extra == set()

    def test_add_is_idempotent(self):
        cursor = ShardCursor()
        cursor.add(1)
        cursor.add(1)
        assert cursor.contiguous == 1

    def test_state_restore_round_trip(self):
        cursor = ShardCursor()
        for seq in (1, 2, 5):
            cursor.add(seq)
        clone = ShardCursor.restore(cursor.state())
        assert clone.contiguous == 2 and clone.extra == {5}
        assert clone.seen(5) and not clone.seen(3)


class TestTcpIngestion:
    def test_reports_stored_and_queryable(self, tmp_path):
        with LiveService(tmp_path / "t") as live:
            client = ReportClient("127.0.0.1", live.tcp_port, batch_size=5)
            for i in range(12):
                client.append(report_at(float(i), ip=i))
            assert client.sync() is True
            client.close()

            health = live.query_json("HEALTH")
            assert health["records"] == 12
            assert health["stats"]["frames_admitted"] == 3
            assert health["health"]["records_ok"] == 12

            windows = live.query_json("WINDOWS 600")
            assert windows == [{"start": 0.0, "reports": 12}]

            channel = live.query_json("CHANNEL 0 0 100")
            assert channel["reports"] == 12
            assert channel["distinct_peers"] == 12

            metrics = live.query("METRICS")
            assert "observability disabled" in metrics
            live.shutdown()

        # The drain sealed everything and published the summary.
        reports = list(SegmentedTraceReader(tmp_path / "t", tolerant=True))
        assert [r.peer_ip for r in reports] == list(range(12))
        summary = json.loads((tmp_path / "t" / "health.json").read_text())
        assert summary["ingest"] is True
        assert summary["trace_records"] == 12
        journal = json.loads((tmp_path / "t" / "admissions.json").read_text())
        assert journal["records"] == 12
        assert journal["shards"]["0"]["contiguous"] == 3

    def test_duplicate_frames_acknowledged_not_restored(self, tmp_path):
        with LiveService(tmp_path / "t") as live:
            payload = encode_frame(frame_of(1, 4))
            with socket.create_connection(("127.0.0.1", live.tcp_port), timeout=10) as conn:
                conn.sendall(payload)
                assert read_reply_line(conn) == "OK 1"
                conn.sendall(payload)
                assert read_reply_line(conn) == "DUP 1"
                conn.sendall(payload)
                assert read_reply_line(conn) == "DUP 1"
            health = live.query_json("HEALTH")
            assert health["records"] == 4
            assert health["stats"]["frames_duplicate"] == 2
            assert health["health"]["duplicates"] == 8

    def test_damaged_frame_quarantined_without_losing_sync(self, tmp_path):
        with LiveService(tmp_path / "t") as live:
            with socket.create_connection(("127.0.0.1", live.tcp_port), timeout=10) as conn:
                conn.sendall(encode_frame(frame_of(1, 2)))
                assert read_reply_line(conn) == "OK 1"
                # Flip a payload bit: header still honest about length,
                # so the server can skip exactly this frame.
                damaged = bytearray(encode_frame(frame_of(2, 2)))
                damaged[-1] ^= 0x01
                conn.sendall(bytes(damaged))
                assert read_reply_line(conn).startswith("ERR")
                conn.sendall(encode_frame(frame_of(3, 2, t0=100.0)))
                assert read_reply_line(conn) == "OK 3"
            health = live.query_json("HEALTH")
            assert health["records"] == 4  # frames 1 and 3, not the damage
            assert health["stats"]["frames_quarantined"] == 1
            assert health["health"]["parse_failures"] == 1

    def test_garbage_first_bytes_drop_the_connection(self, tmp_path):
        # A stream that never spoke the magic is a query; a stream that
        # breaks it mid-flight is unrecoverable garbage.
        with LiveService(tmp_path / "t") as live:
            with socket.create_connection(("127.0.0.1", live.tcp_port), timeout=10) as conn:
                conn.sendall(encode_frame(frame_of(1, 1)))
                assert read_reply_line(conn) == "OK 1"
                conn.sendall(b"MGTI" + b"\xff" * (HEADER_SIZE - 4) + b"junk")
                assert conn.recv(1) == b""  # server hung up
            assert live.query_json("HEALTH")["stats"]["frames_quarantined"] == 1

    def test_unknown_query_gets_err_line(self, tmp_path):
        with LiveService(tmp_path / "t") as live:
            assert live.query("FROBNICATE").startswith("ERR unknown command")

    def test_port_file_announces_bound_ports(self, tmp_path):
        # Written durably (fsync + rename) off the loop thread.
        port_file = tmp_path / "ports.json"
        with LiveService(tmp_path / "t", port_file=port_file) as live:
            wait_until(
                lambda: port_file.exists() or not live._thread.is_alive(),
                what="the port file",
            )
            assert json.loads(port_file.read_text()) == {
                "tcp": live.tcp_port,
                "udp": live.udp_port,
            }


class TestUdpIngestion:
    def test_datagrams_stored(self, tmp_path):
        with LiveService(tmp_path / "t") as live:
            client = ReportClient(
                "127.0.0.1",
                live.tcp_port,
                udp_port=live.udp_port,
                transport="udp",
                batch_size=4,
            )
            for i in range(8):
                client.append(report_at(float(i), ip=i))
            client.close()
            wait_until(
                lambda: len(live.service.store) == 8,
                what="datagrams to commit",
            )
            assert live.service.stats.frames_udp == 2

    def test_garbage_and_truncated_datagrams_quarantined(self, tmp_path):
        with LiveService(tmp_path / "t") as live:
            live.send_datagram(b"not a frame at all")
            live.send_datagram(encode_frame(frame_of(1, 3))[:-5])  # truncated
            damaged = bytearray(encode_frame(frame_of(2, 3)))
            damaged[HEADER_SIZE] ^= 0xFF  # bit-flipped payload
            live.send_datagram(bytes(damaged))
            wait_until(
                lambda: live.service.stats.frames_quarantined == 3,
                what="quarantine counters",
            )
            health = live.query_json("HEALTH")
            assert health["records"] == 0
            assert health["health"]["parse_failures"] == 3

    def test_duplicate_datagram_stored_once(self, tmp_path):
        with LiveService(tmp_path / "t") as live:
            payload = encode_frame(frame_of(1, 3))
            live.send_datagram(payload)
            # Wait for the commit to retire the admission (not merely
            # for the records to appear): a copy arriving while the
            # first is still in flight joins it instead of counting.
            wait_until(
                lambda: live.service.stats.commits >= 1,
                what="first copy committed",
            )
            live.send_datagram(payload)
            live.send_datagram(payload)
            wait_until(
                lambda: live.service.stats.frames_duplicate == 2,
                what="duplicates counted",
            )
            assert len(live.service.store) == 3


class TestBackpressure:
    def test_high_watermark_sheds_udp_and_rejects_tcp(self, tmp_path):
        service = TraceIngestService.open(
            tmp_path / "t",
            queue_high_reports=20,
            queue_low_reports=5,
            commit_batch_frames=1,
            retry_after_s=0.05,
        )
        # Stall the committer: fsync blocks until the test releases it.
        release = threading.Event()
        original_sync = service.store.sync

        def stalled_sync():
            release.wait(timeout=30)
            original_sync()

        service.store.sync = stalled_sync
        with LiveService(service=service) as live:
            # Two 10-report datagrams (shard 7, distinct from the TCP
            # client's shard 0) fill the queue to the watermark; the
            # first is stuck inside the stalled commit.
            live.send_datagram(encode_frame(frame_of(1, 10, shard=7)))
            live.send_datagram(encode_frame(frame_of(2, 10, shard=7, t0=100.0)))
            wait_until(
                lambda: service.stats.frames_admitted == 2,
                what="queue to reach the high watermark",
            )
            # A third datagram is shed, deterministically and counted.
            live.send_datagram(encode_frame(frame_of(3, 10, shard=7, t0=200.0)))
            wait_until(
                lambda: service.stats.frames_shed == 1, what="UDP shed"
            )
            assert service.health.server_dropped == 10

            # A TCP producer is told to back off instead.
            client = ReportClient(
                "127.0.0.1",
                service.tcp_port,
                batch_size=5,
                retry_base_s=0.01,
                timeout_s=5.0,
            )
            for i in range(5):
                client.append(report_at(300.0 + i, ip=i))
            wait_until(
                lambda: client.stats.retry_after >= 1,
                what="RETRY-AFTER to reach the client",
            )
            assert service.stats.retry_after_sent >= 1
            assert client.pending_reports == 5

            release.set()  # the writer drains below the low watermark
            assert client.sync() is True
            client.close()
            wait_until(lambda: len(service.store) == 25, what="all commits")
            health = live.query_json("HEALTH")
            assert health["records"] == 25  # 10 + 10 + 5; the shed 10 gone
            assert health["health"]["server_dropped"] == 10


class TestCrashRecovery:
    def test_open_rolls_back_to_the_journal_cut(self, tmp_path):
        # Simulate a kill between the fsync and the journal write: the
        # store holds more records than the journal admits.
        directory = tmp_path / "t"
        store = SegmentedTraceStore(directory, records_per_segment=2)
        for i in range(5):
            store.append(report_at(float(i), ip=i))
        store.flush()  # killed here: durable tail, stale journal
        (directory / "admissions.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "records": 3,
                    "shards": {"0": {"contiguous": 2, "extra": []}},
                }
            )
        )
        service = TraceIngestService.open(directory)
        assert len(service.store) == 3
        cursor = service._cursors[0]
        assert cursor.seen(2) and not cursor.seen(3)
        service.store.close()

    def test_reopened_service_deduplicates_resends(self, tmp_path):
        directory = tmp_path / "t"
        with LiveService(directory) as live:
            with socket.create_connection(("127.0.0.1", live.tcp_port), timeout=10) as conn:
                conn.sendall(encode_frame(frame_of(1, 3)))
                assert read_reply_line(conn) == "OK 1"
            live.shutdown()
        # The client never saw the ack (say) and resends after restart.
        with LiveService(directory) as live:
            with socket.create_connection(("127.0.0.1", live.tcp_port), timeout=10) as conn:
                conn.sendall(encode_frame(frame_of(1, 3)))
                assert read_reply_line(conn) == "DUP 1"
                conn.sendall(encode_frame(frame_of(2, 3, t0=50.0)))
                assert read_reply_line(conn) == "OK 2"
            assert live.query_json("HEALTH")["records"] == 6
            live.shutdown()
        reports = list(SegmentedTraceReader(directory, tolerant=True))
        assert len(reports) == 6

    def test_corrupt_journal_treated_as_fresh_cursorless_open(self, tmp_path):
        directory = tmp_path / "t"
        store = SegmentedTraceStore(directory, records_per_segment=2)
        for i in range(4):
            store.append(report_at(float(i)))
        store.close()
        (directory / "admissions.json").write_text("{torn mid-wri")
        service = TraceIngestService.open(directory)
        # No journal to trust: keep every durable record, empty cursors.
        assert len(service.store) == 4
        assert service._cursors == {}
        service.store.close()


class TestValidation:
    def test_watermark_ordering_enforced(self, tmp_path):
        store = SegmentedTraceStore(tmp_path / "t")
        with pytest.raises(ValueError, match="queue_low_reports"):
            TraceIngestService(
                store, {}, queue_high_reports=10, queue_low_reports=10
            )
        store.close()
