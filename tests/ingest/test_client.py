"""Reporter-client tests: backoff, breaker, spill accounting, verbs.

Policy tests drive the client against a :class:`ManualClock` with
``sleep=clock.advance``, so retry schedules and breaker transitions are
exact.  Verb tests use real loopback sockets against the scripted
server from ``helpers`` — the client's socket path is the code under
test, only the far side is canned.
"""

import pytest

from repro.ingest import ReportClient
from repro.ingest.client import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
)
from repro.obs.clock import ManualClock
from repro.traces import ChannelFaults, TraceHealth
from tests.ingest.helpers import ScriptedTcpServer, free_port, report_at


def manual_client(port, **kwargs):
    clock = ManualClock()
    defaults = dict(
        batch_size=4,
        timeout_s=0.5,
        retry_base_s=0.05,
        retry_cap_s=2.0,
        breaker_threshold=3,
        breaker_cooldown_s=10.0,
        sync_max_attempts=2,
        seed=7,
        clock=clock,
        sleep=clock.advance,
    )
    defaults.update(kwargs)
    return ReportClient("127.0.0.1", port, **defaults), clock


def count_passes(client, limit=100):
    """Count ``sync``'s delivery passes; raise past ``limit``, so a sync
    that stops counting its passes fails instead of spinning."""
    passes = 0
    pump = client._pump

    def counted():
        nonlocal passes
        passes += 1
        if passes > limit:
            raise AssertionError(f"sync() made more than {limit} passes")
        pump()

    client._pump = counted
    return lambda: passes


class TestValidation:
    def test_bad_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            ReportClient("127.0.0.1", 1, transport="carrier-pigeon")

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            ReportClient("127.0.0.1", 1, batch_size=0)

    def test_append_after_close_raises(self):
        client, _ = manual_client(free_port())
        client.close()
        with pytest.raises(RuntimeError, match="closed"):
            client.append(report_at(1.0))


class TestBackoffSchedule:
    def test_deterministic_for_a_seed(self):
        a, _ = manual_client(1, seed=21)
        b, _ = manual_client(1, seed=21)
        schedule = [a.backoff_delay(n) for n in range(1, 9)]
        assert schedule == [b.backoff_delay(n) for n in range(1, 9)]

    def test_exponential_and_bounded(self):
        client, _ = manual_client(1, retry_jitter=0.0)
        delays = [client.backoff_delay(n) for n in range(1, 10)]
        assert delays[:4] == [0.05, 0.1, 0.2, 0.4]
        assert delays[-1] == client.retry_cap_s  # capped, never unbounded

    def test_jitter_stretches_at_most_by_factor(self):
        client, _ = manual_client(1, retry_jitter=0.5)
        for n in range(1, 10):
            base = min(client.retry_base_s * 2 ** (n - 1), client.retry_cap_s)
            assert base <= client.backoff_delay(n) <= base * 1.5


class TestBreakerPolicy:
    def test_opens_at_threshold_and_cools_down(self):
        client, clock = manual_client(1, breaker_threshold=3)
        client._on_tcp_failure()
        client._on_tcp_failure()
        assert client.breaker_state == BREAKER_CLOSED
        client._on_tcp_failure()
        assert client.breaker_state == BREAKER_OPEN
        assert client.stats.breaker_opens == 1
        clock.advance(9.999)
        assert client.breaker_state == BREAKER_OPEN
        clock.advance(0.001)
        assert client.breaker_state == BREAKER_HALF_OPEN

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        client, clock = manual_client(1, breaker_threshold=3)
        for _ in range(3):
            client._on_tcp_failure()
        clock.advance(10.0)
        assert client.breaker_state == BREAKER_HALF_OPEN
        client._on_tcp_failure()  # the probe itself fails
        assert client.stats.breaker_opens == 2
        assert client.breaker_state == BREAKER_OPEN  # cooldown re-armed
        clock.advance(9.0)
        assert client.breaker_state == BREAKER_OPEN
        clock.advance(1.0)
        assert client.breaker_state == BREAKER_HALF_OPEN

    def test_successful_probe_closes_and_resets(self):
        client, clock = manual_client(1, breaker_threshold=3)
        for _ in range(3):
            client._on_tcp_failure()
        clock.advance(10.0)
        client._on_tcp_success()
        assert client.breaker_state == BREAKER_CLOSED
        assert client._failures == 0


class TestDeadServer:
    def test_failures_spill_and_counted_loss(self):
        # Nothing listens on the reserved port: every connect refuses.
        client, _ = manual_client(
            free_port(), batch_size=2, spill_max_reports=4, breaker_threshold=2
        )
        for i in range(10):
            client.append(report_at(float(i), ip=i))
        # The first seal attempted a connect; the backoff gate (manual
        # clock, so time never passes) blocked every later attempt.
        assert client.stats.tcp_failures == 1
        # The bounded spill evicted the oldest frames, counted.
        assert client._spill.overflow_reports == 6
        client.close()  # sync sleeps out the backoff, fails again, gives up
        assert client.stats.tcp_failures == 3
        assert client.stats.breaker_opens >= 1
        assert client.stats.reports_unsent == 4

        health = TraceHealth()
        client.fold_into(health)
        assert health.spill_overflow == 6
        assert health.server_dropped == 4  # the unsent remainder
        # Delta discipline: folding again adds nothing.
        client.fold_into(health)
        assert health.spill_overflow == 6
        assert health.server_dropped == 4

    def test_breaker_open_degrades_to_udp_copies_once_per_frame(self):
        client, _ = manual_client(free_port(), batch_size=2, breaker_threshold=1)
        client.append(report_at(1.0))
        client.append(report_at(2.0))  # f1: refused -> breaker opens
        assert client.breaker_state == BREAKER_OPEN
        for t in (3.0, 4.0, 5.0, 6.0):  # f2, f3 ship as UDP copies
            client.append(report_at(t))
        assert client.stats.frames_sent_udp == 3  # f1 included on f2's pump
        assert client.stats.reports_udp == 6
        assert client.pending_reports == 6  # copies stay for the TCP path
        client.flush()  # same breaker episode: nothing ships twice
        assert client.stats.frames_sent_udp == 3

    def test_recovery_after_degradation_acks_every_frame(self):
        port = free_port()
        client, _ = manual_client(
            port, batch_size=2, breaker_threshold=1, sync_max_attempts=4
        )
        for t in (1.0, 2.0, 3.0, 4.0):
            client.append(report_at(t))
        assert client.breaker_state == BREAKER_OPEN
        with ScriptedTcpServer(["OK 1\n", "OK 2\n"], port=port):
            assert client.sync() is True  # half-open probe, then drain
        assert client.stats.reports_acked == 4
        assert client.breaker_state == BREAKER_CLOSED
        assert client.pending_reports == 0
        client.close()

    def test_damaged_degraded_copies_are_not_counted_lost(self):
        # A UDP copy sent while the breaker is open stays pending for the
        # TCP path, so dropping or truncating it loses nothing.
        port = free_port()
        client, _ = manual_client(
            port,
            batch_size=2,
            breaker_threshold=1,
            sync_max_attempts=4,
            faults=ChannelFaults(loss_rate=0.5, corrupt_rate=0.5),
        )
        for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            client.append(report_at(t))
        assert client.breaker_state == BREAKER_OPEN
        injected = client._injector.counters
        assert injected.dropped + injected.corrupted == 3  # every copy damaged
        with ScriptedTcpServer(["OK 1\n", "OK 2\n", "OK 3\n"], port=port):
            assert client.sync() is True
        assert client.stats.reports_acked == 6
        assert client.fold_into(TraceHealth()).server_dropped == 0
        client.close()

    def test_sync_gives_up_after_bounded_attempts(self):
        client, _ = manual_client(free_port(), sync_max_attempts=3)
        client.append(report_at(1.0))
        before = client.stats.tcp_failures
        assert client.sync() is False
        assert client.stats.tcp_failures - before == 3
        assert client.pending_reports == 1
        client.close()

    def test_sync_without_clock_progress_gives_up(self):
        # A sleep that never advances the client's clock: after the first
        # refused connect, every pass finds the backoff still running and
        # makes no TCP attempt.  Each such pass counts toward the bound;
        # the pass counter raises instead of letting a regression hang.
        client, _ = manual_client(
            free_port(), sleep=lambda _s: None, sync_max_attempts=4
        )
        client.append(report_at(1.0))
        passes = count_passes(client)
        assert client.sync() is False
        assert passes() == 4
        assert client.stats.tcp_failures == 1  # one real attempt
        assert client.pending_reports == 1
        client.close()

    def test_sync_after_retry_after_without_clock_progress_gives_up(self):
        # RETRY-AFTER is backpressure, not failure: the pass that got it
        # does not count, the waiting passes that follow it do.
        with ScriptedTcpServer(["RETRY-AFTER 0.25\n"]) as server:
            client, _ = manual_client(
                server.port, sleep=lambda _s: None, sync_max_attempts=3
            )
            client.append(report_at(1.0))
            passes = count_passes(client)
            assert client.sync() is False
            assert passes() == 1 + 3
            assert client.stats.retry_after == 1
            assert client.stats.tcp_failures == 0
            client.close()

    def test_close_is_idempotent(self):
        client, _ = manual_client(free_port(), sync_max_attempts=1)
        client.append(report_at(1.0))
        client.close()
        unsent = client.stats.reports_unsent
        client.close()
        assert client.stats.reports_unsent == unsent == 1


class TestReplyVerbs:
    def test_ok_acks_and_clears_spill(self):
        with ScriptedTcpServer(["OK 1\n"]) as server:
            client, _ = manual_client(server.port, batch_size=2)
            client.append(report_at(1.0))
            client.append(report_at(2.0))
            assert client.stats.reports_acked == 2
            assert client.pending_reports == 0
            assert server.frames == [(0, 1, 2)]
            client.close()

    def test_dup_counts_as_acked(self):
        with ScriptedTcpServer(["DUP 1\n"]) as server:
            client, _ = manual_client(server.port, batch_size=2)
            client.append(report_at(1.0))
            client.append(report_at(2.0))
            assert client.stats.reports_acked == 2
            assert client.pending_reports == 0
            client.close()

    def test_err_drops_the_frame_and_counts_rejection(self):
        # Resending a quarantined frame's identical bytes would loop
        # forever; the client must count the loss and move on.
        with ScriptedTcpServer(["ERR checksum mismatch\n", "OK 2\n"]) as server:
            client, _ = manual_client(server.port, batch_size=2)
            for t in (1.0, 2.0, 3.0, 4.0):
                client.append(report_at(t))
            assert client.stats.reports_rejected == 2
            assert client.stats.reports_acked == 2
            assert client.pending_reports == 0
            health = client.fold_into(TraceHealth())
            assert health.server_dropped == 2
            client.close()

    def test_retry_after_backs_off_then_delivers(self):
        with ScriptedTcpServer(["RETRY-AFTER 0.25\n", "OK 1\n"]) as server:
            client, clock = manual_client(server.port, batch_size=2)
            client.append(report_at(1.0))
            client.append(report_at(2.0))
            assert client.stats.retry_after == 1
            assert client.pending_reports == 2  # honoured, not failed
            assert client.stats.tcp_failures == 0
            assert client._next_attempt == pytest.approx(clock.now() + 0.25)
            assert client.sync() is True  # sleeps out the hint, resends
            assert client.stats.reports_acked == 2
            client.close()

    def test_reconnect_after_failure_is_counted(self):
        port = free_port()
        client, clock = manual_client(port, batch_size=2, sync_max_attempts=1)
        client.append(report_at(1.0))
        client.append(report_at(2.0))  # refused: nothing listens yet
        assert client.stats.tcp_failures == 1
        with ScriptedTcpServer(["OK 1\n"], port=port):
            assert client.sync() is True
        assert client.stats.reconnects == 1
        assert client.breaker_state == BREAKER_CLOSED
        client.close()


class TestUdpTransport:
    def test_injected_loss_is_counted_exactly(self):
        # Fire-and-forget into the void, with a near-certain loss rate:
        # the injector must account every report it destroys (the seed
        # makes the exact outcome replayable).
        client, _ = manual_client(
            free_port(),
            transport="udp",
            batch_size=2,
            faults=ChannelFaults(loss_rate=0.999),
        )
        for i in range(10):
            client.append(report_at(float(i)))
        client.close()
        c = client._injector.counters
        assert c.offered == 5
        assert client.stats.reports_dropped >= 8  # deterministic under the seed
        assert client.pending_reports == 0  # at-most-once: nothing pends
        health = client.fold_into(TraceHealth())
        assert health.server_dropped == (
            client.stats.reports_dropped
            + client.stats.reports_corrupted
            + client.stats.reports_lost_inflight
        )


class TestCheckpointRoundTrip:
    def test_state_restores_seq_batch_spill_and_rng(self):
        client, _ = manual_client(
            free_port(), batch_size=3, sync_max_attempts=1
        )
        for i in range(5):  # one sealed (pending) frame + 2 in the batch
            client.append(report_at(float(i), ip=i))
        state = client.checkpoint_state()

        clone, _ = manual_client(free_port(), batch_size=3)
        clone.restore_checkpoint(state)
        assert clone._next_seq == client._next_seq
        assert clone._batch == client._batch
        assert [f.lines for f in clone._spill.pending()] == [
            f.lines for f in client._spill.pending()
        ]
        assert clone.stats.reports_enqueued == 5
        # The jitter stream continues from the same position.
        assert clone.backoff_delay(3) == client.backoff_delay(3)

    def test_breaker_timing_and_udp_dedup_survive_restore(self):
        # Regression for a checkpoint gap (now also caught by the round
        # trip in tests/simulator/test_checkpoint_roundtrip.py): the
        # breaker *state* was captured but not its clock
        # (_breaker_opened_at, _next_attempt) or the UDP dedup set, so a
        # resumed client half-opened immediately and could re-degrade
        # shipped seqs.
        client, clock = manual_client(1, breaker_threshold=3)
        clock.advance(5.0)
        for _ in range(3):
            client._on_tcp_failure()
        assert client.breaker_state == BREAKER_OPEN
        client._udp_shipped.update({2, 4})
        state = client.checkpoint_state()

        clone, clone_clock = manual_client(1, breaker_threshold=3)
        clone.restore_checkpoint(state)
        assert clone._breaker == BREAKER_OPEN
        assert clone._breaker_opened_at == client._breaker_opened_at
        assert clone._next_attempt == client._next_attempt
        assert clone._udp_shipped == {2, 4}
        # The cooldown resumes mid-flight rather than restarting: once
        # the clone's clock reaches the same instants, its transitions
        # match an uninterrupted client's exactly.
        clone_clock.advance(5.0)  # catch up to the checkpoint instant
        clone_clock.advance(9.999)
        assert clone.breaker_state == BREAKER_OPEN
        clone_clock.advance(0.001)
        assert clone.breaker_state == BREAKER_HALF_OPEN

    def test_legacy_checkpoint_without_breaker_timing_keys(self):
        # Checkpoints written before the breaker-timing keys existed
        # must still restore (with the old implicit-reset semantics).
        client, _ = manual_client(1)
        state = client.checkpoint_state()
        for key in ("next_attempt", "breaker_opened_at", "udp_shipped"):
            del state[key]
        clone, _ = manual_client(1)
        clone.restore_checkpoint(state)
        assert clone._next_attempt == 0.0
        assert clone._breaker_opened_at == 0.0
        assert clone._udp_shipped == set()
