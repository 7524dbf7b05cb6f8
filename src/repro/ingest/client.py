"""Hardened reporter client for the trace ingestion service.

:class:`ReportClient` is a drop-in :class:`~repro.traces.store.TraceStore`
(it has ``append(report)``), so a simulator shard pointed at an ingest
server instead of a local file changes nothing upstream.  Internally it
batches reports into frames and ships them with the failure handling a
real collection path needs:

- **at-least-once TCP** — every frame is held in a bounded
  :class:`~repro.ingest.spill.SpillBuffer` until the server durably
  acknowledges it; resends after reconnects are deduplicated
  server-side by (shard, seq), so storage stays exactly-once;
- **bounded exponential backoff** with deterministic seeded jitter
  between connection attempts (mirroring the simulator's tracker-retry
  policy);
- a **circuit breaker**: after ``breaker_threshold`` consecutive TCP
  failures the client stops hammering the dead server and degrades to
  fire-and-forget UDP copies (kept in the spill buffer — if a UDP copy
  lands, the later TCP resend acks as a duplicate); a half-open probe
  after ``breaker_cooldown_s`` closes the breaker again;
- **counted loss, never silent**: spill-buffer overflow, injected
  datagram damage, server rejections and reports still unacked at close
  all fold into :class:`~repro.traces.health.TraceHealth`.

Pure ``transport="udp"`` mode reproduces the paper's actual collection
channel — fire-and-forget datagrams, at-most-once — with every datagram
the seeded :class:`~repro.traces.faults.FaultInjector` drops or
truncates counted, in reports, in :class:`ClientStats`.

Wall-clock time is read only through the injectable
:class:`~repro.obs.clock.Clock` seam (QA rule REP002 scopes this
package), so backoff schedules and breaker transitions are exactly
testable with a manual clock.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.ingest.framing import Frame, encode_frame
from repro.ingest.spill import SpillBuffer
from repro.obs.clock import Clock, WallClock
from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.traces.faults import ChannelFaults, FaultInjector
from repro.traces.health import TraceHealth
from repro.traces.records import PeerReport

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass
class ClientStats:
    """Counters describing everything the client did with its reports."""

    reports_enqueued: int = 0  # reports handed to append()
    reports_acked: int = 0  # durably stored server-side (OK or DUP ack)
    reports_rejected: int = 0  # server replied ERR (frame quarantined)
    reports_udp: int = 0  # shipped in fire-and-forget datagrams
    reports_dropped: int = 0  # in datagrams the fault injector dropped
    reports_corrupted: int = 0  # in datagrams it truncated (quarantined)
    reports_lost_inflight: int = 0  # datagram socket refused: never sent
    reports_unsent: int = 0  # still unacked when the client closed
    frames_sent_tcp: int = 0
    frames_sent_udp: int = 0
    tcp_failures: int = 0  # connect/send/ack failures
    reconnects: int = 0  # successful connections after a failure
    retry_after: int = 0  # backpressure responses honoured
    breaker_opens: int = 0


class ReportClient:
    """Batches reports into frames and ships them to an ingest server."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        udp_port: int | None = None,
        shard_id: int = 0,
        transport: str = "tcp",
        batch_size: int = 64,
        timeout_s: float = 2.0,
        retry_base_s: float = 0.05,
        retry_cap_s: float = 2.0,
        retry_jitter: float = 0.5,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 5.0,
        sync_max_attempts: int = 8,
        spill_max_reports: int = 100_000,
        faults: ChannelFaults | None = None,
        seed: int = 0,
        clock: Clock | None = None,
        sleep: Callable[[float], None] | None = None,
        obs: AnyObserver = NULL_OBSERVER,
    ) -> None:
        if transport not in ("tcp", "udp"):
            raise ValueError(f"transport must be 'tcp' or 'udp', got {transport!r}")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if faults is not None and faults.reorder_rate > 0.0:
            raise ValueError("the datagram path does not reorder: reorder_rate must be 0")
        self.host = host
        self.port = port
        self.udp_port = udp_port if udp_port is not None else port
        self.shard_id = shard_id
        self.transport = transport
        self.batch_size = batch_size
        self.timeout_s = timeout_s
        self.retry_base_s = retry_base_s
        self.retry_cap_s = retry_cap_s
        self.retry_jitter = retry_jitter
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.sync_max_attempts = sync_max_attempts
        self.stats = ClientStats()
        self._spill = SpillBuffer(max_reports=spill_max_reports)
        self._injector = (
            FaultInjector(faults, seed=seed ^ 0x5EED)
            if faults is not None and faults.any_active
            else None
        )
        self._clock: Clock = clock if clock is not None else WallClock()
        self._sleep = sleep if sleep is not None else time.sleep
        self._obs = obs
        self._rng = random.Random(seed)  # backoff jitter only
        self._batch: list[str] = []
        self._next_seq = 1
        self._failures = 0  # consecutive TCP failures
        self._next_attempt = 0.0  # earliest clock time for the next TCP try
        self._breaker = BREAKER_CLOSED
        self._breaker_opened_at = 0.0
        self._udp_shipped: set[int] = set()  # seqs already degraded to UDP
        self._sock: socket.socket | None = None
        self._udp_sock: socket.socket | None = None
        self._closed = False
        self._folded_dropped = 0
        self._folded_overflow = 0

    # -- TraceStore surface -------------------------------------------------

    def append(self, report: PeerReport) -> None:
        """Buffer one report; ships a frame when the batch fills."""
        if self._closed:
            raise RuntimeError("cannot append to a closed ReportClient")
        self._batch.append(report.to_json())
        self.stats.reports_enqueued += 1
        if len(self._batch) >= self.batch_size:
            self._seal_batch()
            self._pump()

    def flush(self) -> None:
        """Seal the current partial batch and attempt delivery (non-blocking)."""
        self._seal_batch()
        self._pump()

    def sync(self) -> bool:
        """Seal and try hard to drain every pending frame (durable barrier).

        Blocks through up to ``sync_max_attempts`` consecutive failures
        (sleeping out the backoff between them), then gives up, leaving
        the remainder in the spill buffer — a later sync, the campaign
        checkpoint, or the resend-on-reconnect path picks them up.
        Returns whether everything pending was acked.
        """
        self._seal_batch()
        if self.transport == "udp":
            self._pump()
            return len(self._spill) == 0
        attempts = 0
        while self._spill and attempts < self.sync_max_attempts:
            before = self._failures
            wait = self._next_attempt - self._clock.now()
            if wait > 0:
                self._sleep(wait)
            if self._breaker == BREAKER_OPEN:
                # sync() is the durability barrier: it may probe early
                # rather than wait out the whole cooldown.
                self._breaker = BREAKER_HALF_OPEN
            self._pump()
            if self._failures > before:
                attempts += 1
        return len(self._spill) == 0

    def close(self) -> None:
        """Final sync, then account anything still undelivered (idempotent)."""
        if self._closed:
            return
        self.sync()
        self.stats.reports_unsent += self._spill.report_count
        self._closed = True
        self._teardown_tcp()
        if self._udp_sock is not None:
            self._udp_sock.close()
            self._udp_sock = None

    def __enter__(self) -> ReportClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- accounting ---------------------------------------------------------

    @property
    def breaker_state(self) -> str:
        """Current circuit-breaker state (closed / open / half-open)."""
        if (
            self._breaker == BREAKER_OPEN
            and self._clock.now() - self._breaker_opened_at >= self.breaker_cooldown_s
        ):
            return BREAKER_HALF_OPEN
        return self._breaker

    @property
    def pending_reports(self) -> int:
        """Reports sealed but not yet durably acknowledged."""
        return self._spill.report_count + len(self._batch)

    @property
    def reports_delivered(self) -> int:
        """Reports the server holds, as far as this client can know.

        Over TCP, those it acknowledged; over pure UDP, those sent in
        intact datagrams (at-most-once: loopback delivers them all).
        """
        s = self.stats
        if self.transport == "tcp":
            return s.reports_acked
        return s.reports_udp - s.reports_corrupted - s.reports_lost_inflight

    def fold_into(self, health: TraceHealth) -> TraceHealth:
        """Fold this client's counted losses into ``health``.

        Safe to call repeatedly: like
        :meth:`~repro.traces.server.TraceServer.fold_into`, only the
        delta since the previous fold is added.
        """
        s = self.stats
        dropped = (
            s.reports_dropped
            + s.reports_corrupted
            + s.reports_lost_inflight
            + s.reports_rejected
            + s.reports_unsent
        )
        overflow = self._spill.overflow_reports
        health.server_dropped += dropped - self._folded_dropped
        health.spill_overflow += overflow - self._folded_overflow
        self._folded_dropped = dropped
        self._folded_overflow = overflow
        return health

    # -- batching -----------------------------------------------------------

    def _seal_batch(self) -> None:
        if not self._batch:
            return
        frame = Frame(
            shard_id=self.shard_id,
            seq=self._next_seq,
            lines=tuple(self._batch),
        )
        self._next_seq += 1
        self._batch = []
        self._spill.push(frame)
        self._udp_shipped.discard(frame.seq)

    # -- delivery -----------------------------------------------------------

    def _pump(self) -> None:
        """One delivery pass over the pending frames (never raises)."""
        if self.transport == "udp":
            self._pump_udp(pop=True)
            return
        state = self.breaker_state
        if state == BREAKER_OPEN:
            self._pump_udp(pop=False)  # degraded best-effort copies
            return
        now = self._clock.now()
        if state == BREAKER_CLOSED and now < self._next_attempt:
            return
        for frame in self._spill.pending():
            if not self._send_tcp(frame):
                break

    def _pump_udp(self, *, pop: bool) -> None:
        """Ship pending frames as datagrams.

        With ``pop=True`` (pure UDP transport) each frame leaves the
        spill buffer immediately — at-most-once, the paper's semantics
        — so any loss the client can observe must be counted here.
        With ``pop=False`` (breaker-open degradation) frames stay
        pending for the durable TCP path to ack later; each is shipped
        at most once per breaker episode and losses need no counting.
        """
        for frame in self._spill.pending():
            if not pop and frame.seq in self._udp_shipped:
                continue
            self._send_udp(frame, count_losses=pop)
            if pop:
                self._spill.ack(frame.seq)
            else:
                self._udp_shipped.add(frame.seq)

    def _send_udp(self, frame: Frame, *, count_losses: bool) -> None:
        payload = encode_frame(frame)
        payloads = [payload]
        damaged = False
        injector = self._injector
        if injector is not None:
            if injector.lost():
                payloads, damaged = [], True
                if count_losses:
                    self.stats.reports_dropped += frame.count
            elif (copies := injector.deliver()) == 0:
                payloads, damaged = [injector.truncate(payload)], True
                if count_losses:
                    self.stats.reports_corrupted += frame.count
            else:
                payloads *= copies
        sent_any = False
        for data in payloads:
            try:
                self._udp_socket().send(data)
                sent_any = True
            except OSError:
                # A refused/failed datagram socket is recreated lazily;
                # the next send gets a fresh verdict.
                if self._udp_sock is not None:
                    self._udp_sock.close()
                    self._udp_sock = None
        if payloads:
            self.stats.frames_sent_udp += 1
            self.stats.reports_udp += frame.count
        if count_losses and not damaged and not sent_any:
            # Connection-refused: the server is gone and the frame
            # provably never left this host.
            self.stats.reports_lost_inflight += frame.count

    def _udp_socket(self) -> socket.socket:
        if self._udp_sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            # Connected, so ICMP port-unreachable surfaces as an OSError
            # on a later send instead of vanishing silently.
            sock.connect((self.host, self.udp_port))
            sock.settimeout(self.timeout_s)
            self._udp_sock = sock
        return self._udp_sock

    def _send_tcp(self, frame: Frame) -> bool:
        """Send one frame and wait for its verdict; False stops the pump."""
        try:
            sock = self._tcp_socket()
            sock.sendall(encode_frame(frame))
            line = self._read_line(sock)
        except OSError:
            self._on_tcp_failure()
            return False
        self.stats.frames_sent_tcp += 1
        verb, _, arg = line.partition(" ")
        if verb in ("OK", "DUP"):
            self._on_tcp_success()
            if self._spill.ack(frame.seq) is not None:
                self.stats.reports_acked += frame.count
            self._udp_shipped.discard(frame.seq)
            if self._obs.enabled:
                self._obs.count("ingest.client.reports_acked", frame.count)
            return True
        if verb == "RETRY-AFTER":
            # Backpressure, not failure: the server is alive but full.
            try:
                hint = float(arg)
            except ValueError:
                hint = self.retry_base_s
            self.stats.retry_after += 1
            self._next_attempt = self._clock.now() + max(hint, self.retry_base_s)
            return False
        if verb == "ERR":
            # The server quarantined this frame; resending identical
            # bytes would loop forever, so the loss is counted instead.
            self._spill.ack(frame.seq)
            self.stats.reports_rejected += frame.count
            return True
        self._on_tcp_failure()
        return False

    def _tcp_socket(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
            if self._failures > 0:
                self.stats.reconnects += 1
        return self._sock

    def _read_line(self, sock: socket.socket) -> str:
        chunks = bytearray()
        while True:
            b = sock.recv(1)
            if not b:
                raise ConnectionError("server closed the connection mid-reply")
            if b == b"\n":
                return chunks.decode("utf-8", "replace")
            chunks += b
            if len(chunks) > 4096:
                raise ConnectionError("oversized reply line")

    # -- failure / breaker policy -------------------------------------------

    def backoff_delay(self, failures: int) -> float:
        """The post-failure delay: bounded exponential, seeded jitter.

        Mirrors the tracker-retry policy in the simulator
        (``base * 2^failures`` capped, stretched by up to
        ``retry_jitter`` of itself from the client's own seeded RNG).
        """
        delay = min(
            self.retry_base_s * (2.0 ** max(0, failures - 1)),
            self.retry_cap_s,
        )
        if self.retry_jitter > 0.0:
            delay *= 1.0 + self.retry_jitter * self._rng.random()
        return delay

    def _on_tcp_failure(self) -> None:
        effective = self.breaker_state  # before mutating anything
        self._teardown_tcp()
        self._failures += 1
        self.stats.tcp_failures += 1
        now = self._clock.now()
        self._next_attempt = now + self.backoff_delay(self._failures)
        if effective == BREAKER_HALF_OPEN or (
            effective == BREAKER_CLOSED
            and self._failures >= self.breaker_threshold
        ):
            # A failed half-open probe re-opens with a fresh cooldown.
            self.stats.breaker_opens += 1
            self._breaker = BREAKER_OPEN
            self._breaker_opened_at = now
            if self._obs.enabled:
                self._obs.count("ingest.client.breaker_opens")

    def _on_tcp_success(self) -> None:
        self._failures = 0
        self._breaker = BREAKER_CLOSED
        self._next_attempt = 0.0

    def _teardown_tcp(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # -- campaign checkpoint integration --------------------------------------

    def checkpoint_state(self) -> dict[str, Any]:
        """Everything needed to resume reporting draw- and seq-identically."""
        return {
            "next_seq": self._next_seq,
            "batch": list(self._batch),
            "spill": self._spill.state(),
            "stats": vars(self.stats).copy(),
            "failures": self._failures,
            "breaker": self._breaker,
            "next_attempt": self._next_attempt,
            "breaker_opened_at": self._breaker_opened_at,
            "udp_shipped": sorted(self._udp_shipped),
            "rng": self._rng.getstate(),
            "injector": (
                self._injector.state() if self._injector is not None else None
            ),
        }

    def restore_checkpoint(self, state: dict[str, Any]) -> None:
        """Restore :meth:`checkpoint_state` output into this client."""
        self._next_seq = state["next_seq"]
        self._batch = list(state["batch"])
        self._spill = SpillBuffer.restore(state["spill"])
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)
        self._failures = state["failures"]
        self._breaker = state["breaker"]
        # .get(): tolerate checkpoints written before these were captured.
        self._next_attempt = state.get("next_attempt", 0.0)
        self._breaker_opened_at = state.get("breaker_opened_at", 0.0)
        self._udp_shipped = set(state.get("udp_shipped", ()))
        self._rng.setstate(state["rng"])
        injected = state["injector"]
        if injected is not None and self._injector is not None:
            self._injector.restore(injected)
            # Older builds counted injected damage with the injector.
            legacy = injected["counters"]
            if "dropped_reports" in legacy:
                self.stats.reports_dropped = legacy["dropped_reports"]
                self.stats.reports_corrupted = legacy["truncated_reports"]
