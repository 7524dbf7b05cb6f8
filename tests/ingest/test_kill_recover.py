"""Kill/recover harness for the networked ingestion path.

The server here is a real ``repro serve`` subprocess with a PID worth
killing.  The scenarios SIGKILL it mid-campaign, restart it on the same
ports, and assert the two invariants the whole design exists for:

- **exactly-once storage** — after the reporter drains, every report it
  ever enqueued is on disk exactly once (resends deduplicated);
- **counted loss** — under injected datagram damage, client sent ==
  server stored + every client- and server-counted loss, with no slack.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.experiments import run_campaign
from repro.ingest import ReportClient
from repro.simulator import CheckpointManager, SystemConfig, UUSeeSystem
from repro.traces import ChannelFaults, SegmentedTraceReader, SegmentedTraceStore
from tests.ingest.helpers import free_port, report_at, wait_until

SRC = Path(__file__).resolve().parents[2] / "src"


class ServerProcess:
    """A killable ``repro serve`` subprocess bound to fixed ports."""

    def __init__(self, trace_dir: Path, tcp_port: int, udp_port: int) -> None:
        self.trace_dir = Path(trace_dir)
        self.tcp_port = tcp_port
        self.udp_port = udp_port
        self.proc: subprocess.Popen | None = None

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        port_file = self.trace_dir.parent / f"ports-{self.tcp_port}.json"
        port_file.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--trace-dir", str(self.trace_dir),
                "--tcp-port", str(self.tcp_port),
                "--udp-port", str(self.udp_port),
                "--port-file", str(port_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        wait_until(
            lambda: port_file.exists() and port_file.read_text().strip(),
            timeout_s=30,
            what="server to publish its ports",
        )
        assert json.loads(port_file.read_text()) == {
            "tcp": self.tcp_port,
            "udp": self.udp_port,
        }

    def sigkill(self) -> None:
        assert self.proc is not None
        self.proc.kill()
        self.proc.wait(timeout=30)

    def sigterm_and_wait(self) -> None:
        """Graceful drain: what the CI smoke job and operators do."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=30)
        assert self.proc.returncode == 0

    def terminate_if_running(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


@pytest.fixture
def server(tmp_path):
    proc = ServerProcess(tmp_path / "server", free_port(), free_port())
    proc.start()
    yield proc
    proc.terminate_if_running()


def stored_reports(trace_dir: Path):
    return list(SegmentedTraceReader(trace_dir, tolerant=True))


def query_health(tcp_port: int) -> dict:
    import socket

    with socket.create_connection(("127.0.0.1", tcp_port), timeout=10) as conn:
        conn.sendall(b"HEALTH\n")
        data = bytearray()
        while not data.endswith(b"\n"):
            chunk = conn.recv(4096)
            if not chunk:
                break
            data += chunk
    return json.loads(data.decode("utf-8"))


class TestExactlyOnceAcrossSigkill:
    def test_reports_survive_a_server_crash_exactly_once(self, tmp_path, server):
        client = ReportClient(
            "127.0.0.1",
            server.tcp_port,
            udp_port=server.udp_port,
            batch_size=5,
            timeout_s=1.0,
            retry_base_s=0.02,
            retry_cap_s=0.2,
            breaker_threshold=3,
            breaker_cooldown_s=0.2,
            sync_max_attempts=2,
            seed=11,
        )
        for i in range(40):
            client.append(report_at(float(i), ip=i))
        assert client.sync() is True

        server.sigkill()  # mid-campaign crash

        # The reporter keeps producing into its spill; best-effort sync
        # fails fast and gives up without losing anything.
        for i in range(40, 80):
            client.append(report_at(float(i), ip=i))
        assert client.sync() is False
        assert client.stats.tcp_failures > 0
        assert client.pending_reports == 40

        server.start()  # same ports, same directory: crash recovery
        deadline = time.monotonic() + 30
        while not client.sync() and time.monotonic() < deadline:
            pass  # breaker may need a cooldown lap or two
        assert client.pending_reports == 0
        client.close()
        server.sigterm_and_wait()

        reports = stored_reports(server.trace_dir)
        assert [r.peer_ip for r in reports] == list(range(80))  # exactly once
        assert client.stats.reports_acked == 80
        assert client.stats.reconnects >= 1
        summary = json.loads((server.trace_dir / "health.json").read_text())
        assert summary["trace_records"] == 80

    def test_udp_loss_reconciles_exactly(self, tmp_path, server):
        # Pure-UDP transport with injected loss, duplication and
        # truncation: at-most-once, but every missing report accounted.
        client = ReportClient(
            "127.0.0.1",
            server.tcp_port,
            udp_port=server.udp_port,
            transport="udp",
            batch_size=4,
            faults=ChannelFaults(
                loss_rate=0.2, duplicate_rate=0.1, corrupt_rate=0.1
            ),
            seed=5,
        )
        total = 200
        for i in range(total):
            client.append(report_at(float(i), ip=i))
        client.close()
        # Loopback delivers every datagram that was actually sent, but
        # only once the event loop has read them off the socket: wait
        # for the server to see the full wire count before draining,
        # otherwise the drain races the receive buffer.
        c = client._injector.counters
        wire_datagrams = client.stats.frames_sent_udp + c.duplicated
        wait_until(
            lambda: query_health(server.tcp_port)["stats"]["frames_udp"]
            >= wire_datagrams,
            timeout_s=30,
            what="server to receive every datagram",
        )
        server.sigterm_and_wait()

        stored = len(stored_reports(server.trace_dir))
        destroyed = client.stats.reports_dropped + client.stats.reports_corrupted
        assert client.stats.reports_enqueued == total
        # The accounting identity, with zero slack: loopback delivers
        # everything the injector let through.
        assert stored + destroyed + client.stats.reports_lost_inflight == total
        assert destroyed > 0  # the faults actually fired
        summary = json.loads((server.trace_dir / "health.json").read_text())
        # Truncated datagrams were quarantined server-side (frame
        # granularity); duplicated ones acknowledged but stored once.
        assert summary["health"]["parse_failures"] == c.corrupted
        assert summary["stats"]["reports_stored"] == stored


ROUND = 600.0
TOTAL_ROUNDS = 12
CAMPAIGN_KW = dict(
    base_concurrency=60.0,
    seed=2006,
    with_flash_crowd=False,
    checkpoint_every_rounds=3,
)


def ingest_client(server: ServerProcess) -> ReportClient:
    return ReportClient(
        "127.0.0.1",
        server.tcp_port,
        udp_port=server.udp_port,
        batch_size=16,
        timeout_s=2.0,
        retry_base_s=0.02,
        retry_cap_s=0.2,
        breaker_cooldown_s=0.2,
        seed=2006,
    )


def content_sha(trace_dir: Path) -> str:
    store = SegmentedTraceStore.recover(trace_dir)
    try:
        return store.content_sha256()
    finally:
        store.close()


class TestResumedIngestCampaign:
    def test_resumed_campaign_reconnects_and_matches_twin(self, tmp_path):
        # Twin A: an uninterrupted ingest campaign against server A.
        server_a = ServerProcess(tmp_path / "srv-a", free_port(), free_port())
        server_a.start()
        try:
            days = TOTAL_ROUNDS * ROUND / 86_400.0
            twin = run_campaign(
                tmp_path / "local-a",
                days=days,
                ingest=ingest_client(server_a),
                **CAMPAIGN_KW,
            )
            server_a.sigterm_and_wait()
        finally:
            server_a.terminate_if_running()

        # Twin B: the same campaign, interrupted at round 7, its server
        # SIGKILLed, both restarted — then resumed from the checkpoint.
        server_b = ServerProcess(tmp_path / "srv-b", free_port(), free_port())
        server_b.start()
        try:
            config = dataclasses.replace(
                SystemConfig(
                    seed=2006, base_concurrency=60.0, flash_crowd=None
                ),
                trace_loss_rate=0.0,  # matches run_campaign's ingest mode
            )
            abandoned = ingest_client(server_b)
            system = UUSeeSystem(config, abandoned)
            manager = CheckpointManager(tmp_path / "local-b" / "checkpoints")
            system.run(
                seconds=7 * ROUND,
                checkpoint=manager,
                checkpoint_every_rounds=3,
            )
            # The campaign process dies here, taking its partial batch
            # with it.  (No flush: sealing a partial batch would create
            # a frame boundary the resumed replay cannot reproduce, and
            # (shard, seq) dedup assumes boundaries are deterministic.)
            server_b.sigkill()
            server_b.start()

            resumed = run_campaign(
                tmp_path / "local-b",
                days=TOTAL_ROUNDS * ROUND / 86_400.0,
                resume=True,
                ingest=ingest_client(server_b),
                **CAMPAIGN_KW,
            )
            server_b.sigterm_and_wait()
        finally:
            server_b.terminate_if_running()

        assert resumed.resumed_from_round == 6
        assert resumed.rounds_completed == TOTAL_ROUNDS == twin.rounds_completed
        # The replayed rounds resent their frames; the server threw the
        # duplicates away, so the stored traces are twins.
        assert content_sha(server_a.trace_dir) == content_sha(server_b.trace_dir)
        assert twin.trace_records == len(stored_reports(server_a.trace_dir))
