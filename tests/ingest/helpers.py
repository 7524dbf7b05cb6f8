"""Shared fixtures for the ingestion tests: reports, frames, live servers.

The live-service harness runs the real :class:`TraceIngestService` event
loop in a daemon thread and talks to it over actual loopback sockets —
the same failure surface production sees, but inside one process so unit
tests stay fast.  The subprocess harness (used by the kill/recover
tests) lives in ``test_kill_recover.py`` because only those tests need a
killable PID.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from repro.ingest import Frame, TraceIngestService
from repro.ingest.framing import HEADER_SIZE, parse_header
from repro.traces import PartnerRecord, PeerReport


def report_at(t: float, ip: int = 1, channel: int = 0) -> PeerReport:
    return PeerReport(
        time=t,
        peer_ip=ip,
        channel_id=channel,
        buffer_fill=0.5,
        playback_position=int(t),
        download_capacity_kbps=2000.0,
        upload_capacity_kbps=500.0,
        recv_rate_kbps=400.0,
        sent_rate_kbps=100.0,
        partners=(PartnerRecord(ip=9, port=1, sent_segments=1, recv_segments=2),),
    )


def frame_of(seq: int, count: int, *, shard: int = 0, t0: float = 0.0) -> Frame:
    """A frame carrying ``count`` distinct reports starting at time ``t0``."""
    lines = tuple(
        report_at(t0 + i, ip=int(t0) * 1000 + i).to_json() for i in range(count)
    )
    return Frame(shard_id=shard, seq=seq, lines=lines)


def free_port() -> int:
    """Reserve an ephemeral port the OS just proved was free."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_until(predicate, *, timeout_s: float = 10.0, what: str = "condition"):
    """Poll ``predicate`` until truthy; the cross-thread test barrier."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.005)
    raise TimeoutError(f"timed out waiting for {what}")


def recv_exact(conn: socket.socket, n: int) -> bytes:
    data = bytearray()
    while len(data) < n:
        chunk = conn.recv(n - len(data))
        if not chunk:
            raise ConnectionError("peer closed mid-read")
        data += chunk
    return bytes(data)


def read_reply_line(conn: socket.socket) -> str:
    data = bytearray()
    while not data.endswith(b"\n"):
        chunk = conn.recv(1)
        if not chunk:
            raise ConnectionError("peer closed mid-reply")
        data += chunk
    return data.decode("utf-8").strip()


class LiveService:
    """The real ingestion service, running its own loop in a thread."""

    def __init__(
        self, directory=None, *, service=None, port_file=None, **kwargs
    ) -> None:
        if service is None:
            service = TraceIngestService.open(directory, **kwargs)
        self.service = service
        self._thread = threading.Thread(
            target=self.service.run,
            kwargs={"port_file": port_file},
            name="ingest-test-service",
            daemon=True,
        )

    def __enter__(self) -> "LiveService":
        self._thread.start()
        wait_until(
            lambda: self.service.udp_port != 0
            and self.service._writer_task is not None,
            what="service to bind its listeners",
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    @property
    def tcp_port(self) -> int:
        return self.service.tcp_port

    @property
    def udp_port(self) -> int:
        return self.service.udp_port

    def shutdown(self) -> None:
        """Graceful drain via the query API (idempotent)."""
        if self._thread.is_alive():
            try:
                self.query("SHUTDOWN")
            except OSError:
                pass
        self._thread.join(timeout=15)
        assert not self._thread.is_alive(), "service failed to drain"

    def query(self, line: str) -> str:
        with socket.create_connection(
            ("127.0.0.1", self.tcp_port), timeout=10
        ) as conn:
            conn.sendall((line + "\n").encode("utf-8"))
            return read_reply_line(conn)

    def query_json(self, line: str):
        return json.loads(self.query(line))

    def send_datagram(self, payload: bytes) -> None:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.sendto(payload, ("127.0.0.1", self.udp_port))


class ScriptedTcpServer:
    """A fake ingest endpoint replying from a canned verdict script.

    Reads real frames off accepted connections (recording their header
    identity) and answers each with the next scripted line — the
    cheapest way to drive the client through every reply verb without
    timing dependence on a real admission queue.
    """

    def __init__(self, replies: list[str], *, port: int | None = None) -> None:
        self._replies = list(replies)
        self.frames: list[tuple[int, int, int]] = []  # (shard, seq, count)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", port or 0))
        self._sock.listen(8)
        self._sock.settimeout(10.0)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self) -> "ScriptedTcpServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=10)

    def _serve(self) -> None:
        while self._replies:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            try:
                while self._replies:
                    header = parse_header(recv_exact(conn, HEADER_SIZE))
                    recv_exact(conn, header.payload_len)
                    self.frames.append(
                        (header.shard_id, header.seq, header.count)
                    )
                    conn.sendall(self._replies.pop(0).encode("utf-8"))
            except OSError:
                continue  # client tore down; serve the next connection
            finally:
                conn.close()
