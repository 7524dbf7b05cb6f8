"""The seeded fault injector on the datagram path of the ingest client.

``ReportClient`` drives :class:`~repro.traces.faults.FaultInjector` per
datagram: loss, then truncation, then duplication.  The datagram-only
injector it replaced is kept below as :class:`ParentDatagramInjector`,
the oracle for draw identity: the same seed must give the same drops,
cuts and copies, so ingest campaigns and their checkpoints keep their
streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

import pytest

from repro.ingest import ReportClient
from repro.ingest.framing import Frame, encode_frame
from repro.traces import ChannelFaults, FaultInjector
from tests.ingest.helpers import report_at

# -- oracle: the datagram injector as it was before it was folded in -----


@dataclass(frozen=True)
class ParentDatagramFaults:
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    truncate_rate: float = 0.0


@dataclass
class ParentCounters:
    offered: int = 0
    dropped: int = 0
    dropped_reports: int = 0
    truncated: int = 0
    truncated_reports: int = 0
    duplicated: int = 0


@dataclass
class ParentDecision:
    payloads: list[bytes] = field(default_factory=list)
    dropped: bool = False
    truncated: bool = False


class ParentDatagramInjector:
    def __init__(self, faults: ParentDatagramFaults, *, seed: int = 0) -> None:
        self.faults = faults
        self.counters = ParentCounters()
        self._rng = random.Random(seed)

    def apply(self, payload: bytes, report_count: int) -> ParentDecision:
        c = self.counters
        c.offered += 1
        decision = ParentDecision()
        f = self.faults
        if f.loss_rate > 0.0 and self._rng.random() < f.loss_rate:
            c.dropped += 1
            c.dropped_reports += report_count
            decision.dropped = True
            return decision
        if f.truncate_rate > 0.0 and self._rng.random() < f.truncate_rate:
            cut = self._rng.randint(1, max(1, len(payload) - 1))
            decision.payloads.append(payload[:cut])
            decision.truncated = True
            c.truncated += 1
            c.truncated_reports += report_count
            return decision
        decision.payloads.append(payload)
        if f.duplicate_rate > 0.0 and self._rng.random() < f.duplicate_rate:
            decision.payloads.append(payload)
            c.duplicated += 1
        return decision

    def state(self) -> dict[str, Any]:
        return {"rng": self._rng.getstate(), "counters": vars(self.counters).copy()}


# -- harness -------------------------------------------------------------


class RecordingSocket:
    """Stands in for the client's connected datagram socket."""

    def __init__(self) -> None:
        self.sent: list[bytes] = []

    def send(self, data: bytes) -> int:
        self.sent.append(bytes(data))
        return len(data)


def udp_client(faults: ChannelFaults | None, *, seed: int, batch_size: int = 1):
    """A pure-UDP client whose datagrams land in a :class:`RecordingSocket`."""
    client = ReportClient(
        "127.0.0.1", 9, transport="udp", batch_size=batch_size, faults=faults, seed=seed
    )
    sock = RecordingSocket()
    client._udp_sock = sock  # type: ignore[assignment]
    return client, sock


def send_frames(client: ReportClient, start: int, count: int) -> list[bytes]:
    """Append ``count`` reports as one-report frames; each frame's encoding."""
    payloads = []
    for i in range(start, start + count):
        report = report_at(float(i), ip=i)
        frame = Frame(shard_id=client.shard_id, seq=client._next_seq, lines=(report.to_json(),))
        payloads.append(encode_frame(frame))
        client.append(report)
    return payloads


def oracle_sends(oracle: ParentDatagramInjector, payloads: list[bytes]) -> list[bytes]:
    return [p for payload in payloads for p in oracle.apply(payload, 1).payloads]


# -- tests ---------------------------------------------------------------


class TestConfig:
    @pytest.mark.parametrize("field", ["loss_rate", "duplicate_rate", "corrupt_rate"])
    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, float("nan")])
    def test_rates_validated(self, field, bad):
        with pytest.raises(ValueError):
            ChannelFaults(**{field: bad})

    def test_any_active(self):
        assert not ChannelFaults().any_active
        assert ChannelFaults(loss_rate=0.1).any_active
        assert ChannelFaults(duplicate_rate=0.1).any_active
        assert ChannelFaults(corrupt_rate=0.1).any_active

    def test_reordering_is_refused_on_the_datagram_path(self):
        with pytest.raises(ValueError, match="reorder"):
            ReportClient("127.0.0.1", 9, faults=ChannelFaults(reorder_rate=0.1))


class TestDecisions:
    def test_clean_pass_through(self):
        injector = FaultInjector(ChannelFaults(), seed=1)
        assert not injector.lost()
        assert injector.deliver() == 1
        assert injector.counters.offered == 1
        assert injector.counters.delivered == 1

    def test_certainish_loss_counts_reports(self):
        client, sock = udp_client(ChannelFaults(loss_rate=0.999), seed=1, batch_size=4)
        for i in range(4):
            client.append(report_at(float(i)))
        assert sock.sent == []
        assert client._injector.counters.dropped == 1
        assert client.stats.reports_dropped == 4

    def test_truncation_damages_but_sends(self):
        client, sock = udp_client(ChannelFaults(corrupt_rate=0.999), seed=1, batch_size=3)
        reports = [report_at(float(i)) for i in range(3)]
        for report in reports:
            client.append(report)
        whole = encode_frame(Frame(0, 1, tuple(r.to_json() for r in reports)))
        assert len(sock.sent) == 1
        assert whole.startswith(sock.sent[0]) and 1 <= len(sock.sent[0]) < len(whole)
        assert client._injector.counters.corrupted == 1
        assert client.stats.reports_corrupted == 3

    def test_duplication_emits_two_copies(self):
        client, sock = udp_client(ChannelFaults(duplicate_rate=0.999), seed=1, batch_size=2)
        for i in range(2):
            client.append(report_at(float(i)))
        assert len(sock.sent) == 2 and sock.sent[0] == sock.sent[1]
        assert client._injector.counters.duplicated == 1

    def test_counters_reconcile_over_many_datagrams(self):
        faults = ChannelFaults(loss_rate=0.2, duplicate_rate=0.1, corrupt_rate=0.1)
        client, _ = udp_client(faults, seed=42, batch_size=5)
        for i in range(2500):
            client.append(report_at(float(i)))
        c = client._injector.counters
        s = client.stats
        assert c.offered == 500
        assert s.reports_dropped == 5 * c.dropped
        assert s.reports_corrupted == 5 * c.corrupted
        assert c.delivered + c.corrupted == c.offered - c.dropped + c.duplicated
        assert c.dropped > 0 and c.corrupted > 0 and c.duplicated > 0
        # Every report is delivered intact or counted damaged.
        assert client.reports_delivered + s.reports_dropped + s.reports_corrupted == 2500


class TestDeterminism:
    def test_same_seed_same_verdicts(self):
        faults = ChannelFaults(loss_rate=0.3, duplicate_rate=0.2, corrupt_rate=0.2)

        def run():
            client, sock = udp_client(faults, seed=7, batch_size=2)
            for i in range(400):
                client.append(report_at(float(i)))
            return sock.sent

        assert run() == run()

    def test_state_restore_resumes_the_stream(self):
        faults = ChannelFaults(loss_rate=0.3, corrupt_rate=0.2)
        a, a_sock = udp_client(faults, seed=9)
        for i in range(50):
            a.append(report_at(float(i)))
        state = a.checkpoint_state()
        cut = len(a_sock.sent)
        for i in range(50, 100):
            a.append(report_at(float(i)))

        b, b_sock = udp_client(faults, seed=0)  # wrong seed on purpose
        b.restore_checkpoint(state)
        assert b._injector.counters.offered == 50  # counters rewound to the snapshot
        for i in range(50, 100):
            b.append(report_at(float(i)))
        assert b_sock.sent == a_sock.sent[cut:] and b_sock.sent
        assert b.stats == a.stats


#: Datagram-path configurations and their pre-unification equivalents.
ORACLE_CONFIGS = {
    "loss": (ChannelFaults(loss_rate=0.2), ParentDatagramFaults(loss_rate=0.2)),
    "truncate": (
        ChannelFaults(corrupt_rate=0.15),
        ParentDatagramFaults(truncate_rate=0.15),
    ),
    "duplicate": (
        ChannelFaults(duplicate_rate=0.25),
        ParentDatagramFaults(duplicate_rate=0.25),
    ),
    "all": (
        ChannelFaults(loss_rate=0.2, duplicate_rate=0.1, corrupt_rate=0.1),
        ParentDatagramFaults(loss_rate=0.2, duplicate_rate=0.1, truncate_rate=0.1),
    ),
}
DATAGRAMS = 5000


class TestParentInjectorIdentity:
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    @pytest.mark.parametrize("seed", [0, 1, 7, 2006, 31337])
    def test_same_drops_cuts_and_copies(self, name, seed):
        faults, parent_faults = ORACLE_CONFIGS[name]
        client, sock = udp_client(faults, seed=seed)
        payloads = send_frames(client, 0, DATAGRAMS)
        oracle = ParentDatagramInjector(parent_faults, seed=seed ^ 0x5EED)
        assert sock.sent == oracle_sends(oracle, payloads)
        o = oracle.counters
        c = client._injector.counters
        assert (c.offered, c.dropped, c.corrupted, c.duplicated) == (
            o.offered, o.dropped, o.truncated, o.duplicated
        )
        assert client.stats.reports_dropped == o.dropped_reports
        assert client.stats.reports_corrupted == o.truncated_reports

    def test_parent_checkpoint_state_continues_the_parent_stream(self):
        faults, parent_faults = ORACLE_CONFIGS["all"]
        seed = 11
        oracle = ParentDatagramInjector(parent_faults, seed=seed ^ 0x5EED)
        source, _ = udp_client(faults, seed=seed)
        oracle_sends(oracle, send_frames(source, 0, 300))
        # The client state an older build checkpointed: the datagram
        # injector's own state, and no injected-damage stats.
        state = source.checkpoint_state()
        state["injector"] = oracle.state()
        for name in ("reports_dropped", "reports_corrupted"):
            del state["stats"][name]

        resumed, sock = udp_client(faults, seed=0)
        resumed.restore_checkpoint(state)
        assert resumed.stats.reports_dropped == oracle.counters.dropped_reports
        assert resumed.stats.reports_corrupted == oracle.counters.truncated_reports
        assert resumed._injector.counters.corrupted == oracle.counters.truncated
        payloads = send_frames(resumed, 300, 2000)
        assert sock.sent == oracle_sends(oracle, payloads)
        assert resumed.stats.reports_dropped == oracle.counters.dropped_reports
