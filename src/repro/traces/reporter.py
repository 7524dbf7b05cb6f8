"""Peer-side report construction.

``build_report`` snapshots a peer's state into a :class:`PeerReport`
and advances the per-link 'reported' counters, so the next report
carries only the segments exchanged since this one — the differential
counting the paper's measurement code performs on each peer.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.traces.records import PartnerRecord, PeerReport, _new_report

if TYPE_CHECKING:  # avoid a circular runtime import with repro.simulator
    from repro.simulator.peer import Peer

_new_tuple: Callable[..., Any] = tuple.__new__


def port_for_peer(peer_id: int) -> int:
    """Deterministic synthetic TCP/UDP port for a peer."""
    return 20_000 + (peer_id % 40_000)


def build_report(peer: Peer, now: float) -> PeerReport:
    """Snapshot ``peer`` into a report and roll its reported counters."""
    partners: list[PartnerRecord] = []
    append = partners.append
    for pid, link in peer.partners.items():
        sent = link.sent_segments
        recv = link.recv_segments
        # tuple.__new__ skips the named tuple's Python-level constructor;
        # the port is port_for_peer(pid), inlined.
        append(
            _new_tuple(
                PartnerRecord,
                (
                    link.partner_ip,
                    20_000 + (pid % 40_000),
                    int(sent - link.reported_sent),
                    int(recv - link.reported_recv),
                ),
            )
        )
        link.reported_sent = sent
        link.reported_recv = recv
    return _new_report(
        now,
        peer.ip,
        peer.channel_id,
        peer.buffer_fill,
        peer.playback_position,
        peer.download_kbps,
        peer.upload_kbps,
        peer.recv_rate_kbps,
        peer.sent_rate_kbps,
        tuple(partners),
    )
