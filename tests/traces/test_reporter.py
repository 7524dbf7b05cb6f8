"""Unit tests for peer-side report construction."""

from repro.simulator.peer import Link, Peer
from repro.traces import PartnerRecord, build_report, port_for_peer


def make_peer():
    peer = Peer(
        1,
        ip=1001,
        isp="China Telecom",
        is_china=True,
        channel_id=0,
        upload_kbps=800.0,
        download_kbps=4000.0,
        class_name="cable",
        join_time=100.0,
        depart_time=5000.0,
    )
    peer.partners[7] = Link(30.0, 100.0, 50.0, 1.25, 0.0, 4242)
    return peer


class TestBuildReport:
    def test_partner_entry_identity(self):
        report = build_report(make_peer(), 600.0)
        assert report.partners == (PartnerRecord(4242, port_for_peer(7), 0, 0),)
        assert report.time == 600.0 and report.peer_ip == 1001

    def test_report_deltas(self):
        peer = make_peer()
        link = peer.partners[7]
        link.sent_segments = 25.0
        link.recv_segments = 13.0

        def deltas():
            (p,) = build_report(peer, 600.0).partners
            return (p.sent_segments, p.recv_segments)

        assert deltas() == (25, 13)
        assert deltas() == (0, 0)
        link.recv_segments += 7.0
        assert deltas() == (0, 7)

    def test_fractional_segments_truncate_and_carry(self):
        peer = make_peer()
        link = peer.partners[7]
        link.recv_segments = 2.75
        (p,) = build_report(peer, 600.0).partners
        assert p.recv_segments == 2
        assert link.reported_recv == 2.75  # rolled to the exact total
