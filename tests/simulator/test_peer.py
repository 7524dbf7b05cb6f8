"""Unit tests for Peer and Link state."""

import copyreg
import io
import pickle

import pytest

from repro.simulator.peer import Link, Peer, rtt_penalty


def make_peer(peer_id=1, **overrides):
    fields = {
        "ip": 1000 + peer_id,
        "isp": "China Telecom",
        "is_china": True,
        "channel_id": 0,
        "upload_kbps": 800.0,
        "download_kbps": 4000.0,
        "class_name": "cable",
        "join_time": 100.0,
        "depart_time": 5000.0,
    }
    fields.update(overrides)
    return Peer(peer_id, **fields)


def make_link(**overrides):
    fields = {
        "rtt_ms": 30.0,
        "cap_kbps": 600.0,
        "est_kbps": 240.0,
        "penalty": rtt_penalty(30.0),
        "established_at": 12.0,
        "partner_ip": 42,
    }
    fields.update(overrides)
    return Link(**fields)


def slot_values(link):
    return {name: getattr(link, name) for name in Link.__slots__}


def legacy_pickle(link, drop=()):
    """Pickle ``link`` as checkpoints did before ``Link.__reduce__``: the
    default slots protocol, ``copyreg.__newobj__`` plus ``(None, slots)``."""
    slots = {k: v for k, v in slot_values(link).items() if k not in drop}

    class LegacyPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is Link:
                return (copyreg.__newobj__, (Link,), (None, slots))
            return NotImplemented

    buf = io.BytesIO()
    LegacyPickler(buf, protocol=2).dump(link)
    return buf.getvalue()


class TestLink:
    def test_partner_ip_recorded(self):
        link = make_link(partner_ip=42)
        assert link.partner_ip == 42

    def test_counters_start_at_zero(self):
        link = make_link()
        assert (link.sent_segments, link.recv_segments) == (0.0, 0.0)
        assert (link.reported_sent, link.reported_recv) == (0.0, 0.0)

    def test_rtt_penalty_is_quadratic(self):
        assert rtt_penalty(0.0) == 1.0
        assert rtt_penalty(60.0) == 2.0
        assert rtt_penalty(120.0) == 5.0

    def test_pickle_roundtrip_keeps_every_slot(self):
        link = make_link()
        link.sent_segments, link.recv_segments = 25.5, 13.25
        link.reported_sent, link.reported_recv = 20.0, 13.0
        clone = pickle.loads(pickle.dumps(link, protocol=pickle.HIGHEST_PROTOCOL))
        assert slot_values(clone) == slot_values(link)

    def test_pickle_is_a_positional_tuple(self):
        func, args = make_link().__reduce__()
        assert func is Link
        assert len(args) == len(Link.__slots__) == 10
        assert isinstance(func(*args), Link)

    @pytest.mark.parametrize("with_penalty", [True, False])
    def test_legacy_slots_pickle_restores(self, with_penalty):
        link = make_link(rtt_ms=90.0, penalty=rtt_penalty(90.0))
        link.sent_segments, link.recv_segments = 7.0, 9.5
        link.reported_sent, link.reported_recv = 3.0, 4.0
        blob = legacy_pickle(link, drop=() if with_penalty else ("penalty",))
        assert b"penalty" in blob if with_penalty else b"penalty" not in blob
        clone = pickle.loads(blob)
        assert type(clone) is Link
        assert slot_values(clone) == slot_values(link)
        assert clone.penalty == rtt_penalty(90.0)


class TestPeer:
    def test_age(self):
        peer = make_peer(join_time=100.0)
        assert peer.age(700.0) == 600.0

    def test_add_remove_partner(self):
        peer = make_peer()
        link = make_link(rtt_ms=20.0, cap_kbps=500.0)
        assert peer.add_partner(2, link)
        assert not peer.add_partner(2, link)  # duplicate
        assert not peer.add_partner(peer.peer_id, link)  # self
        assert peer.partner_count == 1
        peer.suppliers.add(2)
        peer.remove_partner(2)
        assert peer.partner_count == 0
        assert 2 not in peer.suppliers

    def test_remove_missing_partner_is_noop(self):
        peer = make_peer()
        peer.remove_partner(999)  # must not raise

    def test_spare_upload(self):
        peer = make_peer(upload_kbps=500.0)
        peer.sent_rate_kbps = 420.0
        assert peer.spare_upload_kbps() == pytest.approx(80.0)
        peer.sent_rate_kbps = 600.0
        assert peer.spare_upload_kbps() == 0.0

    def test_server_defaults(self):
        server = make_peer(is_server=True)
        assert server.depth == 0
        viewer = make_peer()
        assert viewer.depth == 64  # unknown until supplied

    def test_repr_mentions_kind(self):
        assert "cable" in repr(make_peer())
        assert "server" in repr(make_peer(is_server=True))

    def test_initial_report_schedule_unset(self):
        peer = make_peer()
        assert peer.next_report == float("inf")
