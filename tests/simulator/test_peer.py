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


def peer_values(peer):
    """Every slot but ``partners``, plus the partner list as
    ``(pid, every link slot)`` pairs in partner order."""
    values = {name: getattr(peer, name) for name in Peer.__slots__}
    partners = values.pop("partners")
    links = [(pid, slot_values(link)) for pid, link in partners.items()]
    return values, links


def legacy_peer_pickle(obj):
    """Pickle ``obj`` as checkpoints did before ``Peer.__reduce__``: every
    ``Peer`` in the default slots protocol, its links by ``Link.__reduce__``."""

    class LegacyPickler(pickle.Pickler):
        def reducer_override(self, value):
            if type(value) is Peer:
                slots = {name: getattr(value, name) for name in Peer.__slots__}
                return (copyreg.__newobj__, (Peer,), (None, slots))
            return NotImplemented

    buf = io.BytesIO()
    LegacyPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


def busy_peer():
    """A peer with counters, suppliers and partners inserted out of order."""
    peer = make_peer(7, is_china=False, isp="Overseas")
    for n, pid in enumerate([31, 4, 19, 8]):
        link = make_link(
            rtt_ms=20.0 + n, penalty=rtt_penalty(20.0 + n), partner_ip=500 + pid
        )
        link.sent_segments, link.recv_segments = 3.5 * n, 2.25 * n
        link.reported_sent, link.reported_recv = 1.0 * n, 0.5 * n
        peer.add_partner(pid, link)
    peer.remove_partner(19)
    peer.add_partner(19, make_link(partner_ip=519))  # re-added: now last
    peer.suppliers = {4, 31}
    peer.health, peer.buffer_fill = 0.75, 0.5
    peer.next_report, peer.next_tracker_retry = 1234.0, 99.5
    peer.registered, peer.volunteered, peer.depth = True, True, 3
    return peer


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

    def test_legacy_slots_pickle_restores(self):
        peer = busy_peer()
        blob = legacy_peer_pickle(peer)
        assert b"suppliers" in blob  # slot names: the old protocol's dict
        clone = pickle.loads(blob)
        assert type(clone) is Peer
        assert peer_values(clone) == peer_values(peer)
        assert list(clone.partners) == [31, 4, 8, 19]
        assert clone.suppliers == {4, 31}

    def test_pickle_roundtrip_is_lossless(self):
        peer = busy_peer()
        blob = pickle.dumps(peer, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"suppliers" not in blob  # positional, not a slot dict
        clone = pickle.loads(blob)
        assert type(clone) is Peer
        assert peer_values(clone) == peer_values(peer)
        assert list(clone.partners) == [31, 4, 8, 19]
        assert all(type(link) is Link for link in clone.partners.values())
        # Smaller than the old format, which carries every slot name.
        assert len(blob) < len(legacy_peer_pickle(peer))

    def test_initial_report_schedule_unset(self):
        peer = make_peer()
        assert peer.next_report == float("inf")
