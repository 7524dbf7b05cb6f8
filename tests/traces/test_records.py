"""Unit tests for trace records and serialisation."""

import pytest

from repro.traces import (
    PartnerRecord,
    PeerReport,
    SegmentedTraceReader,
    SegmentedTraceStore,
)


def sample_report(**overrides):
    fields = {
        "time": 1234.5,
        "peer_ip": 167772161,
        "channel_id": 3,
        "buffer_fill": 0.75,
        "playback_position": 420,
        "download_capacity_kbps": 2048.0,
        "upload_capacity_kbps": 512.0,
        "recv_rate_kbps": 401.5,
        "sent_rate_kbps": 120.25,
        "partners": (
            PartnerRecord(ip=11, port=20001, sent_segments=15, recv_segments=3),
            PartnerRecord(ip=22, port=20002, sent_segments=0, recv_segments=88),
        ),
    }
    fields.update(overrides)
    return PeerReport(**fields)


class TestSerialisation:
    def test_roundtrip(self):
        report = sample_report()
        clone = PeerReport.from_json(report.to_json())
        assert clone.peer_ip == report.peer_ip
        assert clone.channel_id == report.channel_id
        assert clone.partners == report.partners
        assert clone.recv_rate_kbps == pytest.approx(report.recv_rate_kbps)

    def test_json_is_single_line_compact(self):
        line = sample_report().to_json()
        assert "\n" not in line
        assert ": " not in line  # compact separators

    def test_partner_array_roundtrip(self):
        p = PartnerRecord(ip=5, port=6, sent_segments=7, recv_segments=8)
        assert p.to_array() == [5, 6, 7, 8]
        clone = PeerReport.from_json(sample_report(partners=(p,)).to_json())
        assert clone.partners == (p,)

    def test_json_line_is_pinned(self):
        # The encoding every stored trace and golden trace SHA depends on.
        assert sample_report().to_json() == (
            '{"t":1234.5,"ip":167772161,"ch":3,"bf":0.75,"pp":420,"dc":2048.0,'
            '"uc":512.0,"rr":401.5,"sr":120.2,"p":[[11,20001,15,3],[22,20002,0,88]]}'
        )

    def test_roundtrip_is_equal(self):
        # every float already at its encoded precision
        report = sample_report(sent_rate_kbps=120.5)
        assert PeerReport.from_json(report.to_json()) == report

    def test_malformed_partner_array(self):
        line = sample_report().to_json().replace("[11,20001,15,3]", "[11,20001,15]")
        with pytest.raises(ValueError, match="4 fields"):
            PeerReport.from_json(line)

    def test_three_field_partner_array_counted_by_tolerant_reader(self, tmp_path):
        good = sample_report().to_json()
        bad = sample_report(time=1300.0).to_json().replace(
            "[22,20002,0,88]", "[22,20002,0]"
        )
        path = tmp_path / "arity"
        with SegmentedTraceStore(path) as store:
            store.append_line(good)
            store.append_line(bad)
        reader = SegmentedTraceReader(path, tolerant=True)
        assert [r.time for r in reader] == [1234.5]
        assert reader.health.parse_failures == 1

    def test_empty_partner_list(self):
        report = sample_report(partners=())
        clone = PeerReport.from_json(report.to_json())
        assert clone.partners == ()


class TestPartnerRecord:
    def test_keyword_and_positional_construction_agree(self):
        p = PartnerRecord(ip=5, port=6, sent_segments=7, recv_segments=8)
        assert p == PartnerRecord(5, 6, 7, 8)
        assert (p.ip, p.port, p.sent_segments, p.recv_segments) == (5, 6, 7, 8)

    def test_rejects_attribute_assignment(self):
        p = PartnerRecord(ip=5, port=6, sent_segments=7, recv_segments=8)
        with pytest.raises(AttributeError):
            p.sent_segments = 9
        with pytest.raises(AttributeError):
            p.extra = 1
        assert p.sent_segments == 7


class TestActiveClassification:
    def test_active_suppliers_threshold(self):
        # Paper Sec. 4.2: active supplying partner = received > ~10 segments.
        report = sample_report()
        sups = report.active_suppliers(threshold=10)
        assert [p.ip for p in sups] == [22]

    def test_active_receivers_threshold(self):
        report = sample_report()
        recs = report.active_receivers(threshold=10)
        assert [p.ip for p in recs] == [11]

    def test_partner_both_roles(self):
        both = PartnerRecord(ip=33, port=1, sent_segments=50, recv_segments=50)
        report = sample_report(partners=(both,))
        assert report.active_suppliers() == [both]
        assert report.active_receivers() == [both]

    def test_nonactive_partner(self):
        idle = PartnerRecord(ip=44, port=1, sent_segments=2, recv_segments=9)
        report = sample_report(partners=(idle,))
        assert report.active_suppliers() == []
        assert report.active_receivers() == []
