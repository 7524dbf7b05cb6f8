"""Property-based tests for trace record serialisation."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traces import PartnerRecord, PeerReport

partner_records = st.builds(
    PartnerRecord,
    ip=st.integers(0, 2**32 - 1),
    port=st.integers(0, 65535),
    sent_segments=st.integers(0, 10_000),
    recv_segments=st.integers(0, 10_000),
)

reports = st.builds(
    PeerReport,
    time=st.floats(0, 1e7, allow_nan=False),
    peer_ip=st.integers(0, 2**32 - 1),
    channel_id=st.integers(0, 800),
    buffer_fill=st.floats(0, 1, allow_nan=False),
    playback_position=st.integers(0, 10**7),
    download_capacity_kbps=st.floats(0, 1e5, allow_nan=False),
    upload_capacity_kbps=st.floats(0, 1e5, allow_nan=False),
    recv_rate_kbps=st.floats(0, 1e5, allow_nan=False),
    sent_rate_kbps=st.floats(0, 1e5, allow_nan=False),
    partners=st.lists(partner_records, max_size=20).map(tuple),
)


@given(reports)
def test_json_roundtrip_preserves_identity_fields(report):
    clone = PeerReport.from_json(report.to_json())
    assert clone.time == pytest.approx(report.time)
    assert clone.peer_ip == report.peer_ip
    assert clone.channel_id == report.channel_id
    assert clone.playback_position == report.playback_position
    assert clone.partners == report.partners


@given(reports)
def test_json_roundtrip_rates_within_rounding(report):
    clone = PeerReport.from_json(report.to_json())
    assert clone.recv_rate_kbps == pytest.approx(report.recv_rate_kbps, abs=0.06)
    assert clone.sent_rate_kbps == pytest.approx(report.sent_rate_kbps, abs=0.06)
    assert clone.buffer_fill == pytest.approx(report.buffer_fill, abs=1e-4)


@given(reports, st.integers(0, 100))
def test_active_classification_consistent(report, threshold):
    sups = report.active_suppliers(threshold)
    recs = report.active_receivers(threshold)
    assert all(p.recv_segments >= threshold for p in sups)
    assert all(p.sent_segments >= threshold for p in recs)
    assert set(sups) <= set(report.partners)
    assert set(recs) <= set(report.partners)


@given(reports)
def test_json_is_single_line(report):
    assert "\n" not in report.to_json()


def dumps_oracle(report):
    """``PeerReport.to_json`` as it was written with ``json.dumps``."""
    obj = {
        "t": report.time,
        "ip": report.peer_ip,
        "ch": report.channel_id,
        "bf": round(report.buffer_fill, 4),
        "pp": report.playback_position,
        "dc": round(report.download_capacity_kbps, 1),
        "uc": round(report.upload_capacity_kbps, 1),
        "rr": round(report.recv_rate_kbps, 1),
        "sr": round(report.sent_rate_kbps, 1),
        "p": list(map(tuple, report.partners)),
    }
    return json.dumps(obj, separators=(",", ":"))


#: Every float ``repr`` spells differently: non-finite, signed zero,
#: subnormal, and past 1e16 (exponent form).
edge_floats = st.sampled_from(
    [
        math.nan,
        math.inf,
        -math.inf,
        -0.0,
        0.0,
        5e-324,
        2.2250738585072014e-308,
        1e16,
        1.2345678901234567e17,
        -3.5e22,
        1.7976931348623157e308,
    ]
)
any_floats = st.one_of(edge_floats, st.floats(), st.floats(-1e5, 1e5))
big_ints = st.integers(-(2**64), 2**64)
any_partners = st.builds(PartnerRecord, big_ints, big_ints, big_ints, big_ints)

encoder_reports = st.builds(
    PeerReport,
    time=st.one_of(any_floats, st.integers(0, 2**64)),
    peer_ip=big_ints,
    channel_id=big_ints,
    buffer_fill=any_floats,
    playback_position=big_ints,
    download_capacity_kbps=any_floats,
    upload_capacity_kbps=any_floats,
    recv_rate_kbps=any_floats,
    sent_rate_kbps=any_floats,
    partners=st.one_of(
        st.just(()),
        st.lists(any_partners, min_size=50, max_size=50).map(tuple),
        st.lists(any_partners, max_size=50).map(tuple),
    ),
)


@given(encoder_reports)
def test_to_json_equals_json_dumps(report):
    assert report.to_json() == dumps_oracle(report)
