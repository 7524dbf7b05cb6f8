"""Property-based tests for trace record serialisation."""

import json
import math
import pickle
from itertools import starmap

import pytest
from hypothesis import HealthCheck, example, given, settings
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


def from_json_oracle(line):
    """``PeerReport.from_json`` as it was written with ``json.loads``,
    a per-partner arity loop and keyword construction."""
    obj = json.loads(line)
    arrays = obj["p"]
    for arr in arrays:
        if len(arr) != 4:
            raise ValueError(f"partner record needs 4 fields, got {len(arr)}")
    return PeerReport(
        time=float(obj["t"]),
        peer_ip=int(obj["ip"]),
        channel_id=int(obj["ch"]),
        buffer_fill=float(obj["bf"]),
        playback_position=int(obj["pp"]),
        download_capacity_kbps=float(obj["dc"]),
        upload_capacity_kbps=float(obj["uc"]),
        recv_rate_kbps=float(obj["rr"]),
        sent_rate_kbps=float(obj["sr"]),
        partners=tuple(starmap(PartnerRecord, arrays)),
    )


SCALAR_KEYS = ("t", "ip", "ch", "bf", "pp", "dc", "uc", "rr", "sr")
#: Lines to damage: any value ``to_json`` can write, few partners.
source_reports = st.builds(
    PeerReport,
    time=any_floats,
    peer_ip=big_ints,
    channel_id=big_ints,
    buffer_fill=any_floats,
    playback_position=big_ints,
    download_capacity_kbps=any_floats,
    upload_capacity_kbps=any_floats,
    recv_rate_kbps=any_floats,
    sent_rate_kbps=any_floats,
    partners=st.lists(any_partners, max_size=4).map(tuple),
)
json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["1.5", "12", "-3", "1e3", "nan", "inf", " 7 ", ""]),
    st.lists(st.integers(0, 9), max_size=6),
    st.dictionaries(st.text(max_size=4), st.integers(0, 9), max_size=5),
)


@st.composite
def report_lines(draw):
    """A ``to_json`` line, or one damaged the ways a trace line can be."""
    report = draw(st.one_of(reports, source_reports))
    line = report.to_json()
    kind = draw(
        st.sampled_from(
            [
                "intact", "partner", "p", "number", "missing",
                "whitespace", "trailing", "top", "truncate",
            ]
        )
    )
    if kind == "intact":
        return line
    if kind == "whitespace":
        pad = st.sampled_from(["", " ", "\t", "\n", "\r\n", "  "])
        return draw(pad) + line + draw(pad)
    if kind == "trailing":
        return line + draw(st.sampled_from(["x", "{}", "]", ",", " 1", "\x00"]))
    if kind == "truncate":
        return line[: draw(st.integers(0, len(line) - 1))]
    obj = json.loads(line)
    if kind == "top":
        top = draw(st.one_of(st.just(list(obj.values())), json_values))
        return json.dumps(top, separators=(",", ":"))
    if kind == "missing":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "number":
        obj[draw(st.sampled_from(SCALAR_KEYS))] = draw(json_values)
    elif kind == "p":
        obj["p"] = draw(json_values)
    else:  # one or two partner entries of the wrong arity, or not arrays
        partners = obj["p"] + [[1, 2, 3, 4]] * draw(st.integers(not obj["p"], 2))
        for _ in range(draw(st.integers(1, 2))):
            at = draw(st.integers(0, len(partners) - 1))
            if draw(st.booleans()):
                size = draw(st.sampled_from([0, 1, 2, 3, 5, 6]))
                partners[at] = [9, 8, 7, 6, 5, 4][:size]
            else:
                partners[at] = draw(
                    st.one_of(json_values, st.sampled_from(["abcd", "abc"]))
                )
        obj["p"] = partners
    return json.dumps(obj, separators=(",", ":"))


def parse_outcome(parse, line):
    try:
        return parse(line), None
    except Exception as exc:  # noqa: BLE001 the outcome under comparison
        return None, exc


def field_types(report):
    return [type(v) for v in vars(report).values()], [
        [type(x) for x in p] for p in report.partners
    ]


#: A line whose partner list the examples below replace.
PARTNERLESS = '{"t":1.5,"ip":7,"ch":3,"bf":0.5,"pp":9,"dc":1.0,"uc":2.0,"rr":3.0,"sr":4.0,"p":%s}'


# report_lines() builds whole JSON documents; on a loaded machine its
# generation trips the too_slow health check without anything being wrong.
@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(report_lines())
@example(PARTNERLESS % "[]")
@example(PARTNERLESS % '[[1,2,30,40],"abcd"]')
@example(PARTNERLESS % "[[1,2,3],5]")  # the first bad entry decides
@example(PARTNERLESS % "[5,[1,2,3]]")
@example(" " + PARTNERLESS % "[[1,2,30,40]]" + "\n")
@example(PARTNERLESS % "[[1,2,30,40]]" + " x")
def test_from_json_matches_oracle(line):
    got, got_exc = parse_outcome(PeerReport.from_json, line)
    want, want_exc = parse_outcome(from_json_oracle, line)
    if want_exc is not None:
        assert got_exc is not None, f"parsed what the oracle rejects: {line!r}"
        assert type(got_exc) is type(want_exc)
        assert str(got_exc) == str(want_exc)
        return
    assert got_exc is None, f"rejected what the oracle parses: {got_exc!r}"
    assert list(vars(got)) == list(vars(want))
    assert field_types(got) == field_types(want)
    assert all(type(p) is PartnerRecord for p in got.partners)
    # pickle bytes compare values, nan included, and the dict's order
    assert pickle.dumps(got) == pickle.dumps(want)
    assert repr(got) == repr(want)


@given(encoder_reports)
def test_parsed_report_is_its_keyword_built_twin(report):
    parsed = PeerReport.from_json(report.to_json())
    twin = PeerReport(**vars(parsed))
    assert pickle.dumps(parsed) == pickle.dumps(twin)
    assert list(vars(parsed)) == list(vars(twin))
    assert repr(parsed) == repr(twin)
    if not any(isinstance(v, float) and math.isnan(v) for v in vars(parsed).values()):
        assert parsed == twin
        assert hash(parsed) == hash(twin)
