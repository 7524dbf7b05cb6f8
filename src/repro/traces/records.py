"""Trace record schema and compact (de)serialisation.

Records follow the paper's report contents (Sec. 3.2).  On disk they
are single JSON lines with short keys and positional partner arrays —
the traces of a two-week simulated run reach hundreds of megabytes, so
compactness matters.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import Any, NamedTuple


#: ``PeerReport.to_json``'s line: short keys, partners as positional arrays.
_REPORT_FORMAT = (
    '{"t":%r,"ip":%r,"ch":%r,"bf":%r,"pp":%r,"dc":%r,"uc":%r,"rr":%r,"sr":%r,"p":[%s]}'
)
_PARTNER_FORMAT = "[%r,%r,%r,%r]"


class PartnerRecord(NamedTuple):
    """One partner entry in a report: identity plus segment counters.

    A named tuple, not a dataclass: every report carries dozens of
    these, and a tuple is built and parsed without per-field dispatch.
    On disk it is the positional ``[ip, port, sent, recv]`` array.
    """

    ip: int
    port: int
    sent_segments: int  # segments this peer sent to the partner
    recv_segments: int  # segments this peer received from the partner

    def to_array(self) -> list[int]:
        """Positional [ip, port, sent, recv] form for compact JSON."""
        return list(self)


@dataclass(frozen=True)
class PeerReport:
    """One periodic measurement report from a peer."""

    time: float  # seconds since the simulated epoch
    peer_ip: int
    channel_id: int
    buffer_fill: float  # sliding-window occupancy summary, 0..1
    playback_position: int  # segment index of the playback point
    download_capacity_kbps: float
    upload_capacity_kbps: float
    recv_rate_kbps: float  # instantaneous aggregate receiving throughput
    sent_rate_kbps: float  # instantaneous aggregate sending throughput
    partners: tuple[PartnerRecord, ...]

    def to_json(self) -> str:
        """Serialise to one compact JSON line.

        Formatted with ``%r``, which writes ints and finite floats
        exactly as ``json.dumps`` does, at about half its cost.  A line
        holding ``nan``/``inf`` (no key contains an ``n``) is rebuilt
        by :meth:`_to_json_dumps`, since JSON spells them ``NaN`` and
        ``Infinity``.
        """
        line = _REPORT_FORMAT % (
            # full precision: rounding could push a time across the
            # boundary of the observation window it was emitted in
            self.time,
            self.peer_ip,
            self.channel_id,
            round(self.buffer_fill, 4),
            self.playback_position,
            round(self.download_capacity_kbps, 1),
            round(self.upload_capacity_kbps, 1),
            round(self.recv_rate_kbps, 1),
            round(self.sent_rate_kbps, 1),
            ",".join([_PARTNER_FORMAT % p for p in self.partners]),
        )
        if "n" in line:
            return self._to_json_dumps()
        return line

    def _to_json_dumps(self) -> str:
        """The ``json.dumps`` form of :meth:`to_json` (non-finite values)."""
        obj = {
            "t": self.time,
            "ip": self.peer_ip,
            "ch": self.channel_id,
            "bf": round(self.buffer_fill, 4),
            "pp": self.playback_position,
            "dc": round(self.download_capacity_kbps, 1),
            "uc": round(self.upload_capacity_kbps, 1),
            "rr": round(self.recv_rate_kbps, 1),
            "sr": round(self.sent_rate_kbps, 1),
            "p": list(map(tuple, self.partners)),
        }
        return json.dumps(obj, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> PeerReport:
        """Parse one :meth:`to_json` line.

        Parsing dominates every read of a trace, so a well-formed line
        costs its JSON decode plus C-level work: the stdlib scanner
        decodes it, one ``len`` pass checks every partner's arity, and
        partners and report are built without a Python frame per
        partner or field.  Anything else (surrounding whitespace,
        trailing data, malformed JSON, a wrong arity) falls back to the
        plain path and raises exactly what ``json.loads`` and the
        per-partner check raise.
        """
        try:
            obj, end = _scan_once(line, 0)
        except StopIteration:  # no value at index 0
            end = -1
        if end != len(line):
            obj = json.loads(line)
        arrays = obj["p"]
        try:
            arity_ok = _PARTNER_ARITY.issuperset(map(len, arrays))
        except TypeError:  # "p" or an entry has no length: walk to the error
            arity_ok = False
        if not arity_ok:
            for arr in arrays:
                if len(arr) != 4:
                    raise ValueError(f"partner record needs 4 fields, got {len(arr)}")
        return _new_report(
            float(obj["t"]),
            int(obj["ip"]),
            int(obj["ch"]),
            float(obj["bf"]),
            int(obj["pp"]),
            float(obj["dc"]),
            float(obj["uc"]),
            float(obj["rr"]),
            float(obj["sr"]),
            tuple(map(_new_partner, arrays)),
        )

    def is_wellformed(self) -> bool:
        """Field-level sanity: finite, non-negative, in-range values.

        A syntactically valid JSON line can still carry garbage (bit
        flips on the UDP path, a half-written float); tolerant readers
        quarantine such records instead of feeding them to analytics.
        """
        numbers = (
            self.time,
            self.download_capacity_kbps,
            self.upload_capacity_kbps,
            self.recv_rate_kbps,
            self.sent_rate_kbps,
        )
        if any(not math.isfinite(v) or v < 0.0 for v in numbers):
            return False
        if not math.isfinite(self.buffer_fill) or not -0.01 <= self.buffer_fill <= 1.01:
            return False
        if self.playback_position < 0 or self.peer_ip < 0:
            return False
        return all(
            p.sent_segments >= 0 and p.recv_segments >= 0 and p.ip >= 0
            for p in self.partners
        )

    def active_suppliers(self, threshold: int = 10) -> list[PartnerRecord]:
        """Partners from which >= ``threshold`` segments were received."""
        return [p for p in self.partners if p.recv_segments >= threshold]

    def active_receivers(self, threshold: int = 10) -> list[PartnerRecord]:
        """Partners to which >= ``threshold`` segments were sent."""
        return [p for p in self.partners if p.sent_segments >= threshold]


#: ``json.loads``'s C scanner, called without its whitespace and
#: trailing-data handling (see :meth:`PeerReport.from_json`); read from
#: the decoder's ``__dict__``, since the type stubs do not declare it.
_scan_once: Callable[[str, int], tuple[Any, int]] = vars(json.JSONDecoder())["scan_once"]
_PARTNER_ARITY = frozenset((4,))
#: ``PartnerRecord(*arr)`` without the named tuple's Python-level
#: ``__new__``: ``tuple.__new__`` copies the array into the record.
_new_partner: Callable[[Any], Any] = partial(tuple.__new__, PartnerRecord)
_new_object = object.__new__
_set_attribute = object.__setattr__


def _new_report(
    time: float,
    peer_ip: int,
    channel_id: int,
    buffer_fill: float,
    playback_position: int,
    download_capacity_kbps: float,
    upload_capacity_kbps: float,
    recv_rate_kbps: float,
    sent_rate_kbps: float,
    partners: tuple[PartnerRecord, ...],
) -> PeerReport:
    """``PeerReport(...)`` by position, with one attribute store.

    The frozen dataclass's ``__init__`` stores each of its ten fields
    through ``object.__setattr__``; this installs one ``__dict__`` in
    field order instead.  Equality, hash, ``repr``, ``vars()`` order
    and pickle bytes are those of the keyword-built report.  The one
    fast way to make a report: :meth:`PeerReport.from_json` and
    :func:`repro.traces.reporter.build_report` both call it.
    """
    report = _new_object(PeerReport)
    _set_attribute(
        report,
        "__dict__",
        {
            "time": time,
            "peer_ip": peer_ip,
            "channel_id": channel_id,
            "buffer_fill": buffer_fill,
            "playback_position": playback_position,
            "download_capacity_kbps": download_capacity_kbps,
            "upload_capacity_kbps": upload_capacity_kbps,
            "recv_rate_kbps": recv_rate_kbps,
            "sent_rate_kbps": sent_rate_kbps,
            "partners": partners,
        },
    )
    return report
