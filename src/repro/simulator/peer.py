"""Peer and partner-link state.

A ``Peer`` is one streaming client (or a streaming server, flagged).
Each TCP partnership is represented by a ``Link`` at *both* endpoints:
every peer keeps its own view with its own sent/received segment
counters, mirroring the paper's measurement design where each peer
reports, per partner, the number of segments sent to and received from
that partner.  Links carry the measured RTT and the per-connection TCP
throughput ceiling drawn from the network model, plus the EWMA
throughput estimate UUSee's selection uses.
"""

from __future__ import annotations

from itertools import starmap
from operator import attrgetter


def rtt_penalty(rtt_ms: float) -> float:
    """Quadratic RTT selection penalty of a link.

    UUSee measures round-trip delay per connection and strongly prefers
    nearby (in practice intra-ISP) partners; block requests over
    high-RTT paths also pipeline badly.  RTT never changes after
    establishment, so each ``Link`` stores its penalty and the
    per-round scoring loops pay one attribute read, not an
    exponentiation.
    """
    return 1.0 + (rtt_ms / 60.0) ** 2


class Link:
    """One endpoint's view of a TCP partnership.

    Built positionally: ``connect`` draws the link quality once per
    partnership and hands both endpoints the same estimate and penalty.
    The segment counters start at zero; a checkpoint restore passes
    them back in (see :meth:`__reduce__`).
    """

    # Same order as the __init__ parameters: __reduce__ pickles the slot
    # values positionally.
    __slots__ = (
        "rtt_ms",
        "cap_kbps",
        "est_kbps",  # EWMA throughput estimate UUSee's selection ranks by
        "penalty",  # rtt_penalty(rtt_ms)
        "established_at",  # carried forward to 'last active' by transfers
        "partner_ip",
        "sent_segments",  # cumulative, this endpoint -> partner
        "recv_segments",  # cumulative, partner -> this endpoint
        "reported_sent",  # snapshot at last trace report
        "reported_recv",
    )

    def __init__(
        self,
        rtt_ms: float,
        cap_kbps: float,
        est_kbps: float,
        penalty: float,
        established_at: float,
        partner_ip: int,
        sent_segments: float = 0.0,
        recv_segments: float = 0.0,
        reported_sent: float = 0.0,
        reported_recv: float = 0.0,
    ) -> None:
        self.rtt_ms = rtt_ms
        self.cap_kbps = cap_kbps
        self.est_kbps = est_kbps
        self.penalty = penalty
        self.established_at = established_at
        self.partner_ip = partner_ip
        self.sent_segments = sent_segments
        self.recv_segments = recv_segments
        self.reported_sent = reported_sent
        self.reported_recv = reported_recv

    def __reduce__(self) -> tuple[type[Link], tuple[float | int, ...]]:
        # Checkpoints hold every link of the overlay twice; one positional
        # tuple per link pickles far smaller and faster than the default
        # slots protocol's per-link dict of slot names.
        return (Link, _slot_values(self))

    def __setstate__(
        self, state: tuple[dict[str, float] | None, dict[str, float]]
    ) -> None:
        # Checkpoints written before ``__reduce__`` pickled Links with the
        # default slots protocol; ones written before the ``penalty`` slot
        # existed lack it, so derive it from the restored RTT.
        _, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        if "penalty" not in slots:
            self.penalty = rtt_penalty(self.rtt_ms)


_slot_values = attrgetter(*Link.__slots__)


class Peer:
    """One UUSee client (or server) and all its protocol state."""

    __slots__ = (
        "peer_id",
        "ip",
        "isp",
        "is_china",
        "is_server",
        "channel_id",
        "upload_kbps",
        "download_kbps",
        "class_name",
        "join_time",
        "depart_time",
        "partners",
        "suppliers",
        "health",
        "buffer_fill",
        "recv_rate_kbps",
        "sent_rate_kbps",
        "last_tick",
        "next_report",
        "volunteered",
        "starving_ticks",
        "depth",
        "playback_position",
        "registered",
        "tracker_failures",
        "next_tracker_retry",
    )

    def __init__(
        self,
        peer_id: int,
        *,
        ip: int,
        isp: str,
        is_china: bool,
        channel_id: int,
        upload_kbps: float,
        download_kbps: float,
        class_name: str,
        join_time: float,
        depart_time: float,
        is_server: bool = False,
    ) -> None:
        self.peer_id = peer_id
        self.ip = ip
        self.isp = isp
        self.is_china = is_china
        self.is_server = is_server
        self.channel_id = channel_id
        self.upload_kbps = upload_kbps
        self.download_kbps = download_kbps
        self.class_name = class_name
        self.join_time = join_time
        self.depart_time = depart_time
        self.partners: dict[int, Link] = {}
        self.suppliers: set[int] = set()
        self.health = 0.0  # EWMA of recv_rate / stream_rate, 0..1
        self.buffer_fill = 0.0  # sliding-window occupancy estimate, 0..1
        self.recv_rate_kbps = 0.0
        self.sent_rate_kbps = 0.0
        self.last_tick = join_time
        self.next_report = float("inf")
        self.volunteered = False
        self.starving_ticks = 0
        # Hop distance from the streaming server (servers are 0); used by
        # the TREE ablation policy and interesting in its own right.
        self.depth = 0 if is_server else 64
        self.playback_position = 0
        # Tracker-contact state: whether the tracker has accepted this
        # peer's registration, and the bounded-exponential-backoff retry
        # schedule used while the tracker is down or browned out.
        self.registered = False
        self.tracker_failures = 0
        self.next_tracker_retry = float("inf")

    @property
    def partner_count(self) -> int:
        """Current partner-list size."""
        return len(self.partners)

    def age(self, now: float) -> float:
        """Seconds since this peer joined."""
        return now - self.join_time

    def add_partner(self, partner_id: int, link: Link) -> bool:
        """Record a partnership; returns False if it already existed."""
        if partner_id in self.partners or partner_id == self.peer_id:
            return False
        self.partners[partner_id] = link
        return True

    def remove_partner(self, partner_id: int) -> None:
        """Forget a partner (and drop it from the supplier set)."""
        self.partners.pop(partner_id, None)
        self.suppliers.discard(partner_id)

    def spare_upload_kbps(self) -> float:
        """Unused upload capacity as of the last exchange round."""
        return max(0.0, self.upload_kbps - self.sent_rate_kbps)

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        # Checkpoints hold every link of the overlay twice.  The peer packs
        # its links' slot values with the C-level attrgetter, so pickling
        # makes no per-link Python call (``Link.__reduce__`` stays for a
        # lone link).  Checkpoints written before this pickled peers with
        # the default slots protocol and still load that way.
        partners = self.partners
        return (
            _restore_peer,
            (
                _peer_values(self),
                list(partners),
                list(map(_slot_values, partners.values())),
            ),
        )

    def __repr__(self) -> str:  # debugging aid only
        kind = "server" if self.is_server else self.class_name
        return (
            f"Peer({self.peer_id}, {kind}, isp={self.isp!r}, "
            f"ch={self.channel_id}, partners={len(self.partners)})"
        )


#: Every Peer slot but ``partners``, which ``Peer.__reduce__`` packs apart.
_PEER_FIELDS = tuple(name for name in Peer.__slots__ if name != "partners")
_peer_values = attrgetter(*_PEER_FIELDS)


def _restore_peer(
    values: tuple[object, ...],
    partner_ids: list[int],
    links: list[tuple[float | int, ...]],
) -> Peer:
    """Rebuild a peer pickled by :meth:`Peer.__reduce__`."""
    peer = Peer.__new__(Peer)
    for name, value in zip(_PEER_FIELDS, values):
        setattr(peer, name, value)
    peer.partners = dict(zip(partner_ids, starmap(Link, links)))
    return peer
