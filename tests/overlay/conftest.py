"""Shared world-building helpers for the overlay policy tests."""

from repro.network.latency import LatencyModel
from repro.overlay import build_policy
from repro.simulator.channel import Channel, ChannelCatalogue
from repro.simulator.exchange import ExchangeEngine
from repro.simulator.peer import Peer
from repro.simulator.protocol import ProtocolConfig
from repro.simulator.tracker import Tracker

RATE = 400.0


def make_world(spec="uusee", *, config=None, seed=0):
    """A bare exchange engine driven by the given policy spec."""
    peers = {}
    catalogue = ChannelCatalogue([Channel(0, "CH", RATE, 1.0)])
    tracker = Tracker(seed=seed, server_probability=0.0)
    engine = ExchangeEngine(
        peers=peers,
        catalogue=catalogue,
        tracker=tracker,
        latency=LatencyModel(seed=seed),
        config=config or ProtocolConfig(),
        seed=seed,
        partner_policy=build_policy(spec, seed=seed),
    )
    return peers, tracker, engine


def make_peer(
    peers,
    peer_id,
    *,
    isp="China Telecom",
    upload=800.0,
    is_server=False,
    health=1.0,
    join=0.0,
):
    peer = Peer(
        peer_id,
        ip=10_000 + peer_id,
        isp=isp,
        is_china=True,
        channel_id=0,
        upload_kbps=upload,
        download_kbps=4_000.0,
        class_name="server" if is_server else "cable",
        join_time=join,
        depart_time=float("inf"),
        is_server=is_server,
    )
    peer.health = health
    peers[peer_id] = peer
    return peer
