"""Tracking server (paper Sec. 3.1).

The tracker keeps, per channel, the set of registered peers and the
subset that has volunteered spare upload capacity.  New peers are
bootstrapped with up to ``bootstrap_partners`` peers *randomly selected
from the volunteer list* (exactly the paper's description), and peers
whose playback cannot be sustained re-contact the tracker for more
partners as a last resort.
"""

from __future__ import annotations

import random

from repro.simulator.util import SampleableSet


class Tracker:
    """Central peer registry with per-channel volunteer lists."""

    def __init__(
        self,
        *,
        seed: int = 0,
        server_probability: float = 0.25,
        handout_limit: int = 12,
    ) -> None:
        """``handout_limit``: how many times a volunteer may be handed to
        new peers before the tracker considers its spare capacity consumed
        and de-lists it (it re-volunteers at its next maintenance tick if
        capacity is still spare).  This throttles the inbound-connection
        rate at popular volunteers."""
        self._members: dict[int, SampleableSet] = {}
        self._volunteers: dict[int, SampleableSet] = {}
        self._servers: dict[int, list[int]] = {}
        self._handouts: dict[int, dict[int, int]] = {}
        self._rng = random.Random(seed)
        self.server_probability = server_probability
        self.handout_limit = handout_limit
        self.bootstrap_requests = 0
        self.refresh_requests = 0

    # -- registration ------------------------------------------------------

    def add_server(self, channel_id: int, server_peer_id: int) -> None:
        """Register a streaming server for a channel."""
        self._servers.setdefault(channel_id, []).append(server_peer_id)
        self._ensure_channel(channel_id)

    def register(self, channel_id: int, peer_id: int) -> None:
        """Record ``peer_id`` as a member of the channel."""
        self._ensure_channel(channel_id)
        self._members[channel_id].add(peer_id)

    def unregister(self, channel_id: int, peer_id: int) -> None:
        """Remove a departed peer from membership and volunteer lists."""
        if channel_id in self._members:
            self._members[channel_id].discard(peer_id)
            self._volunteers[channel_id].discard(peer_id)

    def volunteer(self, channel_id: int, peer_id: int) -> None:
        """Peer reports spare upload capacity and accepts new connections.

        Idempotent; also resets the peer's handout budget, so peers that
        keep having spare capacity keep getting advertised.
        """
        self._ensure_channel(channel_id)
        self._volunteers[channel_id].add(peer_id)
        self._handouts[channel_id][peer_id] = 0

    def unvolunteer(self, channel_id: int, peer_id: int) -> None:
        """Withdraw a peer from the volunteer list."""
        if channel_id in self._volunteers:
            self._volunteers[channel_id].discard(peer_id)
            self._handouts[channel_id].pop(peer_id, None)

    # -- queries -------------------------------------------------------------

    def member_count(self, channel_id: int) -> int:
        """Registered peers in the channel."""
        return len(self._members.get(channel_id, ()))

    def volunteer_count(self, channel_id: int) -> int:
        """Currently listed volunteers in the channel."""
        return len(self._volunteers.get(channel_id, ()))

    def bootstrap(
        self, channel_id: int, peer_id: int, count: int
    ) -> list[int]:
        """Initial partner set: random volunteers, maybe plus a server."""
        self.bootstrap_requests += 1
        return self._partners_for(channel_id, peer_id, count, include_server=True)

    def refresh(self, channel_id: int, peer_id: int, count: int) -> list[int]:
        """Last-resort additional partners for a starving peer."""
        self.refresh_requests += 1
        return self._partners_for(channel_id, peer_id, count, include_server=False)

    # -- internals -----------------------------------------------------------

    def _ensure_channel(self, channel_id: int) -> None:
        if channel_id not in self._members:
            self._members[channel_id] = SampleableSet()
            self._volunteers[channel_id] = SampleableSet()
            self._handouts[channel_id] = {}

    def _partners_for(
        self, channel_id: int, peer_id: int, count: int, *, include_server: bool
    ) -> list[int]:
        self._ensure_channel(channel_id)
        volunteers = self._volunteers[channel_id]
        picked = volunteers.sample(self._rng, count, exclude=peer_id)
        handouts = self._handouts[channel_id]
        # A channel has a server or two: a list scan, no set per call.
        servers = self._servers.get(channel_id, [])
        limit = self.handout_limit
        for pid in picked:
            if pid in servers:
                continue
            given = handouts.get(pid, 0) + 1
            if given >= limit:
                volunteers.discard(pid)
                handouts.pop(pid, None)
            else:
                handouts[pid] = given
        if include_server:
            if servers and self._rng.random() < self.server_probability:
                server = servers[self._rng.randrange(len(servers))]
                if server not in picked:
                    picked.append(server)
        return picked

