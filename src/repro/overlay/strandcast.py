"""StrandCast: a single ordered chain of viewers per channel.

The degenerate baseline overlay: viewers form one linear strand, each
drawing the stream from its predecessor; the head of the strand draws
straight from the channel's streaming server.  Joins append to the
tail, leaves bridge the gap — both O(1) membership changes, no
randomness at all.  Topologically this is the anti-UUSee control:
indegree is exactly 1, clustering and reciprocity are zero, and depth
grows linearly with population, which is precisely what makes it a
useful far-end anchor in the ``compare-overlays`` study.
"""

from __future__ import annotations

from typing import ClassVar

from repro.overlay.base import PartnerPolicy, PeerLike
from repro.overlay.registry import register


@register
class StrandCastPolicy(PartnerPolicy):
    """Single-chain forwarding: each viewer supplies the next in line."""

    name: ClassVar[str] = "strandcast"

    def __init__(self, *, seed: int = 0, **params: float) -> None:
        super().__init__(seed=seed, **params)
        #: channel -> viewer pids in strand order (head first).
        self._chains: dict[int, list[int]] = {}

    # -- strand maintenance ------------------------------------------------

    def _sync(self, channel_id: int) -> None:
        """Drop departed viewers (bridging the gap), append joiners."""
        engine = self.engine
        viewers = {
            pid
            for pid, p in engine.peers.items()
            if p.channel_id == channel_id and not p.is_server
        }
        chain = self._chains.setdefault(channel_id, [])
        chain[:] = [pid for pid in chain if pid in viewers]
        present = set(chain)
        for pid in sorted(viewers - present):
            chain.append(pid)

    def _server_for(self, channel_id: int) -> int | None:
        servers = [
            pid
            for pid, p in self.engine.peers.items()
            if p.channel_id == channel_id and p.is_server
        ]
        return min(servers) if servers else None

    def chain(self, channel_id: int) -> list[int]:
        """Copy of the channel's strand order (for tests/inspection)."""
        return list(self._chains.get(channel_id, []))

    # -- selection ---------------------------------------------------------

    def select_suppliers(self, peer: PeerLike) -> None:
        if peer.is_server:
            return
        engine = self.engine
        self._sync(peer.channel_id)
        chain = self._chains[peer.channel_id]
        idx = chain.index(peer.peer_id)
        pred = chain[idx - 1] if idx > 0 else self._server_for(peer.channel_id)
        chosen: set[int] = set()
        if pred is not None:
            other = engine.peers.get(pred)
            if other is not None:
                if pred not in peer.partners:
                    engine.connect(peer, other, engine.clock)
                if pred in peer.partners:
                    chosen.add(pred)
        peer.suppliers = chosen

    def refine_suppliers(self, peer: PeerLike, *, sample_size: int = 10) -> None:
        # The strand *is* the refinement: re-derive the predecessor.
        self.select_suppliers(peer)

    # -- checkpoint obligations -------------------------------------------

    def checkpoint_state(self) -> dict[str, object] | None:
        return {
            "chains": {
                channel: list(chain)
                for channel, chain in self._chains.items()
            }
        }

    def restore_checkpoint(self, state: dict[str, object] | None) -> None:
        if state is None:
            return
        chains = state["chains"]
        assert isinstance(chains, dict)
        self._chains = {channel: list(chain) for channel, chain in chains.items()}
