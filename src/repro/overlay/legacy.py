"""The three pre-overlay policies, extracted draw-identically.

These reproduce the selection logic that used to be inlined in
``ExchangeEngine.select_suppliers``/``refine_suppliers``: every float
expression, iteration order and RNG draw is byte-for-byte the same, so
the golden fingerprint test (``tests/simulator/test_exchange_golden``)
pins the extraction.  All three share the engine's named ``exchange``
RNG stream and carry no state of their own.
"""

from __future__ import annotations

from typing import ClassVar

from repro.overlay.base import LinkLike, PartnerPolicy, PeerLike
from repro.overlay.registry import register


@register
class UUSeePolicy(PartnerPolicy):
    """Measured-quality greedy selection with a reciprocation preference.

    The real protocol, per the paper: score = estimated throughput
    discounted by a quadratic RTT penalty, boosted for mutual exchange,
    filled greedily against the standby demand budget.
    """

    name: ClassVar[str] = "uusee"

    def select_suppliers(self, peer: PeerLike) -> None:
        if peer.is_server:
            return
        engine = self.engine
        peers_get = engine.peers.get
        peer_id = peer.peer_id
        bonus1 = 1.0 + engine.config.reciprocation_bonus

        # Inlined candidate_score: this loop dominates selection cost.
        candidates: list[tuple[float, int, LinkLike]] = []
        for pid, link in peer.partners.items():
            other = peers_get(pid)
            if other is None:
                continue
            score = link.est_kbps / link.penalty
            if peer_id in other.suppliers:
                score *= bonus1
            candidates.append((-score, pid, link))
        self._greedy_fill(peer, candidates)


@register
class RandomPolicy(PartnerPolicy):
    """Uniform choice among partners — the ablation that should destroy
    ISP clustering (DESIGN.md Sec. 4).  Request priority is blind too:
    a stable pseudo-random order per link instead of measured quality.
    """

    name: ClassVar[str] = "random"
    blind_requests: ClassVar[bool] = True

    def select_suppliers(self, peer: PeerLike) -> None:
        if peer.is_server:
            return
        engine = self.engine
        peers_get = engine.peers.get
        rng = engine.rng
        candidates: list[tuple[float, int, LinkLike]] = []
        for pid, link in peer.partners.items():
            if peers_get(pid) is None:
                continue
            candidates.append((-rng.random(), pid, link))
        self._greedy_fill(peer, candidates)

    def refine_score(
        self, peer: PeerLike, pid: int, link: LinkLike, other: PeerLike
    ) -> float | None:
        return self.engine.rng.random()

    def order_gossip_pool(self, helper: PeerLike, pool: list[int]) -> list[int]:
        # No RTT preference: recommendations stay in sampled order.
        return pool


@register
class TreePolicy(PartnerPolicy):
    """Only partners strictly closer to the streaming server may supply
    — the ablation that should drive edge reciprocity negative.
    """

    name: ClassVar[str] = "tree"

    def select_suppliers(self, peer: PeerLike) -> None:
        if peer.is_server:
            return
        engine = self.engine
        peers_get = engine.peers.get
        candidates: list[tuple[float, int, LinkLike]] = []
        for pid, link in peer.partners.items():
            other = peers_get(pid)
            if other is None:
                continue
            if other.depth >= peer.depth and not other.is_server:
                continue
            score = link.est_kbps / link.penalty
            candidates.append((-score, pid, link))
        self._greedy_fill(peer, candidates)

    def refine_score(
        self, peer: PeerLike, pid: int, link: LinkLike, other: PeerLike
    ) -> float | None:
        if other.depth >= peer.depth and not other.is_server:
            return None
        return self.candidate_score(peer, pid, link)
