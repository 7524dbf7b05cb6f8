"""k random Hamiltonian cycles per channel, maintained under churn.

After Kim & Srikant (arxiv 1207.3110): the channel population (servers
included, so the stream enters the overlay at k places) is arranged in
``k`` independent random cycles.  A peer's suppliers are its cycle
predecessors, so every viewer has indegree <= k and the union of the
cycles is a k-regular random digraph with guaranteed connectivity per
cycle.

Churn maintenance is local: a leaving member's predecessor is spliced
to its successor; a joining member is spliced in at a position chosen
uniformly by the policy's own RNG.  Each next-map therefore remains a
single cycle covering exactly the live channel members — the invariant
the overlay tests walk.
"""

from __future__ import annotations

import random
from typing import ClassVar

from repro.overlay.base import PartnerPolicy, PeerLike, PolicyError
from repro.overlay.registry import derive_policy_seed, register


@register
class HamiltonianPolicy(PartnerPolicy):
    """k random Hamiltonian cycles over each channel population."""

    name: ClassVar[str] = "hamiltonian"

    def __init__(self, *, seed: int = 0, k: float = 2, **params: float) -> None:
        super().__init__(seed=seed, **params)
        self.k = int(k)
        if self.k < 1 or self.k != k:
            raise PolicyError(f"hamiltonian k must be a positive integer, got {k}")
        self._rng = random.Random(derive_policy_seed(seed, self.name))
        #: channel -> k successor maps; each is one cycle over members.
        self._next: dict[int, list[dict[int, int]]] = {}
        #: Inverse maps, kept in lockstep (rebuilt from _next on restore).
        self._prev: dict[int, list[dict[int, int]]] = {}

    @property
    def params(self) -> dict[str, float]:
        return {"k": self.k}

    # -- cycle maintenance -------------------------------------------------

    def _sync(self, channel_id: int) -> None:
        """Make every cycle cover exactly the live channel members."""
        engine = self.engine
        alive = sorted(
            pid for pid, p in engine.peers.items() if p.channel_id == channel_id
        )
        alive_set = set(alive)
        nexts = self._next.setdefault(
            channel_id, [{} for _ in range(self.k)]
        )
        prevs = self._prev.setdefault(
            channel_id, [{} for _ in range(self.k)]
        )
        for nxt, prv in zip(nexts, prevs):
            # Departures first: bridge predecessor -> successor.
            for pid in sorted(pid for pid in nxt if pid not in alive_set):
                succ = nxt.pop(pid)
                pred = prv.pop(pid)
                if pred != pid:
                    nxt[pred] = succ
                    prv[succ] = pred
            # Then joins: splice in at a uniformly random position.
            for pid in alive:
                if pid in nxt:
                    continue
                if not nxt:
                    nxt[pid] = pid
                    prv[pid] = pid
                    continue
                anchor = self._rng.choice(sorted(nxt))
                succ = nxt[anchor]
                nxt[anchor] = pid
                nxt[pid] = succ
                prv[pid] = anchor
                prv[succ] = pid

    def cycles(self, channel_id: int) -> list[dict[int, int]]:
        """Copies of the channel's successor maps (for tests/inspection)."""
        return [dict(m) for m in self._next.get(channel_id, [])]

    # -- selection ---------------------------------------------------------

    def select_suppliers(self, peer: PeerLike) -> None:
        if peer.is_server:
            return
        engine = self.engine
        self._sync(peer.channel_id)
        chosen: set[int] = set()
        for prv in self._prev[peer.channel_id]:
            pred = prv.get(peer.peer_id)
            if pred is None or pred == peer.peer_id:
                continue
            other = engine.peers.get(pred)
            if other is None:
                continue
            if pred not in peer.partners:
                engine.connect(peer, other, engine.clock)
            if pred in peer.partners:
                chosen.add(pred)
        peer.suppliers = chosen

    def refine_suppliers(self, peer: PeerLike, *, sample_size: int = 10) -> None:
        # The structure *is* the refinement: re-derive from the cycles.
        self.select_suppliers(peer)

    # -- checkpoint obligations -------------------------------------------

    def checkpoint_state(self) -> dict[str, object] | None:
        return {
            "rng": self._rng.getstate(),
            "next": {
                channel: [dict(m) for m in maps]
                for channel, maps in self._next.items()
            },
        }

    def restore_checkpoint(self, state: dict[str, object] | None) -> None:
        if state is None:
            return
        rng_state = state["rng"]
        nexts = state["next"]
        assert isinstance(nexts, dict)
        self._rng.setstate(rng_state)  # type: ignore[arg-type]
        self._next = {
            channel: [dict(m) for m in maps] for channel, maps in nexts.items()
        }
        # Both maps hold members in join order; keep that order.
        self._prev = {
            channel: [_inverse(m) for m in maps]
            for channel, maps in self._next.items()
        }

    def rng_state(self) -> object | None:
        return self._rng.getstate()


def _inverse(successors: dict[int, int]) -> dict[int, int]:
    """The predecessor map of one cycle, keyed in the cycle map's order."""
    pred = {succ: node for node, succ in successors.items()}
    return {node: pred[node] for node in successors}
