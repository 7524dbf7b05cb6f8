"""Locality-aware selection with a tunable locality/random mix.

After Clegg et al. (arxiv 1303.6807): each candidate's score blends an
ISP-distance preference with an independent uniform draw,

    score = mix * locality + (1 - mix) * U(0, 1)

where locality is 1 for a same-ISP partner, 0.5 for a different Chinese
ISP and 0 for an overseas one.  ``mix=0`` degenerates to uniform-random
selection, ``mix=1`` to pure locality ranking; in between the parameter
monotonically shifts the intra-ISP fraction of the chosen suppliers
(the invariant the overlay tests pin).

The uniform draws come from the policy's own derived RNG stream, so a
locality campaign never perturbs the engine's named streams.
"""

from __future__ import annotations

import random
from typing import ClassVar

from repro.overlay.base import LinkLike, PartnerPolicy, PeerLike, PolicyError
from repro.overlay.registry import derive_policy_seed, register


@register
class LocalityPolicy(PartnerPolicy):
    """Tunable locality/random mix over ISP distance."""

    name: ClassVar[str] = "locality"

    def __init__(self, *, seed: int = 0, mix: float = 0.75, **params: float) -> None:
        super().__init__(seed=seed, **params)
        if not 0.0 <= mix <= 1.0:
            raise PolicyError(f"locality mix must be in [0, 1], got {mix}")
        self.mix = float(mix)
        self._rng = random.Random(derive_policy_seed(seed, self.name))

    @property
    def params(self) -> dict[str, float]:
        return {"mix": self.mix}

    @staticmethod
    def _locality(peer: PeerLike, other: PeerLike) -> float:
        if other.isp == peer.isp:
            return 1.0
        if peer.is_china and other.is_china:
            return 0.5
        return 0.0

    def _blend(self, peer: PeerLike, pid: int) -> float | None:
        other = self.engine.peers.get(pid)
        if other is None:
            return None
        u = self._rng.random()
        return self.mix * self._locality(peer, other) + (1.0 - self.mix) * u

    def select_suppliers(self, peer: PeerLike) -> None:
        if peer.is_server:
            return
        candidates: list[tuple[float, int, LinkLike]] = []
        for pid, link in peer.partners.items():
            score = self._blend(peer, pid)
            if score is None:
                continue
            candidates.append((-score, pid, link))
        self._greedy_fill(peer, candidates)

    def refine_score(
        self, peer: PeerLike, pid: int, link: LinkLike, other: PeerLike
    ) -> float | None:
        u = self._rng.random()
        return self.mix * self._locality(peer, other) + (1.0 - self.mix) * u

    def order_gossip_pool(self, helper: PeerLike, pool: list[int]) -> list[int]:
        # Recommendations follow the same preference the scorer uses:
        # the helper's own-ISP partners first, then by RTT.
        return sorted(
            pool,
            key=lambda pid: (
                -self._locality(helper, self.engine.peers[pid])
                if pid in self.engine.peers
                else 1.0,
                helper.partners[pid].rtt_ms,
            ),
        )

    # -- checkpoint obligations -------------------------------------------

    def checkpoint_state(self) -> dict[str, object] | None:
        return {"rng": self._rng.getstate()}

    def restore_checkpoint(self, state: dict[str, object] | None) -> None:
        if state is None:
            return
        self._rng.setstate(state["rng"])  # type: ignore[arg-type]

    def rng_state(self) -> object | None:
        return self._rng.getstate()
