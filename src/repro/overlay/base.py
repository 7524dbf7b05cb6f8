"""The :class:`PartnerPolicy` interface and its engine-facing contract.

A partner policy decides which partners a viewer actively draws the
stream from.  The exchange engine owns everything else — partnership
bookkeeping, gossip, block allocation, accounting — and delegates
exactly four decisions to the bound policy:

* :meth:`PartnerPolicy.select_suppliers` — (re)build a peer's active
  supplier set after bootstrap or a tracker refresh;
* :meth:`PartnerPolicy.refine_suppliers` — the cheaper per-tick
  incremental improvement;
* :meth:`PartnerPolicy.candidate_score` — rank one partner link (the
  engine also uses it for request priority via the same formula);
* :meth:`PartnerPolicy.order_gossip_pool` — order a gossip helper's
  recommendations before the fanout cut.

**Draw-identity contract.**  The legacy policies (``uusee``, ``random``,
``tree``) share the engine's named ``exchange`` RNG stream and must
reproduce the pre-extraction draw sequence bit-for-bit — the golden
fingerprint test pins this.  New policies must never touch the engine's
stream: they derive their own named stream hash-style from the campaign
seed (:func:`repro.overlay.registry.derive_policy_seed`), so enabling a
new policy cannot shift any existing stream.

**Checkpoint contract.**  A policy with mutable state implements
``checkpoint_state``/``restore_checkpoint`` (and ``rng_state`` when it
owns an RNG) so a resumed campaign continues draw-for-draw; the policy
spec string is part of the campaign's config token, so a checkpoint
taken under one policy refuses to restore under another.

The protocols below are *structural*: the overlay package never imports
the simulator, which keeps it strictly typecheckable in isolation and
keeps the interface honest about what a policy may touch.
"""

from __future__ import annotations

import random
from typing import ClassVar, Protocol


class PolicyError(ValueError):
    """A policy spec could not be parsed or built."""


class LinkLike(Protocol):
    """What a policy may read from a partnership link."""

    est_kbps: float
    penalty: float
    rtt_ms: float


class PeerLike(Protocol):
    """What a policy may read (and which sets it may rebuild) on a peer."""

    peer_id: int
    channel_id: int
    is_server: bool
    is_china: bool
    isp: str
    depth: int
    partners: dict[int, LinkLike]
    suppliers: set[int]


class ChannelConstsLike(Protocol):
    """Per-channel derived protocol constants (see ``ExchangeEngine``)."""

    rate_kbps: float
    request_cap: float
    demand: float
    demand_standby: float


class ProtocolConfigLike(Protocol):
    """The protocol constants selection logic reads."""

    reciprocation_bonus: float
    min_useful_link_kbps: float
    max_active_suppliers: int


class EngineLike(Protocol):
    """The slice of the exchange engine a bound policy may use.

    ``rng`` is the engine's named ``exchange`` stream — *legacy policies
    only*.  ``clock`` is the engine's notion of current simulated time,
    maintained at every entry point that can reach a policy; structured
    policies use it to timestamp the links they materialise.
    """

    peers: dict[int, PeerLike]
    config: ProtocolConfigLike
    rng: random.Random
    clock: float

    def connect(self, a: PeerLike, b: PeerLike, now: float) -> bool: ...

    def _consts(self, channel_id: int) -> ChannelConstsLike: ...


class PartnerPolicy:
    """Base class: shared greedy fill, refinement loop and no-op state.

    Subclasses set :attr:`name` (the registry key), implement
    :meth:`select_suppliers`, and override the hooks they need.  The
    base implementations reproduce the UUSee selection machinery
    exactly, so score-based policies only supply scores.
    """

    #: Registry key; also the policy's RNG stream tag.
    name: ClassVar[str] = ""
    #: True when request priority must ignore measured link quality
    #: (the RANDOM ablation's stable pseudo-random order per link).
    blind_requests: ClassVar[bool] = False

    #: Bound by :meth:`bind`; declared here for the type checker.
    engine: EngineLike

    def __init__(self, *, seed: int = 0, **params: float) -> None:
        if params:
            unknown = ", ".join(sorted(params))
            raise PolicyError(
                f"policy {self.name!r} does not accept parameter(s): {unknown}"
            )
        self._seed = seed

    def bind(self, engine: EngineLike) -> None:
        """Attach to the engine that will consult this policy."""
        self.engine = engine

    # -- identity ----------------------------------------------------------

    @property
    def params(self) -> dict[str, float]:
        """The policy's tunable parameters (empty for parameterless ones)."""
        return {}

    def spec(self) -> str:
        """Canonical ``name[:key=val,...]`` form (sorted keys)."""
        params = self.params
        if not params:
            return self.name
        body = ",".join(f"{k}={params[k]:g}" for k in sorted(params))
        return f"{self.name}:{body}"

    # -- scoring -----------------------------------------------------------

    def candidate_score(self, peer: PeerLike, pid: int, link: LinkLike) -> float:
        """UUSee's measured-quality score with the reciprocation bonus."""
        engine = self.engine
        score = link.est_kbps / link.penalty
        other = engine.peers.get(pid)
        if other is not None and peer.peer_id in other.suppliers:
            # mutual exchange preference
            score *= 1.0 + engine.config.reciprocation_bonus
        return score

    # -- selection ---------------------------------------------------------

    def select_suppliers(self, peer: PeerLike) -> None:
        """(Re)build ``peer.suppliers`` from its partner list."""
        raise NotImplementedError

    def _greedy_fill(
        self, peer: PeerLike, candidates: list[tuple[float, int, LinkLike]]
    ) -> None:
        """Greedy demand fill over scored candidates (the UUSee loop).

        ``candidates`` holds ``(-score, pid, link)`` tuples, so a native
        sort ranks them by descending score, ties by pid (unique per
        peer, so links are never compared).  Admits candidates until the
        standby demand budget or the active-supplier cap is reached,
        budgeting each link's contribution at its capped estimate
        (floored at the useful minimum).  Bit-identical to the
        pre-extraction inline loop.
        """
        engine = self.engine
        cfg = engine.config
        consts = engine._consts(peer.channel_id)
        demand = consts.demand_standby
        cap = consts.request_cap
        candidates.sort()

        min_useful = cfg.min_useful_link_kbps
        max_active = cfg.max_active_suppliers
        chosen: set[int] = set()
        expected = 0.0
        for _, pid, link in candidates:
            if expected >= demand or len(chosen) >= max_active:
                break
            est = link.est_kbps
            contribution = max(min_useful, est if est < cap else cap)
            chosen.add(pid)
            expected += contribution
        peer.suppliers = chosen

    # -- refinement --------------------------------------------------------

    def refine_score(
        self, peer: PeerLike, pid: int, link: LinkLike, other: PeerLike
    ) -> float | None:
        """Score a non-supplier candidate during refinement; None skips it."""
        return self.candidate_score(peer, pid, link)

    def refine_suppliers(self, peer: PeerLike, *, sample_size: int = 10) -> None:
        """Incremental improvement: drop useless suppliers, try new ones.

        Cheaper than full reselection and closer to how a running client
        behaves: it reacts to measured throughput rather than re-ranking
        everything.  Draw-identical to the pre-extraction engine method.
        """
        if peer.is_server:
            return
        engine = self.engine
        cfg = engine.config
        consts = engine._consts(peer.channel_id)
        demand = consts.demand_standby
        cap = consts.request_cap
        min_useful = cfg.min_useful_link_kbps
        max_active = cfg.max_active_suppliers
        peers_get = engine.peers.get
        partners = peer.partners
        suppliers = peer.suppliers

        # Drop dead suppliers and those measured below the useful floor.
        for pid in list(suppliers):
            link = partners.get(pid)
            if peers_get(pid) is None or link is None or link.est_kbps < min_useful:
                suppliers.discard(pid)

        # Sorted so the float sum is identical regardless of set-table
        # history (a checkpoint round-trip rebuilds the set and may
        # change raw iteration order).
        expected = sum(
            min(partners[pid].est_kbps, cap)
            for pid in sorted(suppliers)
            if pid in partners
        )
        if expected >= demand or len(suppliers) >= max_active:
            return

        # Try the best of a small random sample of non-supplier partners.
        non_suppliers = [pid for pid in partners if pid not in suppliers]
        if not non_suppliers:
            return
        if len(non_suppliers) > sample_size:
            pool = engine.rng.sample(non_suppliers, sample_size)
        else:
            pool = non_suppliers
        refine_score = self.refine_score
        scored: list[tuple[float, int]] = []
        for pid in pool:
            other = peers_get(pid)
            if other is None:
                continue
            score = refine_score(peer, pid, partners[pid], other)
            if score is None:
                continue
            scored.append((score, pid))
        scored.sort(reverse=True)
        for _, pid in scored:
            if expected >= demand or len(suppliers) >= max_active:
                break
            suppliers.add(pid)
            est = partners[pid].est_kbps
            expected += max(min_useful, est if est < cap else cap)

    # -- gossip ------------------------------------------------------------

    def order_gossip_pool(self, helper: PeerLike, pool: list[int]) -> list[int]:
        """Order a helper's recommendation pool before the fanout cut.

        The default prefers the helper's best-RTT partners — largely its
        own ISP — which is how recommendations propagate intra-ISP
        structure and close triangles.
        """
        partners = helper.partners
        return sorted(pool, key=lambda pid: partners[pid].rtt_ms)

    # -- checkpoint obligations -------------------------------------------

    def checkpoint_state(self) -> dict[str, object] | None:
        """Everything mutable the policy owns, or None for stateless ones."""
        return None

    def restore_checkpoint(self, state: dict[str, object] | None) -> None:
        """Restore what :meth:`checkpoint_state` captured (no-op base)."""

    def rng_state(self) -> object | None:
        """The policy's own RNG state, or None when it shares the engine's.

        Folded into :func:`repro.simulator.checkpoint.draw_fingerprint`
        only when not None, so legacy policies leave the fingerprint of
        pre-overlay builds byte-identical.
        """
        return None
