"""Shard planning: deterministic channel partitioning and worker specs.

Channels are nearly independent overlays — tracker membership, partner
lists and block exchange never cross a channel boundary — so the
natural shard unit is a channel subset.  :func:`partition_channels`
balances the catalogue's popularity mass across N shards with a
deterministic greedy rule, and :func:`build_plan` turns one campaign
description into N :class:`ShardSpec` values, each carrying everything
a worker subprocess needs: its channel subset (shares renormalised to
sum to one), its population slice (``base_concurrency`` scaled by the
subset's share mass), and its own derived seed so the named-RNG
discipline stays per-shard.

A :class:`ShardSpec` serialises to JSON (the supervisor writes it next
to the shard's trace directory; the worker reads it back), and its
:meth:`ShardSpec.scope_token` feeds the shard-scoped checkpoint
``config_token`` so shard 2's checkpoint can never be restored into
shard 3's worker.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.simulator.channel import Channel, ChannelCatalogue
from repro.traces.faults import ChannelFaults

if TYPE_CHECKING:
    from repro.ingest.client import ReportClient


def shard_seed(campaign_seed: int, shard_id: int) -> int:
    """The derived RNG seed for one shard, stable across processes.

    Hash-derived rather than ``campaign_seed + shard_id`` so neighbour
    campaigns (seed 7 shard 1 vs seed 8 shard 0) never share streams.
    """
    digest = hashlib.sha256(
        f"repro.fleet:{campaign_seed}:{shard_id}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def partition_channels(
    catalogue: ChannelCatalogue, num_shards: int
) -> list[tuple[Channel, ...]]:
    """Split a catalogue into ``num_shards`` share-balanced subsets.

    Deterministic greedy bin packing: channels in descending share
    order (ties broken by channel id) are assigned to the currently
    lightest shard (ties broken by lowest shard index).  Every shard is
    guaranteed at least one channel, so ``num_shards`` may not exceed
    the catalogue size.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if num_shards > len(catalogue):
        raise ValueError(
            f"cannot split {len(catalogue)} channels across {num_shards} "
            "shards (each shard needs at least one channel)"
        )
    ordered = sorted(catalogue, key=lambda c: (-c.share, c.channel_id))
    loads = [0.0] * num_shards
    buckets: list[list[Channel]] = [[] for _ in range(num_shards)]
    for channel in ordered:
        # Empty shards first (everyone gets a channel), then lightest.
        target = min(
            range(num_shards),
            key=lambda i: (len(buckets[i]) > 0, loads[i], i),
        )
        buckets[target].append(channel)
        loads[target] += channel.share
    return [
        tuple(sorted(bucket, key=lambda c: c.channel_id)) for bucket in buckets
    ]


@dataclass(frozen=True)
class ChaosSpec:
    """Deterministic fault injection for the kill/restart test matrix.

    Production campaigns never set this; the chaos tests and the CI
    ``fleet-chaos`` job use it to land a crash at an exactly
    reproducible instant.  ``mode``:

    - ``crash`` — SIGKILL self right after round ``at_round``;
    - ``torn-checkpoint`` — tear the newest checkpoint file (as if the
      kill struck mid-write on a non-atomic filesystem), then SIGKILL;
    - ``torn-segment`` — append half a record to the active trace
      segment (a mid-line kill), then SIGKILL;
    - ``stale-manifest`` — regress the segment manifest to before its
      last sealing (a mid-rotation kill), then SIGKILL;
    - ``hang`` — stop heartbeating and sleep forever (the supervisor
      must detect and SIGKILL us).

    With ``once=True`` (default) the worker drops a marker file before
    inflicting the damage, so the restarted worker runs clean; with
    ``once=False`` the shard fails every time it reaches ``at_round`` —
    the poison-shard scenario.
    """

    mode: str
    at_round: int
    once: bool = True

    MODES = ("crash", "torn-checkpoint", "torn-segment", "stale-manifest", "hang")

    def __post_init__(self) -> None:
        if self.mode not in self.MODES:
            raise ValueError(f"unknown chaos mode {self.mode!r}")
        if self.at_round < 1:
            raise ValueError("at_round must be >= 1")


@dataclass(frozen=True)
class IngestSpec:
    """Where (and how) a shard ships reports instead of writing locally."""

    host: str
    tcp_port: int
    udp_port: int
    transport: str = "tcp"
    loss_rate: float = 0.0
    #: The worker reports as ingest shard ``shard_base + shard_id`` so
    #: every worker owns its own ``(shard, seq)`` dedup stream.
    shard_base: int = 0

    def __post_init__(self) -> None:
        ChannelFaults(loss_rate=self.loss_rate)  # raises on a bad rate

    def reporter(
        self, *, seed: int, shard_id: int = 0, obs: AnyObserver = NULL_OBSERVER
    ) -> ReportClient:
        """The reporter for ingest shard ``shard_base + shard_id``.

        ``loss_rate`` becomes independent datagram loss; ``seed`` seeds
        the client's backoff jitter and (``seed ^ 0x5EED``) its injector.
        """
        from repro.ingest.client import ReportClient

        return ReportClient(
            self.host,
            self.tcp_port,
            udp_port=self.udp_port,
            transport=self.transport,
            shard_id=self.shard_base + shard_id,
            faults=ChannelFaults(loss_rate=self.loss_rate),
            seed=seed,
            obs=obs,
        )


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker subprocess needs to run its shard."""

    shard_id: int
    num_shards: int
    seed: int  # the *campaign* seed; the worker derives shard_seed()
    channels: tuple[Channel, ...]  # this shard's subset, original shares
    base_concurrency: float  # already scaled to this shard's share mass
    days: float
    with_flash_crowd: bool = True
    policy: str = "uusee"
    trace_dir: str = ""  # the shard's own campaign directory
    checkpoint_every_rounds: int = 36
    keep_last: int = 3
    records_per_segment: int = 100_000
    compress: bool = False
    fsync_on_flush: bool = False
    heartbeat_every_rounds: int = 1
    ingest: IngestSpec | None = None
    chaos: ChaosSpec | None = None

    def derived_seed(self) -> int:
        """This shard's own system seed (see :func:`shard_seed`)."""
        return shard_seed(self.seed, self.shard_id)

    def catalogue(self) -> ChannelCatalogue:
        """The shard's sub-catalogue, shares renormalised to sum to 1."""
        total = sum(c.share for c in self.channels)
        if total <= 0.0:
            raise ValueError(f"shard {self.shard_id} carries zero share mass")
        return ChannelCatalogue(
            [dataclasses.replace(c, share=c.share / total) for c in self.channels]
        )

    def scope_token(self) -> str:
        """The shard-scoped checkpoint scope (feeds ``config_token``)."""
        ids = ",".join(str(c.channel_id) for c in self.channels)
        return f"fleet-shard:{self.shard_id}/{self.num_shards}:channels:{ids}"

    # -- JSON round trip ----------------------------------------------------

    def to_json(self) -> str:
        """Serialise to a JSON document (the on-disk worker spec)."""
        payload: dict[str, Any] = dataclasses.asdict(self)
        payload["channels"] = [dataclasses.asdict(c) for c in self.channels]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> ShardSpec:
        """Parse a spec previously written by :meth:`to_json`."""
        payload = json.loads(text)
        channels = tuple(
            Channel(
                channel_id=int(c["channel_id"]),
                name=str(c["name"]),
                rate_kbps=float(c["rate_kbps"]),
                share=float(c["share"]),
            )
            for c in payload.pop("channels")
        )
        chaos = payload.pop("chaos", None)
        ingest = payload.pop("ingest", None)
        return cls(
            channels=channels,
            chaos=ChaosSpec(**chaos) if chaos is not None else None,
            ingest=IngestSpec(**ingest) if ingest is not None else None,
            **payload,
        )


@dataclass
class ShardPlan:
    """The full campaign's worth of shard specs, in shard-id order."""

    specs: list[ShardSpec] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Any:
        return iter(self.specs)


def shard_dir(campaign_dir: Path, shard_id: int) -> Path:
    """The trace directory owned by one shard worker."""
    return campaign_dir / "shards" / f"shard-{shard_id:02d}"


def build_plan(
    campaign_dir: str | Path,
    *,
    num_shards: int,
    days: float,
    base_concurrency: float,
    seed: int,
    catalogue: ChannelCatalogue,
    with_flash_crowd: bool = True,
    policy: str = "uusee",
    checkpoint_every_rounds: int = 36,
    keep_last: int = 3,
    records_per_segment: int = 100_000,
    compress: bool = False,
    fsync_on_flush: bool = False,
    heartbeat_every_rounds: int = 1,
    ingest: IngestSpec | None = None,
    chaos: dict[int, ChaosSpec] | None = None,
) -> ShardPlan:
    """Plan one campaign across ``num_shards`` workers.

    The partition is deterministic in the catalogue and ``num_shards``
    alone; ``base_concurrency`` is split proportionally to each shard's
    share mass so the union population matches the unsharded campaign's
    target curve.
    """
    campaign_dir = Path(campaign_dir)
    subsets = partition_channels(catalogue, num_shards)
    specs: list[ShardSpec] = []
    for sid, subset in enumerate(subsets):
        mass = sum(c.share for c in subset)
        specs.append(
            ShardSpec(
                shard_id=sid,
                num_shards=num_shards,
                seed=seed,
                channels=subset,
                base_concurrency=base_concurrency * mass,
                days=days,
                with_flash_crowd=with_flash_crowd,
                policy=policy,
                trace_dir=str(shard_dir(campaign_dir, sid)),
                checkpoint_every_rounds=checkpoint_every_rounds,
                keep_last=keep_last,
                records_per_segment=records_per_segment,
                compress=compress,
                fsync_on_flush=fsync_on_flush,
                heartbeat_every_rounds=heartbeat_every_rounds,
                ingest=ingest,
                chaos=(chaos or {}).get(sid),
            )
        )
    return ShardPlan(specs=specs)
