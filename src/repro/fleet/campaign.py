"""One-call fleet campaigns: plan, supervise, merge, account.

:func:`run_fleet_campaign` is the sharded sibling of
:func:`~repro.core.experiments.run_campaign` and the engine behind
``repro run --shards N``.  It plans the shard partition, supervises the
workers to terminal states (restarting and quarantining as needed),
merges the surviving shard traces into the campaign root, and persists
a fleet-aware ``health.json`` — including every incident, so a
quarantined shard is impossible to miss from ``repro info``.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.experiments import (
    check_campaign_settings,
    write_campaign_health_payload,
)
from repro.fleet.merge import MergeResult, merge_shards
from repro.fleet.plan import ChaosSpec, IngestSpec, ShardPlan, build_plan
from repro.fleet.supervisor import (
    FleetSupervisor,
    ShardOutcome,
    SupervisorPolicy,
)
from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.overlay import PolicyError, build_policy
from repro.simulator.channel import ChannelCatalogue, default_catalogue
from repro.traces.health import TraceHealth


@dataclass(frozen=True)
class FleetCampaignConfig:
    """Everything that defines a sharded campaign run."""

    campaign_dir: str | Path
    num_shards: int
    days: float = 14.0
    base_concurrency: float = 1_000.0
    seed: int = 2006
    with_flash_crowd: bool = True
    policy: str = "uusee"
    catalogue: ChannelCatalogue | None = None
    checkpoint_every_rounds: int = 36
    keep_last: int = 3
    records_per_segment: int = 100_000
    compress: bool = False
    fsync_on_flush: bool = False
    heartbeat_every_rounds: int = 1
    supervisor: SupervisorPolicy | None = None
    ingest: IngestSpec | None = None
    chaos: dict[int, ChaosSpec] | None = None


@dataclass
class FleetResult:
    """Outcome of a supervised sharded campaign."""

    campaign_dir: Path
    outcomes: dict[int, ShardOutcome]
    merge: MergeResult | None  # None when interrupted or shipping to ingest
    interrupted: bool

    @property
    def quarantined(self) -> list[int]:
        """Shard ids that were poisoned out of the campaign."""
        return [
            sid
            for sid, outcome in sorted(self.outcomes.items())
            if outcome.status == "quarantined"
        ]

    @property
    def completed(self) -> list[int]:
        """Shard ids that finished their full span."""
        return [
            sid
            for sid, outcome in sorted(self.outcomes.items())
            if outcome.status == "done"
        ]


def _fleet_health_payload(result: FleetResult, plan: ShardPlan) -> dict[str, Any]:
    """The campaign-root ``health.json`` payload for a fleet run."""
    health = TraceHealth()
    rounds = 0
    records = 0
    for outcome in result.outcomes.values():
        rounds = max(rounds, outcome.rounds_completed)
        if outcome.summary is not None:
            shard_health = outcome.summary.get("health")
            if isinstance(shard_health, dict):
                health.merge(TraceHealth(**shard_health))
            records += int(outcome.summary.get("trace_records", 0))
    shards = {
        str(outcome.shard_id): {
            "status": outcome.status,
            "rounds_completed": outcome.rounds_completed,
            "restarts": outcome.restarts,
            "channels": [c.channel_id for c in spec.channels],
            "rng_fingerprint": (
                outcome.summary.get("rng_fingerprint")
                if outcome.summary
                else None
            ),
        }
        for spec, outcome in zip(plan, result.outcomes.values())
    }
    incidents = [
        dataclasses.asdict(incident)
        for outcome in result.outcomes.values()
        for incident in outcome.incidents
    ]
    return {
        "rounds_completed": rounds,
        "trace_records": (
            result.merge.records if result.merge is not None else records
        ),
        "resumed_from_round": None,
        "interrupted": result.interrupted,
        "rng_fingerprint": None,
        "health": dataclasses.asdict(health),
        "fleet": {
            "num_shards": len(plan),
            "shards": shards,
            "incidents": incidents,
            "quarantined": result.quarantined,
            "merged_sha256": (
                result.merge.content_sha256 if result.merge is not None else None
            ),
        },
    }


def run_fleet_campaign(
    config: FleetCampaignConfig,
    *,
    stop: threading.Event | None = None,
    obs: AnyObserver = NULL_OBSERVER,
) -> FleetResult:
    """Run one supervised sharded campaign end to end.

    Restarts of this very function resume in place: finished shards are
    recognised by their ``done.json`` and skipped, unfinished ones
    resume from their newest valid checkpoint, and an already-valid
    merge is reused rather than recomputed.  ``stop`` (when set during
    the run) interrupts every worker gracefully; the merge is then
    deferred to the next, uninterrupted, invocation.  Bad settings
    (:func:`~repro.core.experiments.check_campaign_settings`) and a bad
    policy raise ``ValueError`` before any directory is made.
    """
    check_campaign_settings(
        days=config.days,
        base_concurrency=config.base_concurrency,
        checkpoint_every_rounds=config.checkpoint_every_rounds,
        keep_last=config.keep_last,
        records_per_segment=config.records_per_segment,
    )
    try:
        # Fail before any worker spawns: a bad spec would otherwise
        # crash every shard and read as a fleet-wide poison event.
        build_policy(config.policy)
    except PolicyError as exc:
        raise ValueError(f"invalid partner policy: {exc}") from exc
    campaign_dir = Path(config.campaign_dir)
    campaign_dir.mkdir(parents=True, exist_ok=True)
    catalogue = (
        config.catalogue if config.catalogue is not None else default_catalogue()
    )
    plan = build_plan(
        campaign_dir,
        num_shards=config.num_shards,
        days=config.days,
        base_concurrency=config.base_concurrency,
        seed=config.seed,
        catalogue=catalogue,
        with_flash_crowd=config.with_flash_crowd,
        policy=config.policy,
        checkpoint_every_rounds=config.checkpoint_every_rounds,
        keep_last=config.keep_last,
        records_per_segment=config.records_per_segment,
        compress=config.compress,
        fsync_on_flush=config.fsync_on_flush,
        heartbeat_every_rounds=config.heartbeat_every_rounds,
        ingest=config.ingest,
        chaos=config.chaos,
    )
    supervisor = FleetSupervisor(
        plan.specs,
        policy=config.supervisor,
        seed=config.seed,
        obs=obs,
    )
    watcher: threading.Thread | None = None
    if stop is not None:
        def _watch() -> None:
            stop.wait()
            supervisor.request_stop()

        watcher = threading.Thread(target=_watch, daemon=True)
        watcher.start()
    with obs.span("fleet.supervise"):
        outcomes = supervisor.run()
    if stop is not None and not stop.is_set():
        stop.set()  # release the watcher thread
    if watcher is not None:
        watcher.join(timeout=1.0)

    interrupted = any(o.status == "interrupted" for o in outcomes.values())
    merge: MergeResult | None = None
    if not interrupted and config.ingest is None:
        completed = [
            spec for spec in plan
            if outcomes[spec.shard_id].status == "done"
        ]
        if completed:
            merge = merge_shards(
                campaign_dir,
                completed,
                records_per_segment=config.records_per_segment,
                compress=config.compress,
                obs=obs,
            )
    result = FleetResult(
        campaign_dir=campaign_dir,
        outcomes=outcomes,
        merge=merge,
        interrupted=interrupted,
    )
    write_campaign_health_payload(
        campaign_dir, _fleet_health_payload(result, plan)
    )
    return result


__all__ = [
    "FleetCampaignConfig",
    "FleetResult",
    "run_fleet_campaign",
]
