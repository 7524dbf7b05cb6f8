"""Per-figure experiment plans and the one call that charts them (DESIGN.md Sec. 3).

Each ``figN_plan`` returns a :class:`FigurePlan`: what the paper figure
samples from a trace (any re-iterable of reports, e.g.
:class:`repro.traces.SegmentedTraceReader`) and how it finishes the
sampled series into exactly what the figure plots.  :data:`FIGURES`
names every figure ``repro analyze`` charts, with its plans and its
renderer, and :func:`chart` charts any set of figures or plans from one
read of the trace.
``run_campaign`` produces such traces from the simulator at a chosen
scale; the CLI, benchmarks and examples share it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from functools import partial
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Hashable, Iterable, Mapping
from typing import TYPE_CHECKING, Any, Generic, NamedTuple, TypeVar, cast

if TYPE_CHECKING:
    from repro.ingest.client import ReportClient

from repro.core import report
from repro.core.metrics import (
    DailyIpTally,
    DegreeSummary,
    IntraIspDegrees,
    ReciprocityMetrics,
    average_degrees,
    degree_distributions,
    intra_isp_degree_fractions,
    isp_shares,
    random_intra_isp_baseline,
    reciprocity_metrics,
    small_world,
    streaming_quality,
)
from repro.core.snapshots import TopologySnapshot, build_snapshot
from repro.core.timeseries import (
    MetricFn,
    Sampling,
    SnapshotSeries,
    sample_trace,
)
from repro.graph.degree import DegreeDistribution
from repro.ioutil import atomic_write_bytes
from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.overlay import (
    PolicyError,
    available_policies,
    build_policy,
    canonical_spec,
    parse_policy_spec,
)
from repro.graph.smallworld import SmallWorldMetrics
from repro.network.isp import IspDatabase, build_default_database
from repro.simulator.channel import ChannelCatalogue
from repro.simulator.checkpoint import (
    CheckpointError,
    CheckpointManager,
    draw_fingerprint,
    restore_into,
)
from repro.simulator.protocol import ProtocolConfig, SelectionPolicy
from repro.simulator.system import SystemConfig, UUSeeSystem
from repro.traces.health import TraceHealth
from repro.traces.records import PeerReport
from repro.traces.segments import SegmentedTraceStore
from repro.traces.store import iter_windows
from repro.workloads.flashcrowd import FlashCrowdEvent

SECONDS_PER_HOUR = 3_600.0
SECONDS_PER_DAY = 86_400.0

#: Default observation instants for Fig. 4: a normal Monday morning and
#: evening, and the flash-crowd Friday morning and evening (day 5 is the
#: simulated Oct 6 2006).
FIG4_SNAPSHOT_TIMES: dict[str, float] = {
    "9am normal": 1 * SECONDS_PER_DAY + 9 * SECONDS_PER_HOUR,
    "9pm normal": 1 * SECONDS_PER_DAY + 21 * SECONDS_PER_HOUR,
    "9am flash day": 5 * SECONDS_PER_DAY + 9 * SECONDS_PER_HOUR,
    "9pm flash crowd": 5 * SECONDS_PER_DAY + 21 * SECONDS_PER_HOUR,
}


# ------------------------------------------------------------------ runner


def normalize_policy(policy: SelectionPolicy | str) -> tuple[SelectionPolicy, str]:
    """Map a policy argument to the ``(policy, overlay)`` config pair.

    Legacy :class:`SelectionPolicy` values (and their bare spec strings)
    keep driving the ``policy`` enum with an empty ``overlay`` — the
    config token, checkpoint format and draw sequence of existing
    campaigns are untouched.  Any other registry spec (``locality:mix=0.8``)
    rides in ``SystemConfig.overlay`` in canonical form.  Raises
    :class:`~repro.overlay.PolicyError` for unknown names or parameters.
    """
    if isinstance(policy, SelectionPolicy):
        return policy, ""
    name, params = parse_policy_spec(policy)
    if name not in available_policies():
        raise PolicyError(
            f"unknown partner policy {name!r}; "
            f"available: {', '.join(available_policies())}"
        )
    build_policy(policy)  # validate the parameters eagerly
    if not params:
        try:
            return SelectionPolicy(name), ""
        except ValueError:
            pass
    return SelectionPolicy.UUSEE, canonical_spec(name, params)


def check_campaign_settings(
    *,
    days: float,
    base_concurrency: float,
    checkpoint_every_rounds: int,
    keep_last: int,
    records_per_segment: int,
) -> None:
    """Raise ``ValueError`` for a campaign setting no run can use.

    :func:`run_campaign` and :func:`repro.fleet.run_fleet_campaign`
    call it before they make a directory or spawn a worker, so a bad
    value leaves nothing on disk and the corrected rerun starts clean.
    """
    for name, value in (("days", days), ("base_concurrency", base_concurrency)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    for name, count in (
        ("checkpoint_every_rounds", checkpoint_every_rounds),
        ("keep_last", keep_last),
        ("records_per_segment", records_per_segment),
    ):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count!r}")


@dataclass
class CampaignResult:
    """Outcome of a (possibly resumed) crash-safe measurement campaign."""

    trace_dir: Path
    rounds_completed: int
    trace_records: int
    resumed_from_round: int | None  # None when started fresh
    health: TraceHealth  # recovery repairs + collection-side drops
    interrupted: bool = False  # a stop signal cut the run short (checkpointed)
    rng_fingerprint: str | None = None  # final named-RNG state digest
    content_sha256: str | None = None  # trace content digest (local stores only)
    policy_name: str = "uusee"  # partner-selection policy that drove the run
    policy_params: dict[str, float] = dataclasses.field(default_factory=dict)
    policy_spec: str = "uusee"  # canonical spec string (name[:k=v,...])


def run_campaign(
    trace_dir: str | Path,
    *,
    days: float = 14.0,
    base_concurrency: float = 1_000.0,
    seed: int = 2006,
    with_flash_crowd: bool = True,
    policy: SelectionPolicy | str = SelectionPolicy.UUSEE,
    protocol: ProtocolConfig | None = None,
    catalogue: ChannelCatalogue | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every_rounds: int = 36,
    keep_last: int = 3,
    resume: bool | str = False,
    records_per_segment: int = 100_000,
    compress: bool = False,
    fsync_on_flush: bool = False,
    checkpoint_scope: str = "",
    stop: Callable[[], bool] | None = None,
    on_round: Callable[[int], None] | None = None,
    compute_content_sha: bool = False,
    ingest: "ReportClient | None" = None,
    engine: str = "object",
    obs: AnyObserver = NULL_OBSERVER,
) -> CampaignResult:
    """Simulate a UUSee deployment into a crash-safe campaign directory.

    The defaults reproduce the paper's two selected weeks at ~1/100
    scale, including the day-5 flash crowd.  The trace goes to a
    :class:`~repro.traces.segments.SegmentedTraceStore` under
    ``trace_dir``; a checkpoint lands in ``checkpoint_dir`` (default
    ``trace_dir/checkpoints``) every ``checkpoint_every_rounds``
    completed rounds and once more at the end.

    With ``resume=True`` the newest valid checkpoint is restored, the
    segment store is crash-recovered and rolled back to the checkpoint's
    durable record cut, and the simulation continues until the requested
    ``days`` span — producing the same trace content, draw for draw, as
    a run that was never interrupted.  Resuming without any valid
    checkpoint raises :class:`~repro.simulator.checkpoint.CheckpointError`.

    With ``ingest`` set to a :class:`~repro.ingest.client.ReportClient`,
    reports ship over the network to a running
    :class:`~repro.ingest.service.TraceIngestService` instead of a local
    segment store; the in-flight loss model moves to the real wire, so
    the in-process coin flip is disabled (``trace_loss_rate=0.0`` — the
    draw sequence of every other RNG stream is unchanged).  The trace
    directory then lives server-side; ``trace_dir`` here still anchors
    the checkpoint directory and the client-side ``health.json``.
    Resuming an ingest campaign requires passing ``ingest`` again: the
    checkpoint carries the reporter's pending frames and sequence
    cursor, and the server deduplicates the replayed resends.

    ``resume="auto"`` is the supervised-restart mode: resume from the
    newest valid checkpoint when one exists, otherwise start fresh —
    recovering (and discarding, via ``rollback(0)``) whatever trace
    data a previous attempt left behind without ever reaching its first
    checkpoint.  A fleet worker restarted after any crash can always
    pass ``"auto"`` and converge on the uninterrupted campaign.

    ``stop`` is polled at every round boundary; when it returns true
    the campaign halts *after* the completed round, takes its final
    checkpoint, seals the store, and returns with ``interrupted=True``
    — a later ``resume`` continues exactly where it left off.
    ``on_round`` fires after every completed round (heartbeats).
    ``checkpoint_scope`` narrows the checkpoint config token (shard
    identity); ``compute_content_sha`` additionally digests the final
    trace content into ``CampaignResult.content_sha256``.  ``engine``
    accepts only ``"object"`` (see ``SystemConfig.engine``); any other
    value, or a setting :func:`check_campaign_settings` rejects, raises
    ``ValueError`` before anything is written.
    """
    check_campaign_settings(
        days=days,
        base_concurrency=base_concurrency,
        checkpoint_every_rounds=checkpoint_every_rounds,
        keep_last=keep_last,
        records_per_segment=records_per_segment,
    )
    if isinstance(resume, str) and resume != "auto":
        raise ValueError(f"resume must be True, False or 'auto', got {resume!r}")
    trace_dir = Path(trace_dir)
    ckpt_dir = (
        Path(checkpoint_dir) if checkpoint_dir is not None
        else trace_dir / "checkpoints"
    )
    policy_enum, overlay = normalize_policy(policy)
    config = SystemConfig(
        seed=seed,
        base_concurrency=base_concurrency,
        flash_crowd=FlashCrowdEvent() if with_flash_crowd else None,
        policy=policy_enum,
        overlay=overlay,
        protocol=protocol or ProtocolConfig(),
        engine=engine,
    )
    if ingest is not None:
        # Loss now happens on the real wire; the in-process coin flip
        # would double-apply it.  trace_server's RNG stream simply makes
        # zero draws — every other stream's sequence is untouched.
        config = dataclasses.replace(config, trace_loss_rate=0.0)
    manager = CheckpointManager(
        ckpt_dir, keep_last=keep_last, scope=checkpoint_scope, obs=obs
    )
    resumed_from: int | None = None
    store: "SegmentedTraceStore | ReportClient"
    found = manager.latest_valid() if resume else None
    if resume is True and found is None:
        raise CheckpointError(
            f"--resume: no valid checkpoint under {ckpt_dir}; "
            "start without --resume to begin a fresh campaign"
        )
    if found is not None:
        _, state = found
        if ingest is not None:
            store = ingest
        else:
            store = SegmentedTraceStore.recover(
                trace_dir, fsync_on_flush=fsync_on_flush, obs=obs
            )
            if state["trace_records"] is not None:
                store.rollback(state["trace_records"])
        system = UUSeeSystem(config, store, catalogue=catalogue, obs=obs)
        restore_into(system, state, scope=checkpoint_scope)
        resumed_from = system.rounds_completed
    else:
        if ingest is not None:
            store = ingest
        else:
            try:
                store = SegmentedTraceStore(
                    trace_dir,
                    records_per_segment=records_per_segment,
                    compress=compress,
                    fsync_on_flush=fsync_on_flush,
                    obs=obs,
                )
            except FileExistsError:
                if resume != "auto":
                    raise
                # A previous attempt died before its first checkpoint:
                # its trace data has no cut to rejoin, so recover the
                # store and discard everything — the fresh run
                # regenerates it all.
                store = SegmentedTraceStore.recover(
                    trace_dir, fsync_on_flush=fsync_on_flush, obs=obs
                )
                store.rollback(0)
        system = UUSeeSystem(config, store, catalogue=catalogue, obs=obs)
    remaining = days * SECONDS_PER_DAY - system.now
    finished = True
    if remaining > 1e-9:
        with obs.span("campaign.run"):
            finished = system.run(
                seconds=remaining,
                checkpoint=manager,
                checkpoint_every_rounds=checkpoint_every_rounds,
                stop=stop,
                on_round=on_round,
            )
    manager.save(system)  # final cut: a later --resume extends cleanly
    fingerprint = draw_fingerprint(system)
    store.close()
    health = TraceHealth()
    if ingest is not None:
        # The durable trace lives server-side; the client folds what it
        # can prove was lost (injected damage, spill overflow, reports
        # unacked at close) and counts what it delivered.
        ingest.fold_into(health)
        trace_records = ingest.reports_delivered
    else:
        health.merge(store.health)
        trace_records = len(store)
    system.trace_server.fold_into(health)
    content_sha: str | None = None
    if compute_content_sha and isinstance(store, SegmentedTraceStore):
        content_sha = store.content_sha256()
    partner_policy = system.partner_policy
    result = CampaignResult(
        trace_dir=trace_dir,
        rounds_completed=system.rounds_completed,
        trace_records=trace_records,
        resumed_from_round=resumed_from,
        health=health,
        interrupted=not finished,
        rng_fingerprint=fingerprint,
        content_sha256=content_sha,
        policy_name=partner_policy.name,
        policy_params=dict(partner_policy.params),
        policy_spec=partner_policy.spec(),
    )
    _write_campaign_health(result)
    return result


#: File name of the persisted campaign-health summary inside a trace dir.
CAMPAIGN_HEALTH_NAME = "health.json"
#: Backup of the previous valid summary, the tolerant-load fallback.
CAMPAIGN_HEALTH_PREV_NAME = "health.json.prev"


def _write_campaign_health(result: CampaignResult) -> None:
    """Persist collection/recovery accounting next to the trace segments.

    ``info``/``analyze`` read this back, so server-side drops and
    recovery repairs — which exist only inside the finished campaign
    process — survive for later inspection of the trace directory.
    Before replacing an existing *valid* summary the old file is kept
    as ``health.json.prev``; :func:`load_campaign_health` falls back to
    it when the primary copy is damaged or missing.
    """
    payload = {
        "rounds_completed": result.rounds_completed,
        "trace_records": result.trace_records,
        "resumed_from_round": result.resumed_from_round,
        "interrupted": result.interrupted,
        "rng_fingerprint": result.rng_fingerprint,
        "policy": {
            "name": result.policy_name,
            "params": result.policy_params,
            "spec": result.policy_spec,
        },
        "health": dataclasses.asdict(result.health),
    }
    write_campaign_health_payload(result.trace_dir, payload)


def write_campaign_health_payload(
    trace_dir: str | Path, payload: dict[str, object]
) -> None:
    """Atomically persist a ``health.json`` payload, keeping a backup.

    The previous file is promoted to ``health.json.prev`` only when it
    still parses — a damaged primary never overwrites a good backup.
    """
    trace_dir = Path(trace_dir)
    primary = trace_dir / CAMPAIGN_HEALTH_NAME
    previous = _read_health_file(primary)
    if previous is not None:
        atomic_write_bytes(
            trace_dir / CAMPAIGN_HEALTH_PREV_NAME,
            (json.dumps(previous, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
    atomic_write_bytes(
        primary,
        (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )


def _read_health_file(path: Path) -> dict[str, object] | None:
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return None
    try:
        payload = json.loads(raw)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def load_campaign_health(trace_dir: str | Path) -> dict[str, object] | None:
    """Read a campaign directory's persisted ``health.json`` (or None).

    Tolerant: a primary copy damaged by a crash mid-campaign (or
    deleted by hand) falls back to the ``health.json.prev`` backup kept
    by the previous successful write, so ``info`` keeps reporting the
    newest summary that ever survived intact.
    """
    trace_dir = Path(trace_dir)
    payload = _read_health_file(trace_dir / CAMPAIGN_HEALTH_NAME)
    if payload is not None:
        return payload
    return _read_health_file(trace_dir / CAMPAIGN_HEALTH_PREV_NAME)


# ------------------------------------------------------------ figure plans

R = TypeVar("R")
K = TypeVar("K", bound=Hashable)


@dataclass(frozen=True)
class FigurePlan(Generic[R]):
    """One figure, split in two: what it samples, and what it makes of it.

    ``sampling`` says which windows and metrics the figure needs from a
    pass over the trace; ``finish`` turns the sampled series into the
    figure's result.  Any number of plans share one pass through
    :func:`chart`.  A plan is single-use: its sampling may tally into
    state that ``finish`` reads.
    """

    sampling: Sampling
    finish: Callable[[SnapshotSeries], R]


# ------------------------------------------------------------------ Fig. 1


@dataclass
class Fig1Result:
    """Fig. 1(A) series plus Fig. 1(B) daily aggregates."""

    series: SnapshotSeries  # columns: total, stable
    daily: list[tuple[int, int, int]]  # (day, total IPs, stable IPs)

    def stable_ratio(self, *, skip_first_hours: float = 12.0) -> float:
        """Mean stable/total ratio after warm-up."""
        ratios = [
            stable / total
            for t, total, stable in zip(
                self.series.times,
                self.series.column("total"),
                self.series.column("stable"),
            )
            if t >= skip_first_hours * SECONDS_PER_HOUR and total
        ]
        return sum(ratios) / len(ratios) if ratios else 0.0

    def peak_hour_of_day(self, *, skip_first_hours: float = 12.0) -> float:
        """Hour of day at which total population peaks on average."""
        by_hour: dict[int, list[int]] = {}
        for t, total in zip(self.series.times, self.series.column("total")):
            if t < skip_first_hours * SECONDS_PER_HOUR:
                continue
            by_hour.setdefault(int((t % SECONDS_PER_DAY) // 3600), []).append(total)
        means = {h: sum(v) / len(v) for h, v in by_hour.items()}
        return max(means, key=means.get)

    def flash_crowd_boost(self, flash_time: float) -> float:
        """Population at the flash crowd vs the same hour one week later."""
        week_later = flash_time + 7 * SECONDS_PER_DAY

        def nearest_total(when: float) -> int:
            best = min(self.series.times, key=lambda t: abs(t - when))
            idx = self.series.times.index(best)
            return self.series.column("total")[idx]

        reference = nearest_total(week_later)
        return nearest_total(flash_time) / reference if reference else 0.0


def _snapshot_num_total(snapshot: TopologySnapshot) -> int:
    return snapshot.num_total


def _snapshot_num_stable(snapshot: TopologySnapshot) -> int:
    return snapshot.num_stable


def fig1_plan(*, observe_every: float = 3_600.0) -> FigurePlan[Fig1Result]:
    """Fig. 1: peer counts per sampled window, daily IPs from every report."""
    tally = DailyIpTally()
    return FigurePlan(
        Sampling(
            {"total": _snapshot_num_total, "stable": _snapshot_num_stable},
            every=observe_every,
            on_report=tally.add,
        ),
        lambda series: Fig1Result(series=series, daily=tally.rows()),
    )


# ------------------------------------------------------------------ Fig. 2


def fig2_plan(
    db: IspDatabase | None = None, *, observe_every: float = 6 * SECONDS_PER_HOUR
) -> FigurePlan[dict[str, float]]:
    """Fig. 2: ISP shares per sampled window, averaged."""
    db = db or build_default_database()
    return FigurePlan(
        Sampling({"shares": partial(isp_shares, db=db)}, every=observe_every),
        _mean_shares,
    )


def _mean_shares(series: SnapshotSeries) -> dict[str, float]:
    totals: dict[str, float] = {}
    count = 0
    # A trace shorter than observe_every yields no sampled windows at all.
    for shares in series.values.get("shares", ()):
        if not shares:
            continue
        count += 1
        for name, value in shares.items():
            totals[name] = totals.get(name, 0.0) + value
    return {name: value / count for name, value in totals.items()} if count else {}


# ------------------------------------------------------------------ Fig. 3


@dataclass
class Fig3Result:
    """Per-channel streaming-quality series."""

    series: SnapshotSeries  # one column per channel name
    channels: dict[str, int]

    def mean_quality(self, channel: str, *, skip_first_hours: float = 12.0) -> float:
        """Mean satisfied fraction for a channel after warm-up."""
        values = [
            v
            for t, v in zip(self.series.times, self.series.column(channel))
            if v is not None and t >= skip_first_hours * SECONDS_PER_HOUR
        ]
        return sum(values) / len(values) if values else 0.0

    def quality_at(self, channel: str, when: float) -> float | None:
        """Satisfied fraction at the observation nearest to ``when``."""
        best_idx = min(
            range(len(self.series.times)),
            key=lambda i: abs(self.series.times[i] - when),
        )
        return self.series.column(channel)[best_idx]


def fig3_plan(
    *,
    channels: dict[str, int] | None = None,
    stream_rate_kbps: float = 400.0,
    observe_every: float = 3_600.0,
) -> FigurePlan[Fig3Result]:
    """Fig. 3: each channel's satisfied fraction per sampled window."""
    chosen = channels or {"CCTV1": 0, "CCTV4": 1}
    metrics: dict[str, MetricFn] = {
        name: partial(
            streaming_quality,
            channel_id=cid,
            stream_rate_kbps=stream_rate_kbps,
        )
        for name, cid in chosen.items()
    }
    return FigurePlan(
        Sampling(metrics, every=observe_every),
        lambda series: Fig3Result(series=series, channels=chosen),
    )


# ------------------------------------------------------------------ Fig. 4


@dataclass
class Fig4Result:
    """Degree distributions at the paper's four observation instants."""

    distributions: dict[str, dict[str, DegreeDistribution]]  # label -> kind

    def kind_at(self, label: str, kind: str) -> DegreeDistribution:
        """Distribution of one degree kind at one snapshot label."""
        return self.distributions[label][kind]


def fig4_plan(
    *,
    snapshot_times: dict[str, float] | None = None,
    window_seconds: float = 600.0,
) -> FigurePlan[Fig4Result]:
    """Fig. 4: degree distributions of the windows holding fixed instants.

    ``window_seconds`` must match the pass the plan is sampled in.
    Finishing raises ``ValueError`` when the trace holds no window for
    some instant.
    """
    wanted = dict(snapshot_times or FIG4_SNAPSHOT_TIMES)

    def finish(series: SnapshotSeries) -> Fig4Result:
        out: dict[str, dict[str, DegreeDistribution]] = {}
        for window_start, row in series.rows():
            for label, t in wanted.items():
                if label not in out and window_start <= t < window_start + window_seconds:
                    out[label] = cast("dict[str, DegreeDistribution]", row["degrees"])
        missing = set(wanted) - set(out)
        if missing:
            raise ValueError(f"trace too short for snapshots: {sorted(missing)}")
        return Fig4Result(distributions=out)

    return FigurePlan(
        Sampling({"degrees": degree_distributions}, instants=tuple(wanted.values())),
        finish,
    )


# ------------------------------------------------------------------ Fig. 5


@dataclass
class Fig5Result:
    """Evolution of average degrees."""

    series: SnapshotSeries  # column 'degrees' of DegreeSummary

    def summaries(self) -> list[DegreeSummary]:
        """All per-window degree summaries, in time order."""
        return list(self.series.column("degrees"))

    def mean_indegree(self, *, skip_first_hours: float = 12.0) -> float:
        """Mean active indegree after warm-up (paper: flat ~10)."""
        vals = [
            d.mean_indegree
            for t, d in zip(self.series.times, self.series.column("degrees"))
            if t >= skip_first_hours * SECONDS_PER_HOUR
        ]
        return sum(vals) / len(vals) if vals else 0.0

    def partner_count_range(self, *, skip_first_hours: float = 12.0) -> tuple[float, float]:
        """(min, max) of the mean partner count after warm-up."""
        vals = [
            d.mean_partners
            for t, d in zip(self.series.times, self.series.column("degrees"))
            if t >= skip_first_hours * SECONDS_PER_HOUR
        ]
        return (min(vals), max(vals)) if vals else (0.0, 0.0)


def fig5_plan(*, observe_every: float = 3_600.0) -> FigurePlan[Fig5Result]:
    """Fig. 5: mean degrees per sampled window."""
    return FigurePlan(
        Sampling({"degrees": average_degrees}, every=observe_every), Fig5Result
    )


# ------------------------------------------------------------------ Fig. 6


@dataclass
class Fig6Result:
    """Evolution of intra-ISP degree fractions, plus the random baseline."""

    series: SnapshotSeries  # column 'intra' of IntraIspDegrees
    random_baseline: float

    def mean_fractions(self, *, skip_first_hours: float = 12.0) -> tuple[float, float]:
        """(intra-ISP indegree, outdegree) fractions after warm-up."""
        rows: list[IntraIspDegrees] = [
            v
            for t, v in zip(self.series.times, self.series.column("intra"))
            if t >= skip_first_hours * SECONDS_PER_HOUR
        ]
        if not rows:
            return (0.0, 0.0)
        return (
            sum(r.indegree_fraction for r in rows) / len(rows),
            sum(r.outdegree_fraction for r in rows) / len(rows),
        )


def fig6_plan(
    db: IspDatabase | None = None, *, observe_every: float = 3_600.0
) -> FigurePlan[Fig6Result]:
    """Fig. 6: intra-ISP degree fractions per sampled window."""
    isps = db or build_default_database()
    return FigurePlan(
        Sampling(
            {"intra": partial(intra_isp_degree_fractions, db=isps)},
            every=observe_every,
        ),
        lambda series: Fig6Result(
            series=series, random_baseline=random_intra_isp_baseline(isps)
        ),
    )


# ------------------------------------------------------------------ Fig. 7


@dataclass
class Fig7Result:
    """Small-world metric series for a graph family (global or one ISP)."""

    series: SnapshotSeries  # column 'sw' of SmallWorldMetrics
    isp: str | None

    def metrics(self) -> list[SmallWorldMetrics]:
        """All per-window small-world metrics, in time order."""
        return list(self.series.column("sw"))

    def mean_clustering_ratio(self, *, skip_first_hours: float = 12.0) -> float:
        """Mean C/C_random after warm-up (paper: >10x)."""
        vals = [
            m.clustering_ratio
            for t, m in zip(self.series.times, self.series.column("sw"))
            if t >= skip_first_hours * SECONDS_PER_HOUR
            and m.clustering_ratio != float("inf")
        ]
        return sum(vals) / len(vals) if vals else 0.0

    def mean_path_ratio(self, *, skip_first_hours: float = 12.0) -> float:
        """Mean L/L_random after warm-up (paper: ~1x)."""
        vals = [
            m.path_length_ratio
            for t, m in zip(self.series.times, self.series.column("sw"))
            if t >= skip_first_hours * SECONDS_PER_HOUR and m.path_length_ratio > 0
        ]
        return sum(vals) / len(vals) if vals else 0.0


def fig7_plan(
    *,
    isp: str | None = None,
    db: IspDatabase | None = None,
    observe_every: float = 6 * SECONDS_PER_HOUR,
    seed: int = 0,
) -> FigurePlan[Fig7Result]:
    """Fig. 7: small-world metrics per sampled window (one ISP's, if set)."""
    db = db or build_default_database()
    return FigurePlan(
        Sampling(
            {"sw": partial(small_world, isp=isp, db=db, seed=seed)},
            every=observe_every,
        ),
        lambda series: Fig7Result(series=series, isp=isp),
    )


# ------------------------------------------------------------------ Fig. 8


@dataclass
class Fig8Result:
    """Edge-reciprocity series: all links, intra-ISP, inter-ISP."""

    series: SnapshotSeries  # column 'rho' of ReciprocityMetrics

    def metrics(self) -> list[ReciprocityMetrics]:
        """All per-window reciprocity metrics, in time order."""
        return list(self.series.column("rho"))

    def means(self, *, skip_first_hours: float = 12.0) -> ReciprocityMetrics:
        """Mean rho (all/intra/inter) after warm-up."""
        rows = [
            m
            for t, m in zip(self.series.times, self.series.column("rho"))
            if t >= skip_first_hours * SECONDS_PER_HOUR
        ]
        n = len(rows) or 1
        from repro.core.metrics import ReciprocityMetrics as RM

        return RM(
            all_links=sum(m.all_links for m in rows) / n,
            intra_isp=sum(m.intra_isp for m in rows) / n,
            inter_isp=sum(m.inter_isp for m in rows) / n,
            num_edges=sum(m.num_edges for m in rows) // n,
        )


def fig8_plan(
    db: IspDatabase | None = None, *, observe_every: float = 3_600.0
) -> FigurePlan[Fig8Result]:
    """Fig. 8: reciprocity (all, intra-, inter-ISP) per sampled window."""
    db = db or build_default_database()
    return FigurePlan(
        Sampling({"rho": partial(reciprocity_metrics, db=db)}, every=observe_every),
        Fig8Result,
    )


# ------------------------------------------- windowed structure series


def _window_degrees(snapshot: TopologySnapshot) -> object:
    return degree_distributions(snapshot)


def _window_reciprocity(snapshot: TopologySnapshot) -> float:
    from repro.graph.reciprocity import edge_reciprocity

    return edge_reciprocity(snapshot.active_compact())


def _window_clustering(snapshot: TopologySnapshot) -> float:
    from repro.graph.clustering import average_clustering

    return average_clustering(snapshot.stable_undirected_compact())


#: The per-window structural metrics :func:`windows_plan` maintains
#: incrementally, as the snapshot kernels that are its test oracle.
WINDOW_STRUCTURE_METRICS: dict[str, MetricFn] = {
    "degrees": _window_degrees,
    "reciprocity": _window_reciprocity,
    "clustering": _window_clustering,
}


def windows_plan(
    *,
    window_seconds: float = 600.0,
    observe_every: float | None = None,
    active_threshold: int = 10,
    obs: AnyObserver = NULL_OBSERVER,
) -> FigurePlan[SnapshotSeries]:
    """Per-window degree/reciprocity/clustering series over a trace.

    One :class:`~repro.soa.incremental.IncrementalWindowMetrics` rides
    the pass as the sampling's ``on_window`` consumer: the
    delta-maintained state advances on every window and yields a row on
    each window starting on a multiple of ``observe_every`` (default:
    every window; ``window_seconds`` must match the pass).  The rows
    equal :func:`~repro.core.timeseries.observe` with
    :data:`WINDOW_STRUCTURE_METRICS` bit for bit; no snapshot is built.
    """
    from repro.soa.incremental import IncrementalWindowMetrics

    state = IncrementalWindowMetrics(active_threshold=active_threshold)

    def advance(window_reports: list[PeerReport]) -> dict[str, object]:
        with obs.span("analytics.incremental_window"):
            row = state.update(window_reports)
        if obs.enabled:
            obs.count("analytics.incremental_windows")
        return row

    every = window_seconds if observe_every is None else observe_every
    return FigurePlan(Sampling({}, every=every, on_window=advance), lambda series: series)


def windowed_structure(
    trace: Iterable[PeerReport],
    *,
    window_seconds: float = 600.0,
    observe_every: float | None = None,
    active_threshold: int = 10,
    obs: AnyObserver = NULL_OBSERVER,
) -> SnapshotSeries:
    """The windows figure alone: :func:`windows_plan` charted in one pass."""
    plan = windows_plan(
        window_seconds=window_seconds,
        observe_every=observe_every,
        active_threshold=active_threshold,
        obs=obs,
    )
    return chart(trace, {None: plan}, window_seconds=window_seconds, obs=obs)[None]


# -------------------------------------------------------- the figure table


class Figure(NamedTuple):
    """One figure ``repro analyze`` charts: its plans and their renderer.

    ``plans(window_seconds, obs)`` makes fresh plans for a pass of that
    window length; ``render(csv_dir, *results)`` prints their results,
    writes the figure's CSV files into ``csv_dir`` (when set) and
    returns the figure's JSON payload.
    """

    plans: Callable[[float, AnyObserver], tuple[FigurePlan[Any], ...]]
    render: Callable[..., dict[str, object]]


#: Every figure by its ``repro analyze --figure`` name.  Fig. 7 charts
#: the whole stable-peer graph and China Netcom's subgraph.
FIGURES: dict[str, Figure] = {
    "fig1": Figure(lambda w, obs: (fig1_plan(),), report.render_fig1),
    "fig2": Figure(lambda w, obs: (fig2_plan(),), report.render_fig2),
    "fig3": Figure(lambda w, obs: (fig3_plan(),), report.render_fig3),
    "fig4": Figure(lambda w, obs: (fig4_plan(window_seconds=w),), report.render_fig4),
    "fig5": Figure(lambda w, obs: (fig5_plan(),), report.render_fig5),
    "fig6": Figure(lambda w, obs: (fig6_plan(),), report.render_fig6),
    "fig7": Figure(
        lambda w, obs: (fig7_plan(), fig7_plan(isp="China Netcom")), report.render_fig7
    ),
    "fig8": Figure(lambda w, obs: (fig8_plan(),), report.render_fig8),
    "windows": Figure(
        lambda w, obs: (windows_plan(window_seconds=w, obs=obs),), report.render_windows
    ),
}


def chart(
    trace: Iterable[PeerReport],
    figures: Iterable[str] | Mapping[K, FigurePlan[Any]],
    *,
    window_seconds: float = 600.0,
    obs: AnyObserver = NULL_OBSERVER,
) -> dict[Any, Any]:
    """Chart figures from one pass over ``trace``.

    ``figures`` is either names from :data:`FIGURES`, each mapped to the
    tuple of its plans' results (Fig. 7: global, then China Netcom), or
    explicit plans by key (an ablation's or an ISP's variant), each
    mapped to its plan's result.  Every plan samples the same single
    :func:`~repro.core.timeseries.sample_trace` pass.  A figure whose
    result cannot be made (its ``finish`` raises ``ValueError``: Fig. 4
    on a trace too short for its instants) maps to that error instead;
    an error reading the trace is raised.
    """
    by_name = not isinstance(figures, Mapping)
    if isinstance(figures, Mapping):
        groups = {key: (plan,) for key, plan in figures.items()}
    else:
        groups = {name: FIGURES[name].plans(window_seconds, obs) for name in figures}
    series = sample_trace(
        trace,
        {
            (key, i): plan.sampling
            for key, plans in groups.items()
            for i, plan in enumerate(plans)
        },
        window_seconds=window_seconds,
        obs=obs,
    )
    results: dict[Any, Any] = {}
    for key, plans in groups.items():
        try:
            done = tuple(plan.finish(series[key, i]) for i, plan in enumerate(plans))
        except ValueError as exc:
            results[key] = exc
        else:
            results[key] = done if by_name else done[0]
    return results


# perfbench/tracer.py looks these old driver names up in every analyze
# worker and wraps them, so they stay until it stops; nothing in the
# repository calls them.  Chart through :func:`chart` instead.
fig1_scale = chart
fig2_isp_shares = chart
fig3_streaming_quality = chart
fig4_degree_distributions = chart
fig5_degree_evolution = chart
fig6_intra_isp_degrees = chart
fig7_small_world = chart
fig8_reciprocity = chart


# -------------------------------------------------- overlay comparison


#: The comparative overlay study's default line-up: the paper's protocol
#: plus the four literature alternatives at their default parameters.
DEFAULT_OVERLAY_SPECS: tuple[str, ...] = (
    "uusee",
    "locality:mix=0.75",
    "hamiltonian:k=2",
    "random-regular:d=4",
    "strandcast",
)

#: Column headers of the overlay-comparison table, in row order.
OVERLAY_TABLE_HEADERS: tuple[str, ...] = (
    "policy",
    "peers",
    "partners (mean)",
    "indegree (max)",
    "C",
    "C/C_rand",
    "rho",
    "intra-ISP in",
    "quality",
)


@dataclass
class OverlayStudyRow:
    """One policy's Magellan metric suite over its final trace window."""

    spec: str  # canonical policy spec that produced the run
    num_peers: int  # stable peers in the measured snapshot
    mean_partners: float  # Fig. 4/5: mean partner degree
    max_indegree: int  # Fig. 4: max active indegree
    clustering: float  # Fig. 7: clustering coefficient C
    clustering_ratio: float  # Fig. 7: C / C_random
    reciprocity: float  # Fig. 8: rho over all links
    intra_isp_indegree: float  # Fig. 6: intra-ISP fraction of indegree
    quality: float | None  # Fig. 3: satisfied fraction, channel 0

    def table_row(self) -> list[object]:
        """Row values matching :data:`OVERLAY_TABLE_HEADERS`."""
        ratio = (
            "inf" if self.clustering_ratio == float("inf")
            else f"{self.clustering_ratio:.1f}"
        )
        return [
            self.spec,
            self.num_peers,
            f"{self.mean_partners:.1f}",
            self.max_indegree,
            f"{self.clustering:.3f}",
            ratio,
            f"{self.reciprocity:.3f}",
            f"{self.intra_isp_indegree:.3f}",
            "n/a" if self.quality is None else f"{self.quality:.2f}",
        ]


@dataclass
class OverlayComparison:
    """Cross-policy study: one metric row per overlay, shared settings."""

    rows: list[OverlayStudyRow]
    random_intra_baseline: float  # ISP-blind intra-ISP expectation
    hours: float
    base_concurrency: float
    seed: int

    def markdown(self) -> str:
        """The study as a GitHub-flavoured markdown table."""
        lines = [
            "| " + " | ".join(OVERLAY_TABLE_HEADERS) + " |",
            "|" + "|".join("---" for _ in OVERLAY_TABLE_HEADERS) + "|",
        ]
        for row in self.rows:
            lines.append(
                "| " + " | ".join(str(v) for v in row.table_row()) + " |"
            )
        return "\n".join(lines)


def compare_overlays(
    specs: Iterable[str] = DEFAULT_OVERLAY_SPECS,
    *,
    hours: float = 6.0,
    base_concurrency: float = 120.0,
    seed: int = 2006,
    window_seconds: float = 600.0,
    db: IspDatabase | None = None,
    obs: AnyObserver = NULL_OBSERVER,
) -> OverlayComparison:
    """Run the same deployment under each overlay and measure it.

    Every policy gets an identical simulator configuration (same seed,
    same churn, same channel catalogue, no flash crowd) differing only
    in ``SystemConfig.overlay``; the full Magellan metric suite then
    reads each run's final trace window.  The per-policy rows land in
    EXPERIMENTS.md's cross-policy table via ``repro compare-overlays``.
    """
    from repro.traces.store import InMemoryTraceStore

    db = db or build_default_database()
    rows: list[OverlayStudyRow] = []
    for spec in specs:
        policy_enum, overlay = normalize_policy(spec)
        config = SystemConfig(
            seed=seed,
            base_concurrency=base_concurrency,
            flash_crowd=None,
            policy=policy_enum,
            overlay=overlay,
        )
        store = InMemoryTraceStore()
        system = UUSeeSystem(config, store, obs=obs)
        with obs.span("overlay.run"):
            system.run(seconds=hours * SECONDS_PER_HOUR)
        final: tuple[float, list[PeerReport]] | None = None
        for window_start, window_reports in iter_windows(store, window_seconds):
            if window_reports:
                final = (window_start, list(window_reports))
        if final is None:
            raise ValueError(
                f"policy {spec!r} produced no reports in {hours} h; "
                "raise --hours or --base"
            )
        with obs.span("analytics.snapshot"):
            snapshot = build_snapshot(
                final[1], time=final[0], window_seconds=window_seconds
            )
        degrees = degree_distributions(snapshot)
        sw = small_world(snapshot, db=db, seed=seed)
        rho = reciprocity_metrics(snapshot, db=db)
        intra = intra_isp_degree_fractions(snapshot, db=db)
        rows.append(
            OverlayStudyRow(
                spec=system.partner_policy.spec(),
                num_peers=snapshot.num_stable,
                mean_partners=degrees["partners"].mean(),
                max_indegree=degrees["in"].max_degree(),
                clustering=sw.clustering,
                clustering_ratio=sw.clustering_ratio,
                reciprocity=rho.all_links,
                intra_isp_indegree=intra.indegree_fraction,
                quality=streaming_quality(
                    snapshot, channel_id=0, stream_rate_kbps=400.0
                ),
            )
        )
    return OverlayComparison(
        rows=rows,
        random_intra_baseline=random_intra_isp_baseline(db),
        hours=hours,
        base_concurrency=base_concurrency,
        seed=seed,
    )
