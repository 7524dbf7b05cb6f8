"""Command-line interface: ``python -m repro <command>``.

Seven subcommands cover the whole pipeline:

- ``run``      — simulate a UUSee deployment into a crash-safe campaign
  directory (its Magellan trace in rotating segments + periodic
  checkpoints); ``--resume`` continues a killed campaign,
  ``--shards N`` partitions the channels across N supervised worker
  subprocesses (heartbeats, crash-resume, poison-shard quarantine),
  ``--obs-dir`` records live metrics/spans while it runs, and
  ``--ingest`` ships reports over the network to a ``repro serve``
  ingestion server instead of writing locally; SIGTERM/SIGINT stop
  gracefully (final checkpoint, sealed trace, exit code 3);
- ``serve``    — run the trace ingestion service (UDP + TCP on
  loopback, crash-tolerant admission, SIGTERM drains gracefully);
- ``analyze``  — regenerate any paper figure (or all) from a campaign
  directory, printing series (or ``--json``) and optionally exporting
  CSV;
- ``info``     — summarise a trace (span, peers, reports, dynamics), or
  query a live ingest server's health with ``--server``;
- ``obs``      — observability utilities (``obs summarize <dir>``);
- ``qa``       — determinism & correctness static analysis (the CI gate);
- ``compare-overlays`` — run the same deployment under every
  partner-selection policy (``--policies``) and print the cross-policy
  Magellan metric table (DESIGN.md Sec. 11).

``run`` accepts ``--policy NAME[:key=val,...]`` specs from the overlay
registry (``uusee``, ``random``, ``tree``, ``locality``,
``hamiltonian``, ``random-regular``, ``strandcast``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core import experiments as ex
from repro.core.dynamics import trace_dynamics
from repro.core.report import format_table, format_trace_health
from repro.obs.exporters import create_observer, finalize_observer
from repro.obs.summarize import render_summary
from repro.overlay import PolicyError, available_policies
from repro.qa.cli import add_qa_arguments, run_qa
from repro.simulator.checkpoint import CheckpointError
from repro.simulator.protocol import SelectionPolicy
from repro.traces.segments import SegmentedTraceReader
from repro.traces.store import TraceFormatError

if TYPE_CHECKING:
    from repro.fleet.plan import IngestSpec

#: What ``--figure all`` charts; the windows figure is charted alone.
FIGURES = tuple(name for name in ex.FIGURES if name != "windows")
TRACE_HELP = (
    "campaign directory written by `repro run` (a lone legacy "
    ".jsonl[.gz] trace file reads as a one-segment trace)"
)


def _add_obs_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs-dir", type=Path,
        help="record metrics and spans into this directory (read it with "
        "`repro obs summarize`; `serve` also answers METRICS)",
    )


def _add_segment_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--segment-records", type=int, default=100_000,
        help="records per trace segment before rotation",
    )
    parser.add_argument(
        "--compress", action="store_true", help="gzip trace segments"
    )


def _add_trace_options(parser: argparse.ArgumentParser, *, required: bool) -> None:
    parser.add_argument("--trace", type=Path, required=required, help=TRACE_HELP)
    parser.add_argument(
        "--tolerant",
        action="store_true",
        help="read a dirty trace (skip/dedup/re-sort bad records) and "
        "print a trace-health summary",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Magellan (ICDCS 2007) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="crash-safe campaign: segmented trace + checkpoints (--resume)",
    )
    run.add_argument(
        "--trace-dir", type=Path, required=True,
        help="campaign directory (rotating trace segments + manifest)",
    )
    run.add_argument(
        "--checkpoint-dir", type=Path,
        help="checkpoint directory (default: <trace-dir>/checkpoints)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="restore the newest valid checkpoint, recover the trace "
        "store and continue the campaign (with --shards: resume every "
        "shard in place)",
    )
    run.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition the campaign's channels across N supervised "
        "worker subprocesses (crash-resume, backoff, quarantine); "
        "their traces merge deterministically when all finish",
    )
    run.add_argument(
        "--max-restarts", type=int, default=3, metavar="K",
        help="consecutive no-progress failures before a shard is "
        "quarantined as poisoned (fleet mode)",
    )
    run.add_argument(
        "--heartbeat-timeout", type=float, default=30.0, metavar="SECONDS",
        help="worker silence tolerated before it is declared hung "
        "and SIGKILLed (fleet mode)",
    )
    run.add_argument(
        "--progress-timeout", type=float, default=120.0, metavar="SECONDS",
        help="longest a worker may heartbeat without completing new "
        "rounds before it is declared hung (fleet mode)",
    )
    run.add_argument("--days", type=float, default=2.0)
    run.add_argument("--base", type=float, default=500.0, help="base concurrency")
    run.add_argument("--seed", type=int, default=2006)
    run.add_argument(
        "--policy",
        default=SelectionPolicy.UUSEE.value,
        metavar="SPEC",
        help="partner-selection policy spec NAME[:key=val,...] "
        f"(available: {', '.join(available_policies())})",
    )
    run.add_argument(
        "--no-flash-crowd", action="store_true",
        help="disable the day-5 flash crowd event",
    )
    run.add_argument(
        "--engine",
        choices=("object",),
        default="object",
        help="exchange backend; 'object' is the only one",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=36, metavar="ROUNDS",
        help="checkpoint every N completed rounds (default 36 = 6 h)",
    )
    run.add_argument(
        "--keep-last", type=int, default=3,
        help="checkpoints retained in rotation",
    )
    _add_segment_options(run)
    run.add_argument(
        "--fsync", action="store_true",
        help="fsync the trace on every flush (bounds power-cut loss)",
    )
    _add_obs_dir(run)
    run.add_argument(
        "--ingest", metavar="TARGET",
        help="report to a running `repro serve` instead of a local "
        "store: HOST:TCP[:UDP] or the path of its --port-file",
    )
    run.add_argument(
        "--ingest-transport", choices=("tcp", "udp"), default="tcp",
        help="tcp = durable at-least-once with server dedup (default); "
        "udp = fire-and-forget, the paper's collection semantics",
    )
    run.add_argument(
        "--ingest-loss", type=float, default=0.0, metavar="RATE",
        help="inject deterministic datagram loss at this rate on the "
        "reporter's UDP path (accounted, for fault-harness runs)",
    )
    run.add_argument(
        "--ingest-shard", type=int, default=0, metavar="ID",
        help="reporter shard identity; frames dedup server-side by "
        "(shard, seq), so every campaign sharing a server needs its "
        "own shard",
    )

    serve = sub.add_parser(
        "serve",
        help="trace ingestion service: UDP+TCP admission on loopback, "
        "crash-tolerant storage, graceful SIGTERM drain",
    )
    serve.add_argument(
        "--trace-dir", type=Path, required=True,
        help="server-side trace directory (crash-recovered if it "
        "already holds segments + an admission journal)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--tcp-port", type=int, default=0, help="0 = ephemeral")
    serve.add_argument("--udp-port", type=int, default=0, help="0 = ephemeral")
    serve.add_argument(
        "--port-file", type=Path,
        help="write the bound ports as one-line JSON once listening "
        "(the rendezvous for `run --ingest <path>`)",
    )
    _add_segment_options(serve)
    serve.add_argument(
        "--queue-high", type=int, default=8_192, metavar="REPORTS",
        help="admission-queue high watermark (backpressure above)",
    )
    serve.add_argument(
        "--queue-low", type=int, default=2_048, metavar="REPORTS",
        help="low watermark (resume reading TCP producers below)",
    )
    _add_obs_dir(serve)

    ana = sub.add_parser("analyze", help="regenerate paper figures from a trace")
    _add_trace_options(ana, required=True)
    ana.add_argument(
        "--figure",
        choices=FIGURES + ("windows", "all"),
        default="all",
        help="which figure to regenerate ('windows' is the incremental "
        "per-window structure series; not part of 'all')",
    )
    ana.add_argument("--csv-dir", type=Path, help="also export series as CSV")
    ana.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document instead of formatted tables",
    )
    _add_obs_dir(ana)

    info = sub.add_parser("info", help="summarise a trace")
    _add_trace_options(info, required=False)
    info.add_argument(
        "--server", metavar="HOST:PORT",
        help="query a live ingest server's HEALTH instead of a trace",
    )

    obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_sum = obs_sub.add_parser(
        "summarize",
        help="render span timings and counters from an --obs-dir",
    )
    obs_sum.add_argument("obs_dir", type=Path, help="directory passed as --obs-dir")

    qa = sub.add_parser(
        "qa", help="determinism & correctness static analysis (REP rules)"
    )
    add_qa_arguments(qa)

    cmp = sub.add_parser(
        "compare-overlays",
        help="run the same deployment under each partner policy and "
        "print the cross-policy Magellan metric table",
    )
    cmp.add_argument(
        "--policies",
        default=",".join(ex.DEFAULT_OVERLAY_SPECS),
        metavar="SPEC[,SPEC...]",
        help="comma-separated policy specs to compare "
        f"(default: {','.join(ex.DEFAULT_OVERLAY_SPECS)})",
    )
    cmp.add_argument("--hours", type=float, default=6.0, help="simulated hours per policy")
    cmp.add_argument("--base", type=float, default=120.0, help="base concurrency")
    cmp.add_argument("--seed", type=int, default=2006)
    cmp.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document instead of the formatted table",
    )
    cmp.add_argument(
        "--markdown",
        action="store_true",
        help="emit the GitHub-flavoured markdown table (for EXPERIMENTS.md)",
    )
    return parser


def cmd_compare_overlays(args: argparse.Namespace) -> int:
    specs = [s.strip() for s in args.policies.split(",") if s.strip()]
    if not specs:
        print("error: --policies lists no policy specs", file=sys.stderr)
        return 2
    if not args.json and not args.markdown:
        # Keep the machine-readable outputs clean for redirection.
        print(
            f"comparing {len(specs)} overlays over {args.hours:g} h at base "
            f"concurrency {args.base:.0f} (seed {args.seed}) ..."
        )
    try:
        study = ex.compare_overlays(
            specs,
            hours=args.hours,
            base_concurrency=args.base,
            seed=args.seed,
        )
    except (PolicyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        doc = {
            "hours": study.hours,
            "base_concurrency": study.base_concurrency,
            "seed": study.seed,
            "random_intra_baseline": study.random_intra_baseline,
            "rows": [dataclasses.asdict(row) for row in study.rows],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.markdown:
        print(study.markdown())
    else:
        print(format_table(
            list(ex.OVERLAY_TABLE_HEADERS),
            [row.table_row() for row in study.rows],
            title="overlay comparison",
        ))
    print(f"ISP-blind intra-ISP baseline: {study.random_intra_baseline:.3f}")
    return 0


def _parse_ingest_target(target: str) -> tuple[str, int, int]:
    """Resolve ``--ingest`` into (host, tcp_port, udp_port).

    Accepts ``HOST:TCP[:UDP]`` or the path of a ``repro serve``
    ``--port-file`` (a one-line JSON object with ``tcp``/``udp``).
    """
    path = Path(target)
    if path.exists():
        ports = json.loads(path.read_text(encoding="utf-8"))
        return "127.0.0.1", int(ports["tcp"]), int(ports["udp"])
    parts = target.rsplit(":", 2)
    if len(parts) == 2:
        host, tcp = parts
        return host, int(tcp), int(tcp)
    if len(parts) == 3:
        host, tcp, udp = parts
        return host, int(tcp), int(udp)
    raise ValueError(
        f"--ingest expects HOST:TCP[:UDP] or a port file, got {target!r}"
    )


def _ingest_spec(args: argparse.Namespace) -> IngestSpec | None:
    """``run``'s reporter settings (``--ingest*``), or None to write locally.

    Raises ``ValueError``, ``OSError`` or ``KeyError`` for a bad target
    or loss rate.
    """
    from repro.fleet.plan import IngestSpec

    if args.ingest is None:
        return None
    host, tcp_port, udp_port = _parse_ingest_target(args.ingest)
    return IngestSpec(
        host=host,
        tcp_port=tcp_port,
        udp_port=udp_port,
        transport=args.ingest_transport,
        loss_rate=args.ingest_loss,
        shard_base=args.ingest_shard,
    )


@contextlib.contextmanager
def _graceful_stop():
    """SIGTERM/SIGINT set an event instead of killing the process.

    ``repro run`` polls the event at round boundaries, takes a final
    checkpoint, seals the trace store and exits with code 3 — so an
    operator's Ctrl-C (or a scheduler's SIGTERM) always leaves a
    campaign that ``--resume`` continues losslessly.
    """
    import signal
    import threading

    stop = threading.Event()

    def _handler(signum: int, frame: object) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _handler)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        yield stop
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _cmd_run_fleet(args: argparse.Namespace) -> int:
    """The ``run --shards N`` path: a supervised sharded campaign."""
    from repro.fleet import FleetCampaignConfig, run_fleet_campaign
    from repro.fleet.supervisor import SupervisorPolicy

    try:
        ingest_spec = _ingest_spec(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = FleetCampaignConfig(
        campaign_dir=args.trace_dir,
        num_shards=args.shards,
        days=args.days,
        base_concurrency=args.base,
        seed=args.seed,
        with_flash_crowd=not args.no_flash_crowd,
        policy=args.policy,
        checkpoint_every_rounds=args.checkpoint_every,
        keep_last=args.keep_last,
        records_per_segment=args.segment_records,
        compress=args.compress,
        fsync_on_flush=args.fsync,
        supervisor=SupervisorPolicy(
            heartbeat_timeout_s=args.heartbeat_timeout,
            progress_timeout_s=args.progress_timeout,
            max_restarts=args.max_restarts,
        ),
        ingest=ingest_spec,
    )
    obs = create_observer(args.obs_dir)
    try:
        with _graceful_stop() as stop:
            result = run_fleet_campaign(config, stop=stop, obs=obs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.obs_dir is not None:
            finalize_observer(obs, args.obs_dir)
    for sid, outcome in sorted(result.outcomes.items()):
        restarts = f", {outcome.restarts} restarts" if outcome.restarts else ""
        print(
            f"shard {sid}: {outcome.status} "
            f"({outcome.rounds_completed} rounds{restarts})"
        )
    if result.quarantined:
        print(
            f"QUARANTINED shards: {result.quarantined} — their channels "
            "are missing from the merged trace (see health.json)"
        )
    if result.interrupted:
        print(
            f"campaign interrupted; every shard checkpointed — "
            f"rerun the same command to resume in {args.trace_dir}"
        )
        return 3
    if not result.completed:
        print(
            "error: no shard completed; the campaign has no trace "
            "(see health.json)",
            file=sys.stderr,
        )
        return 1
    if result.merge is not None:
        print(
            f"campaign complete: {result.merge.records} reports merged "
            f"from {len(result.merge.shards)} shards into {args.trace_dir}"
        )
        print(f"merged trace sha256: {result.merge.content_sha256}")
    else:
        print(f"campaign complete: reports shipped to {args.ingest}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    try:
        # Before the observer, the reporter or the campaign makes a
        # directory: a bad value leaves nothing behind.
        ex.check_campaign_settings(
            days=args.days,
            base_concurrency=args.base,
            checkpoint_every_rounds=args.checkpoint_every,
            keep_last=args.keep_last,
            records_per_segment=args.segment_records,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.shards > 1:
        verb = "resuming" if args.resume else "starting"
        print(
            f"{verb} {args.shards}-shard campaign in {args.trace_dir}: "
            f"{args.days} days at base concurrency {args.base:.0f} "
            f"(seed {args.seed}, policy {args.policy}) ..."
        )
        return _cmd_run_fleet(args)
    verb = "resuming" if args.resume else "starting"
    print(
        f"{verb} campaign in {args.trace_dir}: {args.days} days at base "
        f"concurrency {args.base:.0f} (seed {args.seed}, policy {args.policy}) ..."
    )
    try:
        ingest_spec = _ingest_spec(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    obs = create_observer(args.obs_dir)
    ingest = None
    if ingest_spec is not None:
        ingest = ingest_spec.reporter(seed=args.seed, obs=obs)
        print(
            f"reporting over {ingest_spec.transport} to {ingest_spec.host}:"
            f"{ingest_spec.tcp_port} (udp {ingest_spec.udp_port})"
        )
    try:
        with _graceful_stop() as stop:
            result = ex.run_campaign(
                args.trace_dir,
                days=args.days,
                base_concurrency=args.base,
                seed=args.seed,
                with_flash_crowd=not args.no_flash_crowd,
                policy=args.policy,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every_rounds=args.checkpoint_every,
                keep_last=args.keep_last,
                resume=args.resume,
                records_per_segment=args.segment_records,
                compress=args.compress,
                fsync_on_flush=args.fsync,
                stop=stop.is_set,
                ingest=ingest,
                engine=args.engine,
                obs=obs,
            )
    except (CheckpointError, FileExistsError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Flush metrics even when the campaign errors out: a partial
        # event log is exactly what post-mortems need.
        if args.obs_dir is not None:
            finalize_observer(obs, args.obs_dir)
    if result.resumed_from_round is not None:
        print(f"resumed from checkpoint at round {result.resumed_from_round}")
    if result.interrupted:
        print(
            f"campaign interrupted at round {result.rounds_completed}: "
            f"checkpoint taken, trace sealed — resume with --resume"
        )
    else:
        print(
            f"campaign complete: {result.rounds_completed} rounds, "
            f"{result.trace_records} reports in {result.trace_dir}"
        )
    if result.health.dirty:
        print(format_trace_health(result.health, title="campaign health"))
    if args.obs_dir is not None:
        print(
            f"observability data in {args.obs_dir} "
            f"(inspect with: repro obs summarize {args.obs_dir})"
        )
    return 3 if result.interrupted else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.ingest.service import TraceIngestService

    obs = create_observer(args.obs_dir)
    try:
        service = TraceIngestService.open(
            args.trace_dir,
            records_per_segment=args.segment_records,
            compress=args.compress,
            host=args.host,
            tcp_port=args.tcp_port,
            udp_port=args.udp_port,
            queue_high_reports=args.queue_high,
            queue_low_reports=args.queue_low,
            obs=obs,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        service.run(
            port_file=args.port_file,
            announce=lambda tcp, udp: print(
                f"ingest listening tcp={tcp} udp={udp} "
                f"trace-dir={args.trace_dir}",
                flush=True,
            ),
        )
    finally:
        if args.obs_dir is not None:
            finalize_observer(obs, args.obs_dir)
    health = service.merged_health()
    print(
        f"drained: {service.stats.reports_stored} reports stored, "
        f"{service.stats.reports_shed} shed, "
        f"{service.stats.frames_quarantined} frames quarantined"
    )
    if health.dirty:
        print(format_trace_health(health, title="ingest health"))
    return 0


def _query_server_health(target: str) -> dict[str, object]:
    """One HEALTH round-trip against a live ingest server."""
    import socket

    host, _, port = target.rpartition(":")
    with socket.create_connection((host or "127.0.0.1", int(port)), timeout=5.0) as sock:
        sock.sendall(b"HEALTH\n")
        buf = bytearray()
        while not buf.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            buf += chunk
    payload = json.loads(buf.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("unexpected HEALTH reply")
    return payload


def _campaign_health_rows(health: dict[str, object]) -> list[list[object]]:
    """Collection/recovery accounting rows from a persisted health.json."""
    counters = health.get("health")
    counters = counters if isinstance(counters, dict) else {}
    rows: list[list[object]] = [
        ["rounds completed", health.get("rounds_completed", "?")],
        ["trace records", health.get("trace_records", "?")],
        ["resumed from round", health.get("resumed_from_round")],
    ]
    policy = health.get("policy")
    if isinstance(policy, dict):
        rows.append(["partner policy", policy.get("spec", policy.get("name", "?"))])
        params = policy.get("params")
        if isinstance(params, dict) and params:
            rows.append([
                "policy params",
                ", ".join(f"{k}={v}" for k, v in sorted(params.items())),
            ])
    rows += [
        ["server-dropped reports", counters.get("server_dropped", 0)],
        ["quarantined records (recovery)", counters.get("quarantined", 0)],
        ["truncated lines (recovery)", counters.get("truncated_lines", 0)],
        ["parse failures (recovery)", counters.get("parse_failures", 0)],
    ]
    fleet = health.get("fleet")
    if isinstance(fleet, dict):
        rows.append(["fleet shards", fleet.get("num_shards", "?")])
        shards = fleet.get("shards")
        if isinstance(shards, dict):
            for sid, shard in sorted(shards.items(), key=lambda kv: int(kv[0])):
                if not isinstance(shard, dict):
                    continue
                restarts = shard.get("restarts", 0)
                suffix = f", {restarts} restarts" if restarts else ""
                rows.append(
                    [
                        f"shard {sid}",
                        f"{shard.get('status', '?')} "
                        f"({shard.get('rounds_completed', '?')} rounds{suffix})",
                    ]
                )
        quarantined = fleet.get("quarantined")
        if quarantined:
            rows.append(["QUARANTINED shards", quarantined])
        incidents = fleet.get("incidents")
        if isinstance(incidents, list) and incidents:
            rows.append(["fleet incidents", len(incidents)])
            for incident in incidents:
                if not isinstance(incident, dict):
                    continue
                rows.append(
                    [
                        f"  {incident.get('kind', '?')} "
                        f"shard {incident.get('shard_id', '?')}",
                        incident.get("detail", ""),
                    ]
                )
    return rows


def _print_campaign_health(trace_path: Path) -> None:
    health = ex.load_campaign_health(trace_path)
    if health is None:
        return
    print()
    print(format_table(
        ["property", "value"],
        _campaign_health_rows(health),
        title=f"campaign health {trace_path}",
    ))


def _run_figures(trace, figures, csv_dir, obs) -> dict[str, object]:
    """Chart ``figures`` from one shared trace pass and render each.

    A figure whose result cannot be made (Fig. 4 on a trace too short
    for its instants) is skipped; a strict read error aborts the pass.
    """
    if figures == ("windows",):
        # Looked up at call time: perfbench/tracer.py times the windows
        # figure by wrapping this driver.
        results = {"windows": (ex.windowed_structure(trace, obs=obs),)}
    else:
        results = ex.chart(trace, figures, obs=obs)
    payloads: dict[str, object] = {}
    for fig, result in results.items():
        if isinstance(result, ValueError):
            payloads[fig] = {"skipped": str(result)}
            print(f"{fig}: skipped ({result})")
        else:
            payloads[fig] = ex.FIGURES[fig].render(csv_dir, *result)
        print()
    return payloads


def _trace_error(exc: TraceFormatError) -> int:
    """Report a damaged trace on stderr; the exit status for it."""
    print(
        f"error: {exc}\n(--tolerant skips and counts damaged records)",
        file=sys.stderr,
    )
    return 2


def cmd_analyze(args: argparse.Namespace) -> int:
    if not args.trace.exists():
        print(f"error: no such trace: {args.trace}", file=sys.stderr)
        return 2
    trace = SegmentedTraceReader(args.trace, tolerant=args.tolerant)
    figures = FIGURES if args.figure == "all" else (args.figure,)
    if args.csv_dir:
        args.csv_dir.mkdir(parents=True, exist_ok=True)
    obs = create_observer(args.obs_dir)
    try:
        if args.json:
            with contextlib.redirect_stdout(io.StringIO()):
                payloads = _run_figures(trace, figures, args.csv_dir, obs)
            doc: dict[str, object] = {"trace": str(args.trace), "figures": payloads}
            if args.tolerant:
                doc["trace_health"] = dataclasses.asdict(trace.health)
            campaign_health = ex.load_campaign_health(args.trace)
            if campaign_health is not None:
                doc["campaign_health"] = campaign_health
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            _run_figures(trace, figures, args.csv_dir, obs)
            if args.tolerant:
                print(format_trace_health(trace.health, title=f"trace health {args.trace}"))
            _print_campaign_health(args.trace)
    except TraceFormatError as exc:
        return _trace_error(exc)
    finally:
        if args.obs_dir is not None:
            finalize_observer(obs, args.obs_dir)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    if args.server is not None:
        try:
            payload = _query_server_health(args.server)
        except (OSError, ValueError) as exc:
            print(f"error: cannot query {args.server}: {exc}", file=sys.stderr)
            return 2
        health = payload.get("health")
        stats = payload.get("stats")
        rows: list[list[object]] = [
            ["stored records", payload.get("records", "?")],
            ["queued reports", payload.get("queued_reports", "?")],
        ]
        if isinstance(stats, dict):
            rows += [[name.replace("_", " "), value] for name, value in sorted(stats.items())]
        if isinstance(health, dict):
            rows += [
                [f"health: {name.replace('_', ' ')}", value]
                for name, value in sorted(health.items())
                if value
            ]
        print(format_table(
            ["property", "value"], rows, title=f"ingest server {args.server}"
        ))
        return 0
    if args.trace is None:
        print("error: info needs --trace or --server", file=sys.stderr)
        return 2
    if not args.trace.exists():
        print(f"error: no such trace: {args.trace}", file=sys.stderr)
        return 2
    trace = SegmentedTraceReader(args.trace, tolerant=args.tolerant)
    try:
        dynamics = trace_dynamics(trace)
    except TraceFormatError as exc:
        return _trace_error(exc)
    if dynamics.reports == 0:
        # An interrupted fleet campaign has no merged root trace yet,
        # but its health summary (per-shard status, incidents) is
        # exactly what an operator checking on it needs.
        print("empty trace")
        _print_campaign_health(args.trace)
        return 0
    sessions = dynamics.sessions
    span_days = (dynamics.last_time - dynamics.first_time) / 86_400.0
    rows = [
        ["reports", dynamics.reports],
        ["reporting peers (stable IPs)", sessions.num_peers],
        ["channels", dynamics.channels],
        ["span (days)", round(span_days, 2)],
        ["mean reporting span (min)", round(sessions.mean_span_s / 60.0, 1)],
        ["mean reports per peer", round(sessions.mean_reports_per_peer, 1)],
        ["mean window turnover rate", round(dynamics.mean_turnover_rate, 3)],
        ["mean partner-list jaccard", round(dynamics.stability.mean_jaccard, 3)],
    ]
    print(format_table(["property", "value"], rows, title=f"trace {args.trace}"))
    if args.tolerant:
        print()
        print(format_trace_health(trace.health, title=f"trace health {args.trace}"))
    _print_campaign_health(args.trace)
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "summarize":
        if not args.obs_dir.is_dir():
            print(f"error: no such obs directory: {args.obs_dir}", file=sys.stderr)
            return 2
        print(render_summary(args.obs_dir))
        return 0
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "info":
        return cmd_info(args)
    if args.command == "obs":
        return cmd_obs(args)
    if args.command == "qa":
        return run_qa(args)
    if args.command == "compare-overlays":
        return cmd_compare_overlays(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
