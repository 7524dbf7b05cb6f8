"""One benchmark phase in a fresh process; ``run.py`` starts these.

    python3 perfbench/worker.py {campaign,collect,analyze} --workload W
        --seed N --seconds S --work DIR [--trace --spans FILE]

``campaign`` warms a system (its set-up) and runs the timed window of
rounds into an on-disk campaign.  ``collect`` is the set-up of the
analysis workload: it collects the week the analysis reads.
``analyze`` runs the analysis job on that week.  Each reports its
timings split into pieces (rounds, figures) so that ``run.py`` can
compare the same piece across repeated processes, and each checks its
outputs.  With ``--trace`` every layer boundary records spans.  The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time includes importing the program

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from tracer import (  # noqa: E402
    FIGURE_DRIVERS,
    SpanRecorder,
    install,
    install_figure_clock,
)
from workloads import WARM_S, WORKLOADS, timed_rounds  # noqa: E402

#: Windows after the first 12 simulated hours, as the figure benchmarks skip.
SKIP_HOURS = 12.0
#: Figures of ``repro analyze --figure all``.
FIGURES = tuple(f for f in FIGURE_DRIVERS if f != "windows")


def peak_rss_mb() -> float:
    """High-water RSS of this process (``VmHWM``; ``ru_maxrss`` elsewhere)."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def span(rec: SpanRecorder | None, name: str) -> contextlib.AbstractContextManager[Any]:
    return rec.span(name) if rec is not None else contextlib.nullcontext()


def run_defaults() -> argparse.Namespace:
    """``repro run``'s defaults: engine, policy, store and checkpoint settings."""
    from repro.cli import build_parser

    return build_parser().parse_args(["run", "--trace-dir", "."])


def trace_size(trace_dir: Path) -> tuple[int, str]:
    """Bytes on disk and sha256 of the trace segments, in order."""
    from repro.traces.segments import SegmentedTraceReader

    digest = hashlib.sha256()
    size = 0
    for path in SegmentedTraceReader(trace_dir).segment_paths():
        data = path.read_bytes()
        size += len(data)
        digest.update(data)
    return size, digest.hexdigest()


def check_reread(trace_dir: Path, records: int, round_s: float) -> list[str]:
    """A strict re-read of the closed store finds ``records`` reports and
    never goes back a report window (the program's time order)."""
    from repro.traces.segments import SegmentedTraceReader

    problems = []
    count, last, ordered = 0, 0.0, True
    for report in SegmentedTraceReader(trace_dir):  # strict
        count += 1
        window = report.time // round_s
        ordered = ordered and window >= last
        last = window
    if count != records:
        problems.append(f"strict re-read found {count} records, expected {records}")
    if not ordered:
        problems.append("re-read trace regresses across report windows")
    return problems


class RoundClock:
    """Times each round of a run and, between rounds, probes the host.

    Pass :meth:`between_rounds` as the run's ``on_round``; the probes
    fall between the timed pieces, never inside one.
    """

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        host.probe()
        self.starts = [time.perf_counter()]
        self.ends: list[float] = []

    def between_rounds(self, _round: int) -> None:
        self.ends.append(time.perf_counter())
        self.host.probe()
        self.starts.append(time.perf_counter())

    def pieces(self) -> list[float]:
        """Wall time of each round, then of the close-out up to now."""
        rounds = [end - start for start, end in zip(self.starts, self.ends)]
        return rounds + [time.perf_counter() - self.starts[-1]]


# -- campaigns ----------------------------------------------------------------


def _round_span_totals(obs: Any) -> dict[str, float]:
    registry = getattr(obs, "registry", None)
    if registry is None:
        return {}
    hists = registry.histograms()
    names = ("round.membership", "round.ticks", "round.exchange", "round.reports")
    return {name: hists[name].total for name in names if name in hists}


def campaign(
    spec: dict[str, Any], seed: int, seconds: float, observe: bool, rec: SpanRecorder | None
) -> dict[str, Any]:
    """Warm a system, then run whole rounds into an on-disk campaign.

    Assembled as ``repro run`` assembles it (segmented store, checkpoint
    manager, final checkpoint, and with ``observe`` the observer that
    ``--obs-dir`` adds), with every setting taken from ``repro run``'s
    defaults.
    """
    from repro.core.experiments import normalize_policy
    from repro.obs import create_observer, finalize_observer
    from repro.simulator import SystemConfig, UUSeeSystem
    from repro.simulator.checkpoint import CheckpointManager, draw_fingerprint
    from repro.traces.segments import SegmentedTraceStore

    args = run_defaults()
    policy, overlay = normalize_policy(args.policy)
    config = SystemConfig(
        seed=seed,
        base_concurrency=spec["base"],
        flash_crowd=None,
        policy=policy,
        overlay=overlay,
        engine=args.engine,
    )
    obs_dir = Path("obs") if observe else None
    obs = create_observer(obs_dir)
    trace_dir = Path("trace")
    store = SegmentedTraceStore(
        trace_dir,
        records_per_segment=args.segment_records,
        compress=args.compress,
        fsync_on_flush=args.fsync,
        obs=obs,
    )
    manager = CheckpointManager(trace_dir / "checkpoints", keep_last=args.keep_last, obs=obs)
    system = UUSeeSystem(config, store, obs=obs)
    every = args.checkpoint_every
    setup_host = HostSpeed(enabled=rec is None)
    system.run(
        seconds=WARM_S,
        checkpoint=manager,
        checkpoint_every_rounds=every,
        on_round=lambda _: setup_host.probe(),
    )
    setup_s = time.perf_counter() - T_START - setup_host.spent
    warm_fingerprint = draw_fingerprint(system)
    rounds = timed_rounds(spec, seconds)

    first = system.rounds_completed
    received0 = system.trace_server.received
    arrivals, departures = system.total_arrivals, system.total_departures
    obs_before = _round_span_totals(obs)
    if rec is not None:
        rec.enable()
    host = HostSpeed(enabled=rec is None)
    clock = RoundClock(host)
    with span(rec, "campaign.window"):
        system.run(
            seconds=rounds * config.protocol.round_seconds,
            checkpoint=manager,
            checkpoint_every_rounds=every,
            on_round=clock.between_rounds,
        )
        manager.save(system)  # the final cut every campaign takes
        store.close()
        obs_after = _round_span_totals(obs)
        finalize_observer(obs, obs_dir)
    pieces = clock.pieces()
    if rec is not None:
        rec.disable()

    stats = system.round_stats[first:]
    problems = []
    if len(stats) != rounds:
        problems.append(f"{len(stats)} rounds ran, {rounds} expected")
    bad = [i for i, s in enumerate(stats, start=first + 1) if s.viewers <= 0 or s.transfers <= 0]
    if bad:
        problems.append(f"rounds without viewers or transfers: {bad}")
    received = system.trace_server.received
    if len(store) != received:
        problems.append(f"store holds {len(store)} records, server received {received}")
    problems += check_reread(trace_dir, received, config.protocol.round_seconds)
    size, _ = trace_size(trace_dir)
    return {
        "setup_s": setup_s,
        "setup_host": setup_host.factor(),
        "host": host.factor(),
        "attempted": rounds,
        "failed": len(bad) + max(0, rounds - len(stats)),
        "problems": problems,
        "rounds": rounds,
        "pieces": pieces,
        "reports": received - received0,
        "peak_rss_mb": peak_rss_mb(),
        "trace_bytes_per_report": size / received,
        "identity": {
            "warm_fingerprint": warm_fingerprint,
            "content_sha256": store.content_sha256(),
            "draw_fingerprint": draw_fingerprint(system),
        },
        "arrivals": system.total_arrivals - arrivals,
        "departures": system.total_departures - departures,
        "obs_round_s": {k: obs_after[k] - obs_before.get(k, 0.0) for k in obs_after},
    }


# -- analysis -----------------------------------------------------------------


def collect(spec: dict[str, Any], seed: int, rec: SpanRecorder | None) -> dict[str, Any]:
    """Set-up of the analysis workload: ``run_campaign`` collects the week,
    called with ``repro run``'s defaults as ``repro run --obs-dir`` calls
    it: observability on, where rounds are cheapest and it weighs most."""
    from repro.core.experiments import run_campaign
    from repro.obs import create_observer, finalize_observer
    from repro.simulator.protocol import ProtocolConfig

    args = run_defaults()
    trace_dir = Path("week")
    obs_dir = Path("obs")
    obs = create_observer(obs_dir)
    if rec is not None:
        rec.enable()
    host = HostSpeed(enabled=rec is None)
    clock = RoundClock(host)
    with span(rec, "campaign.window"):
        result = run_campaign(
            trace_dir,
            days=spec["days"],
            base_concurrency=spec["base"],
            seed=seed,
            policy=args.policy,
            checkpoint_every_rounds=args.checkpoint_every,
            keep_last=args.keep_last,
            records_per_segment=args.segment_records,
            compress=args.compress,
            fsync_on_flush=args.fsync,
            engine=args.engine,
            on_round=clock.between_rounds,
            obs=obs,
        )
        counters = obs.registry.counters()
        round_s = _round_span_totals(obs)
        finalize_observer(obs, obs_dir)
    pieces = clock.pieces()
    setup_s = time.perf_counter() - T_START - host.spent
    if rec is not None:
        rec.disable()
    size, sha = trace_size(trace_dir)
    stored = result.trace_records
    problems = check_reread(trace_dir, stored, ProtocolConfig().round_seconds)
    return {
        "setup_s": setup_s,
        "setup_host": host.factor(),
        "host": host.factor(),
        "attempted": result.rounds_completed,
        "failed": 0,
        "problems": problems,
        "rounds": result.rounds_completed,
        "pieces": pieces,
        "reports": stored,
        "trace_bytes_per_report": size / stored,
        "identity": {"content_sha256": sha, "draw_fingerprint": result.rng_fingerprint},
        "arrivals": counters.get("sim.arrivals", 0.0),
        "departures": counters.get("sim.departures", 0.0),
        "obs_round_s": round_s,
    }


def analyze(trace: str, figure: str, clock: SpanRecorder, host: HostSpeed) -> dict[str, Any]:
    """``repro analyze --json`` through the program's CLI entry point.

    Splits the command's wall time into the figure drivers it called
    and the rest of the command (parsing, opening, rendering); the host
    probes after each driver are no part of either.
    """
    from repro.cli import main

    host.probe()
    before = clock.totals()
    probes = host.spent
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), clock.span("cli.analyze"):
        code = main(["analyze", "--trace", trace, "--figure", figure, "--json"])
    wall = time.perf_counter() - start
    after = clock.totals()
    pieces = {}
    for fig in FIGURE_DRIVERS:
        name = f"cli.{fig}"
        spent = after.get(name, (0, 0.0, 0.0))[1] - before.get(name, (0, 0.0, 0.0))[1]
        if spent > 0.0:
            pieces[f"{figure}:{fig}"] = spent
    pieces[f"{figure}:rest"] = wall - sum(pieces.values()) - (host.spent - probes)
    text = buf.getvalue()
    return {
        "wall": wall,
        "code": code,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "figures": json.loads(text)["figures"] if code == 0 else {},
        "pieces": pieces,
    }


def figure_failures(result: dict[str, Any], expected: tuple[str, ...]) -> list[str]:
    """Figures that are missing, skipped or empty: each a failed operation."""
    if result["code"] != 0:
        return [f"{fig}: analyze exited {result['code']}" for fig in expected]
    bad = []
    for fig in expected:
        payload = result["figures"].get(fig)
        if not isinstance(payload, dict) or not payload:
            bad.append(f"{fig}: missing")
        elif "skipped" in payload:
            bad.append(f"{fig}: skipped ({payload['skipped']})")
        elif fig == "windows" and not payload.get("rows"):
            bad.append("windows: no rows")
    return bad


def _after_warmup(rows: list[list[float]]) -> list[list[float]]:
    return [row for row in rows if row[0] >= SKIP_HOURS]


def findings_problems(figures: dict[str, Any]) -> list[str]:
    """The paper's qualitative findings, in the direction the paper reports.

    Clustering above its random-graph baseline (Fig. 7), intra-ISP
    degree fractions above the ISP-blind baseline (Fig. 6), and positive
    reciprocity, higher inside ISPs than across them (Fig. 8), each
    averaged over the windows after the first 12 simulated hours.
    """
    problems = []
    try:
        sw = _after_warmup(figures["fig7"]["global"]["rows"])
        c = statistics.fmean(r[1] for r in sw)
        c_rand = statistics.fmean(r[2] for r in sw)
        if not c > c_rand:
            problems.append(f"fig7: C {c:.3f} not above C_rand {c_rand:.3f}")
        fig6 = figures["fig6"]
        intra = _after_warmup(fig6["rows"])
        baseline = fig6["random_baseline"]
        for col, label in ((1, "in"), (2, "out")):
            frac = statistics.fmean(r[col] for r in intra)
            if not frac > baseline:
                problems.append(
                    f"fig6: intra-ISP {label}-fraction {frac:.3f} not above "
                    f"ISP-blind baseline {baseline:.3f}"
                )
        rho = _after_warmup(figures["fig8"]["rows"])
        rho_all = statistics.fmean(r[1] for r in rho)
        rho_intra = statistics.fmean(r[2] for r in rho)
        rho_inter = statistics.fmean(r[3] for r in rho)
        if not rho_all > 0.0:
            problems.append(f"fig8: rho {rho_all:.3f} not positive")
        if not rho_intra > rho_inter:
            problems.append(f"fig8: rho_intra {rho_intra:.3f} not above rho_inter {rho_inter:.3f}")
    except (KeyError, IndexError, TypeError, statistics.StatisticsError) as exc:
        problems.append(f"figure payload unusable: {exc!r}")
    return problems


def analyze_week(rec: SpanRecorder | None) -> dict[str, Any]:
    """The timed job of the analysis workload: every figure, then the windows."""
    clock = rec
    host = HostSpeed(enabled=rec is None)
    if clock is None:
        clock = SpanRecorder()
        install_figure_clock(clock, after=host.probe)
    clock.enable()
    figures = analyze("week", "all", clock, host)
    windows = analyze("week", "windows", clock, host)
    clock.disable()
    bad = figure_failures(figures, FIGURES) + figure_failures(windows, ("windows",))
    problems = list(bad)
    if figures["code"] == 0:
        problems += findings_problems(figures["figures"])
    return {
        "attempted": len(FIGURES) + 1,
        "failed": len(bad),
        "problems": problems,
        "rounds": 0,
        "host": host.factor(),
        "pieces": dict(figures["pieces"], **windows["pieces"]),
        "figures_s": figures["wall"],
        "windows_s": windows["wall"],
        "peak_rss_mb": peak_rss_mb(),
        "identity": {"figures_sha256": figures["sha256"], "windows_sha256": windows["sha256"]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=("campaign", "collect", "analyze"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--obs", action="store_true", help="observability on (campaign)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    spans_path = args.spans.resolve() if args.spans else None
    args.work.mkdir(parents=True, exist_ok=True)
    os.chdir(args.work)  # relative trace paths keep analyze output identical
    rec = None
    if args.trace:
        rec = SpanRecorder()
        install(rec)
    if args.phase == "campaign":
        result = campaign(spec, args.seed, args.seconds, args.obs, rec)
    elif args.phase == "collect":
        result = collect(spec, args.seed, rec)
    else:
        result = analyze_week(rec)
    if rec is not None:
        result["spans"] = {k: list(v) for k, v in sorted(rec.totals().items())}
        result["counts"] = rec.counts
        if spans_path is not None:
            rec.write(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
