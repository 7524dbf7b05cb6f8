"""End-to-end benchmark of the Magellan reproduction (see README.md).

    python3 perfbench/run.py --workload steady-5k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all              # every workload
    python3 perfbench/run.py --workload all --trace 1    # per-layer tables
    python3 perfbench/run.py --record 10                 # 10 seeds, history.jsonl

Run from the root of a checkout.  Every phase runs in a fresh
single-threaded worker process (``worker.py``); this process only
orchestrates, checks and reports.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
HISTORY = BENCH / "history.jsonl"
sys.path.insert(0, str(BENCH))

from tracer import FIGURE_DRIVERS, METRIC_KERNELS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The benchmark's definition: metric names and units, per kind.
SPEC_FILE = ROOT / "BENCHMARK.json"
#: Wall-clock budget of one invocation, below the 180 s a run may take.
BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def worker(
    phase: str,
    workload: str,
    seed: int,
    seconds: float,
    work: Path,
    deadline: float,
    spans: Path | None = None,
    observe: bool = False,
) -> dict[str, Any]:
    """Run one phase in a fresh process and return its JSON result."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), phase,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--work", str(work),
    ]
    if spans is not None:
        cmd += ["--trace", "--spans", str(spans)]
    if observe:
        cmd.append("--obs")
    src = str(ROOT / "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise WorkerError(f"{workload} {phase}: out of time budget")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} {phase}: timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} {phase}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def typical(samples: list[Any]) -> float:
    """Sum over pieces of each piece's median time across processes.

    ``samples`` holds one list (or dict) of piece times per process; the
    processes ran identical work, so a stall that hits one process's
    piece is outvoted rather than averaged in.
    """
    if isinstance(samples[0], dict):
        keys = samples[0].keys()
        return sum(statistics.median(s[k] for s in samples) for k in keys)
    return sum(statistics.median(times) for times in zip(*samples))


def at_reference(result: dict[str, Any]) -> Any:
    """A process's piece times at the reference host speed (``hostspeed``)."""
    pieces, factor = result["pieces"], result["host"]
    if isinstance(pieces, dict):
        return {k: v / factor for k, v in pieces.items()}
    return [v / factor for v in pieces]


def _same_identity(results: list[dict[str, Any]], what: str) -> list[str]:
    """Runs of one seed must agree on every output digest they share."""
    shared = set.intersection(*(set(r["identity"]) for r in results))
    seen = {json.dumps({k: r["identity"][k] for k in sorted(shared)}) for r in results}
    return [] if len(seen) == 1 else [f"{what} of one seed disagree on their outputs"]


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, deadline: float
) -> dict[str, Any]:
    """One run of one workload: its metrics, op counts and problems."""
    spec = WORKLOADS[name]
    campaign = spec["kind"] == "campaign"
    work = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if traced:
            return _traced(name, seed, seconds, campaign, work, deadline)
        # Each set-up is a fresh process; a campaign times its window in
        # the same process, the analysis in a fresh one on the week.
        setups, runs = [], []
        for i in range(int(spec["setups"])):
            where = work / f"setup-{i}"
            if campaign:
                setups.append(worker("campaign", name, seed, seconds, where, deadline))
                runs.append(setups[-1])
            else:
                setups.append(worker("collect", name, seed, seconds, where, deadline))
                if i < int(spec["analyses"]):
                    runs.append(worker("analyze", name, seed, seconds, where, deadline))
        first = setups[0]
        rounds_s = typical([at_reference(s) for s in setups])
        if campaign:
            job_s = rounds_s
            detail = {"window_s": job_s}
        else:
            pieces = [at_reference(r) for r in runs]
            job_s = typical(pieces)
            detail = {
                f"{job}_s": typical(
                    [{k: v for k, v in p.items() if k.startswith(f"{job}:")} for p in pieces]
                )
                for job in ("all", "windows")
            }
        processes = setups if campaign else setups + runs
        detail["host_factor"] = statistics.median(r["host"] for r in processes)
        problems = [p for r in processes for p in r["problems"]]
        problems += _same_identity(setups, "set-ups")
        if not campaign:
            problems += _same_identity(runs, "analyses")
        metrics = {
            "rounds_per_s": first["rounds"] / rounds_s,
            "reports_per_s": first["reports"] / job_s,
            "setup_s": statistics.median(s["setup_s"] / s["setup_host"] for s in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "trace_bytes_per_report": first["trace_bytes_per_report"],
        }
        samples = {
            "rounds_per_s": first["rounds"],
            "reports_per_s": first["reports"],
            "setup_s": len(setups),
            "peak_rss_mb": len(runs),
            "trace_bytes_per_report": first["reports"],
        }
        return {
            "attempted": sum(r["attempted"] for r in processes),
            "failed": sum(r["failed"] for r in processes),
            "problems": problems,
            "metrics": metrics,
            "samples": samples,
            "setups": len(setups),
            "detail": detail,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _twins(
    phase: str, name: str, seed: int, seconds: float, work: Path, deadline: float
) -> tuple[dict[str, Any], dict[str, Any]]:
    """An untraced and a traced run of one phase, each in its own directory.

    The campaign runs with the program's observer on in both, so that its
    own ``round.*`` spans time the same calls as the benchmark's spans
    (the analysis workload's collection always has it on).
    """
    observe = phase == "campaign"
    plain = worker(phase, name, seed, seconds, work / "plain", deadline, observe=observe)
    spans = WORK / f"spans-{name}-{phase}.jsonl.gz"
    traced = worker(phase, name, seed, seconds, work / "traced", deadline, spans, observe)
    return plain, traced


def _traced(
    name: str, seed: int, seconds: float, campaign: bool, work: Path, deadline: float
) -> dict[str, Any]:
    """Untraced and traced twins of one run: per-layer metrics + overhead."""
    phases = ["campaign"] if campaign else ["collect", "analyze"]
    pairs = [_twins(phase, name, seed, seconds, work, deadline) for phase in phases]
    plain_s = traced_s = 0.0
    spans: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    problems: list[str] = []
    for plain, traced in pairs:
        plain_s += typical([plain["pieces"]])
        traced_s += typical([traced["pieces"]])
        for span, row in traced["spans"].items():
            spans[span] = [a + b for a, b in zip(spans.get(span, [0, 0.0, 0.0]), row)]
        for key, value in traced["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
        problems += plain["problems"] + traced["problems"]
        problems += [
            f"tracing changed {field}"
            for field, value in plain["identity"].items()
            if traced["identity"].get(field) != value
        ]
    rounder = pairs[0][1]  # the campaign or the collection
    overhead = traced_s / plain_s
    layers = dict(layer_metrics(spans, counts, rounder), trace_overhead_ratio=overhead)
    obs_check = _obs_agreement(rounder, spans, overhead)
    return {
        "attempted": sum(r["attempted"] for pair in pairs for r in pair),
        "failed": sum(r["failed"] for pair in pairs for r in pair),
        "problems": problems + obs_check["problems"],
        "metrics": layers,
        "spans": spans,
        "rounds": rounder["rounds"],
        "obs_check": obs_check["rows"],
    }


def layer_metrics(
    spans: dict[str, list[float]], counts: dict[str, float], rounder: dict[str, Any]
) -> dict[str, float]:
    """Per-layer self times, counts and ratios from the recorded spans.

    Campaign layers are per round of ``rounder`` (the campaign window or
    the collection); analysis layers per call or per run.
    """
    rounds = rounder["rounds"]

    def calls(name: str) -> int:
        return int(spans.get(name, (0, 0.0, 0.0))[0])

    def self_s(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    def per_round(value: float) -> float:
        return value / rounds

    def per_call(name: str, scale: float) -> float:
        n = calls(name)
        return self_s(name) * scale / n if n else 0.0

    m: dict[str, float] = {}
    for layer in ("simulator.ticks", "simulator.connect", "network.sample_link"):
        m[f"{layer}.ms_per_round"] = per_round(self_s(layer) * 1e3)
        m[f"{layer}.calls_per_round"] = per_round(calls(layer))
    connects = calls("simulator.connect")
    m["simulator.connect.success_ratio"] = (
        counts.get("simulator.connect.ok", 0.0) / connects if connects else 0.0
    )
    m["overlay.ms_per_round"] = per_round(self_s("overlay") * 1e3)
    m["simulator.membership.ms_per_round"] = per_round(self_s("campaign.window") * 1e3)
    m["simulator.arrivals_per_round"] = per_round(rounder["arrivals"])
    m["simulator.departures_per_round"] = per_round(rounder["departures"])
    m["simulator.exchange.ms_per_round"] = per_round(self_s("simulator.exchange") * 1e3)
    m["simulator.exchange.transfers_per_round"] = per_round(
        counts.get("simulator.exchange.transfers", 0.0)
    )
    m["simulator.reports.ms_per_round"] = per_round(self_s("simulator.reports") * 1e3)
    m["traces.build_report.us_per_report"] = per_call("traces.build_report", 1e6)
    m["traces.encode.us_per_report"] = per_call("traces.encode", 1e6)
    m["traces.write.ms_per_round"] = per_round(self_s("traces.write") * 1e3)
    m["traces.bytes_per_round"] = per_round(counts.get("traces.bytes", 0.0))
    m["traces.fsync.ms_per_call"] = per_call("traces.fsync", 1e3)
    m["traces.fsync.calls"] = float(calls("traces.fsync"))
    m["simulator.checkpoint.ms_per_save"] = per_call("simulator.checkpoint", 1e3)
    saves = calls("simulator.checkpoint")
    m["simulator.checkpoint.mb_per_save"] = (
        counts.get("simulator.checkpoint.bytes", 0.0) / saves / 1e6 if saves else 0.0
    )
    m["traces.read.passes"] = counts.get("traces.read.passes", 0.0)
    m["traces.read.ms"] = self_s("traces.read") * 1e3
    m["traces.parse.us_per_report"] = per_call("traces.parse", 1e6)
    windows = calls("core.snapshot")
    m["core.snapshot.ms_per_window"] = per_call("core.snapshot", 1e3)
    m["core.snapshot.windows"] = float(windows)
    m["core.snapshot.nodes_mean"] = (
        counts.get("core.snapshot.nodes", 0.0) / windows if windows else 0.0
    )
    for kernel in METRIC_KERNELS:
        m[f"core.metric.{kernel}.ms"] = self_s(f"core.metric.{kernel}") * 1e3
    m["soa.incremental.ms_per_window"] = per_call("soa.incremental", 1e3)
    m["cli.render.ms"] = self_s("cli.analyze") * 1e3
    for fig in FIGURE_DRIVERS:
        m[f"cli.{fig}.ms"] = spans.get(f"cli.{fig}", (0, 0.0, 0.0))[1] * 1e3
    return m


#: Program ``round.*`` spans and the benchmark spans that cover the same code.
OBS_PAIRS = {
    "round.ticks": "simulator.ticks",
    "round.exchange": "simulator.exchange",
    "round.reports": "simulator.reports",
}


def _obs_agreement(
    rounder: dict[str, Any], spans: dict[str, list[float]], overhead: float
) -> dict[str, Any]:
    """The program's own ``round.*`` span totals against the benchmark's.

    Both instrument the same calls, so they may differ by no more than
    the tracing overhead the run measured (and by at least 5% noise).
    """
    tolerance = max(overhead - 1.0, 0.05)
    rows, problems = [], []
    for obs_name, layer in OBS_PAIRS.items():
        obs_s = rounder["obs_round_s"].get(obs_name, 0.0)
        bench_s = spans.get(layer, [0, 0.0, 0.0])[1]
        ratio = bench_s / obs_s if obs_s else 0.0
        rows.append((obs_name, layer, obs_s, bench_s, ratio))
        if abs(ratio - 1.0) > tolerance:
            problems.append(
                f"{layer} totals {bench_s:.3f}s vs program {obs_name} {obs_s:.3f}s "
                f"(beyond the {tolerance:.0%} tracing overhead)"
            )
    return {"rows": rows, "problems": problems}


# -- reporting ----------------------------------------------------------------


@functools.cache
def units(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads(SPEC_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def print_result(name: str, seed: int, result: dict[str, Any], traced: bool) -> None:
    print(f"== {name} (seed {seed}) ==")
    if not traced:
        print(f"{'metric':<24}{'value':>14}  {'unit':<6}{'n':>5}   ({result['setups']} set-ups)")
        for metric, value in result["metrics"].items():
            n = result["samples"][metric]
            print(f"{metric:<24}{value:>14.4f}  {units(False)[metric]:<6}{n:>5}")
        for metric, value in result["detail"].items():
            print(f"  {metric:<22}{value:>14.4f}")
    else:
        rounds = result["rounds"]
        print(f"{'span':<38}{'calls':>10}{'incl ms':>12}{'self ms':>12}{'self ms/round':>15}")
        rows = sorted(result["spans"].items(), key=lambda kv: -kv[1][1])
        for span, (calls, incl, self_s) in rows:
            print(
                f"{span:<38}{calls:>10}{incl * 1e3:>12.1f}{self_s * 1e3:>12.1f}"
                f"{self_s * 1e3 / rounds:>15.3f}"
            )
        for obs_name, layer, obs_s, bench_s, ratio in result["obs_check"]:
            print(
                f"program {obs_name:<16} {obs_s:8.3f}s   "
                f"benchmark {layer:<20} {bench_s:8.3f}s   ratio {ratio:.3f}"
            )
        print(f"{'layer metric':<44}{'value':>14}")
        for metric, value in result["metrics"].items():
            print(f"{metric:<44}{value:>14.4f}")
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")


def summary_line(results: dict[str, dict[str, Any]], traced: bool) -> dict[str, Any]:
    """The machine-readable last line; metric names carry the workload
    only when more than one workload ran."""
    metrics: dict[str, dict[str, Any]] = {}
    for name, result in results.items():
        for metric, unit in units(traced).items():
            key = metric if len(results) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": result["metrics"][metric], "unit": unit}
    return {
        "correct": all(not r["problems"] and not r["failed"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def record(names: list[str], runs: int, seconds: float) -> int:
    """Run seeds 1..runs per workload; print spreads; append to history."""
    entry: dict[str, Any] = {
        "sha": _git_sha(),
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "runs": runs,
        "seconds": seconds,
        "workloads": {},
    }
    ok = True
    for name in names:
        values: dict[str, list[float]] = {m: [] for m in units(False)}
        for seed in range(1, runs + 1):
            result = run_workload(name, seed, seconds, False, time.monotonic() + BUDGET_S)
            ok = ok and not result["problems"] and not result["failed"]
            for problem in result["problems"]:
                print(f"PROBLEM {name} seed {seed}: {problem}")
            for m, v in result["metrics"].items():
                values[m].append(v)
            line = ", ".join(f"{m}={v:.4f}" for m, v in result["metrics"].items())
            print(f"{name} seed {seed}: {line}", flush=True)
        stats = {}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            stats[m] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(vs)}
            print(
                f"{name:<14}{m:<24} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                f"  spread {(q3 - q1) / med:6.1%}"
            )
        entry["workloads"][name] = stats
    if ok:
        with HISTORY.open("a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"appended to {HISTORY}")
    return 0 if ok else 1


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", type=int, metavar="RUNS",
        help="run seeds 1..RUNS of each workload and append their quartiles to history.jsonl",
    )
    args = parser.parse_args()
    # On SIGTERM unwind like Ctrl-C: the running worker is killed and
    # waited for, and the run's scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        print(f"error: no program under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        return record(names, args.record, args.seconds)
    results = {}
    for name in names:
        deadline = time.monotonic() + BUDGET_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_result(name, args.seed, results[name], bool(args.trace))
    line = summary_line(results, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
