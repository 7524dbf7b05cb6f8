"""The shard worker subprocess (``python -m repro.fleet.worker``).

One worker owns one shard: it rebuilds its sub-catalogue from the
:class:`~repro.fleet.plan.ShardSpec` the supervisor wrote next to its
trace directory, then drives a full
:func:`~repro.core.experiments.run_campaign` over its channel subset —
per-shard segmented trace, per-shard checkpoints under the shard-scoped
``config_token``, per-shard named RNGs seeded from the derived shard
seed.

Robustness contract:

- **crash-resume** — the worker always starts in ``resume="auto"``
  mode: newest valid checkpoint if one exists, recovered-and-rewound
  trace store otherwise, fresh campaign when the directory is empty.
  A worker that has been SIGKILLed any number of times converges on
  the same trace bytes and the same final RNG states as one that ran
  straight through.
- **graceful signals** — SIGTERM/SIGINT stop the campaign at the next
  round boundary, take a final checkpoint, seal and close the store,
  and exit with :data:`EXIT_INTERRUPTED` so the supervisor knows the
  shard is resumable, not failed.
- **liveness** — a ``heartbeat`` event goes up the stdout pipe every
  ``heartbeat_every_rounds`` completed rounds; ``done`` carries the
  final summary, which is also persisted atomically as ``done.json``
  (the supervisor's restart-survivable completion marker).

The deterministic :class:`~repro.fleet.plan.ChaosSpec` harness lives
here too — it exists so the kill/restart test matrix can land a SIGKILL
at an exactly reproducible instant (mid-round, mid-checkpoint,
mid-rotation, or as a heartbeat-silent hang).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import IO, Any

from repro.core.experiments import run_campaign
from repro.fleet.heartbeat import emit_event
from repro.fleet.plan import ChaosSpec, ShardSpec
from repro.ioutil import atomic_write_bytes

#: Exit code for a graceful (checkpointed, resumable) signal stop.
EXIT_INTERRUPTED = 3
#: Completion marker written atomically into the shard's trace dir.
DONE_NAME = "done.json"
#: One-shot chaos marker: present means the damage was already done.
CHAOS_MARKER_NAME = "chaos-fired"


def _newest_checkpoint(ckpt_dir: Path) -> Path | None:
    candidates = sorted(ckpt_dir.glob("ckpt-*.bin")) if ckpt_dir.is_dir() else []
    return candidates[-1] if candidates else None


def _active_segment(trace_dir: Path) -> Path | None:
    segments = sorted(
        p for p in trace_dir.iterdir()
        if p.name.startswith("seg-") and not p.name.endswith(".quarantined")
    ) if trace_dir.is_dir() else []
    return segments[-1] if segments else None


class ChaosHarness:
    """Inflicts one :class:`ChaosSpec` at its exact round boundary."""

    def __init__(self, spec: ShardSpec, out: IO[str]) -> None:
        self.spec = spec
        self.chaos = spec.chaos
        self.trace_dir = Path(spec.trace_dir)
        self.out = out
        self.armed = self.chaos is not None and (
            not self.chaos.once
            or not (self.trace_dir / CHAOS_MARKER_NAME).exists()
        )

    def on_round(self, rounds_completed: int) -> None:
        """Fire the configured fault when its round arrives."""
        chaos = self.chaos
        if not self.armed or chaos is None or rounds_completed != chaos.at_round:
            return
        if chaos.once:
            # Marked *before* the damage: the restarted worker must run
            # clean even if the kill lands in the next microsecond.
            marker = self.trace_dir / CHAOS_MARKER_NAME
            marker.write_text(f"round {rounds_completed}\n", encoding="utf-8")
        self._inflict(chaos)

    def _inflict(self, chaos: ChaosSpec) -> None:
        if chaos.mode == "hang":
            # Stop heartbeating but stay alive: the supervisor's missed-
            # heartbeat timeout is the only thing that can save the shard.
            while True:
                time.sleep(3600.0)
        if chaos.mode == "torn-checkpoint":
            newest = _newest_checkpoint(self.trace_dir / "checkpoints")
            if newest is not None:
                blob = newest.read_bytes()
                newest.write_bytes(blob[: max(1, len(blob) // 3)])
        elif chaos.mode == "torn-segment":
            active = _active_segment(self.trace_dir)
            if active is not None:
                with open(active, "ab") as fh:
                    fh.write(b'{"t": 1e12, "ip":')  # half a record
        elif chaos.mode == "stale-manifest":
            manifest = self.trace_dir / "manifest.json"
            if manifest.exists():
                payload = json.loads(manifest.read_text(encoding="utf-8"))
                if payload.get("segments"):
                    payload["segments"] = payload["segments"][:-1]
                    manifest.write_text(json.dumps(payload), encoding="utf-8")
        # 'crash' needs no preparation.  SIGKILL: no cleanup, no flush,
        # no sealed segment — exactly what the supervisor must survive.
        os.kill(os.getpid(), signal.SIGKILL)


def run_shard(
    spec: ShardSpec,
    *,
    out: IO[str] | None = None,
    stop: threading.Event | None = None,
) -> int:
    """Run one shard campaign to completion (or graceful interruption).

    Returns the process exit code: 0 done, :data:`EXIT_INTERRUPTED`
    when a signal stopped the campaign at a checkpointed boundary.
    """
    out = out if out is not None else sys.stdout
    stop = stop if stop is not None else threading.Event()
    trace_dir = Path(spec.trace_dir)
    chaos = ChaosHarness(spec, out)

    ingest_client = (
        spec.ingest.reporter(seed=spec.derived_seed(), shard_id=spec.shard_id)
        if spec.ingest is not None
        else None
    )

    heartbeat_every = max(1, spec.heartbeat_every_rounds)

    def on_round(rounds_completed: int) -> None:
        if rounds_completed % heartbeat_every == 0:
            emit_event(
                out,
                {
                    "type": "heartbeat",
                    "shard": spec.shard_id,
                    "round": rounds_completed,
                },
            )
        chaos.on_round(rounds_completed)

    emit_event(out, {"type": "started", "shard": spec.shard_id})
    result = run_campaign(
        trace_dir,
        days=spec.days,
        base_concurrency=spec.base_concurrency,
        seed=spec.derived_seed(),
        with_flash_crowd=spec.with_flash_crowd,
        policy=spec.policy,
        catalogue=spec.catalogue(),
        checkpoint_every_rounds=spec.checkpoint_every_rounds,
        keep_last=spec.keep_last,
        resume="auto",
        records_per_segment=spec.records_per_segment,
        compress=spec.compress,
        fsync_on_flush=spec.fsync_on_flush,
        checkpoint_scope=spec.scope_token(),
        ingest=ingest_client,
        stop=stop.is_set,
        on_round=on_round,
        compute_content_sha=spec.ingest is None,
    )
    summary: dict[str, Any] = {
        "shard": spec.shard_id,
        "rounds_completed": result.rounds_completed,
        "trace_records": result.trace_records,
        "resumed_from_round": result.resumed_from_round,
        "rng_fingerprint": result.rng_fingerprint,
        "content_sha256": result.content_sha256,
        "health": dataclasses.asdict(result.health),
        "interrupted": result.interrupted,
    }
    if result.interrupted:
        emit_event(out, {"type": "interrupted", **summary})
        return EXIT_INTERRUPTED
    atomic_write_bytes(
        trace_dir / DONE_NAME,
        (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    emit_event(out, {"type": "done", **summary})
    return 0


def load_done(trace_dir: str | Path) -> dict[str, Any] | None:
    """Read a shard's completion marker, or ``None`` when unfinished."""
    path = Path(trace_dir) / DONE_NAME
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return None
    try:
        payload = json.loads(raw)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def main(argv: list[str] | None = None) -> int:
    """Worker entry point: load the spec, wire signals, run the shard."""
    parser = argparse.ArgumentParser(prog="repro.fleet.worker")
    parser.add_argument("--spec", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = ShardSpec.from_json(args.spec.read_text(encoding="utf-8"))

    stop = threading.Event()

    def _graceful(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    return run_shard(spec, stop=stop)


if __name__ == "__main__":
    raise SystemExit(main())
