"""Crash-safe checkpoint/resume for :class:`~repro.simulator.system.UUSeeSystem`.

A two-month measurement campaign dies to power cuts, OOM kills and
reboots; losing the whole run to one of them is what this module
prevents.  A checkpoint captures *everything* that makes the simulation
deterministic — peers, tracker, partner lists, workload phase, the
departure heap, and the exact ``getstate()`` of every named
``random.Random`` stream — so a resumed run continues draw-for-draw
identically to a run that was never interrupted.

On disk a checkpoint is a single file written atomically
(write-temp + fsync + ``os.replace``) with a self-describing header::

    REPROCKPT <version> <sha256-of-payload> <payload-length>\\n
    <payload>

A version-2 payload is a stream of pickles: the state with ``peers``
replaced by the peer count, then the peers as ``(peer_id, peer)``
batches of :data:`PEER_BATCH`, each pickled with a fresh memo (see
:func:`save_checkpoint`).  Version-1 files, one pickle of the whole
state, still load.

Loading verifies magic, version, length and checksum before unpickling,
so a checkpoint torn by the very crash it was meant to survive is
*detected* (:class:`CheckpointCorruptError`) rather than silently
restoring garbage; :class:`CheckpointManager` then falls back to the
previous intact file in its keep-last-K rotation.

Restore deliberately does **not** unpickle a whole ``UUSeeSystem``:
the caller first constructs a fresh system from the *same config* (which
replays the construction-time draws and rebuilds everything stateless),
then :func:`restore_into` overwrites the mutable state in place.  This
keeps non-serializable members (the trace store's file handles) out of
the checkpoint and preserves the object identities the engine shares
(``system.peers`` *is* ``system.exchange.peers``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import io
import pickle
import re
import resource
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO

from repro.ioutil import atomic_writer
from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.simulator.failures import OutageSchedule
from repro.simulator.gcpolicy import campaign_gc
from repro.simulator.system import SERVER_UPLOAD_KBPS, SystemConfig
from repro.workloads.churn import SessionDurationModel
from repro.workloads.population import PopulationModel

if TYPE_CHECKING:
    from repro.simulator.system import UUSeeSystem

#: Envelope magic; a file that does not start with this is not a checkpoint.
MAGIC = b"REPROCKPT"
#: Envelope format version written: the state, then ``peers`` in batches.
VERSION = 2
#: Peers per pickled batch.  A pickler's memo keeps every object it has
#: pickled alive, the per-link tuples ``Peer.__reduce__`` makes included,
#: until ``clear_memo``; clearing it before each batch bounds what a save
#: holds.  At 5k peers, batches of 64 left VmHWM flat and the file no
#: larger than one dump's; one peer per memo grew the file 4%, 256 raised
#: VmHWM 0.4 MB, and one memo for the whole table 9.7 MB.
PEER_BATCH = 64

_CKPT_RE = re.compile(r"^ckpt-(\d{10})\.bin$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found or applied."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed magic/version/length/checksum validation.

    The expected signature of a crash landing *during* a checkpoint
    write on a filesystem without atomic rename, or of bit rot; the
    manager skips such files and resumes from the previous intact one.
    """


#: Fields a config dataclass no longer has, each with the one value
#: every config held, keyed by the live field they stood before.  The
#: token still renders them there, so checkpoints written while they
#: existed keep resuming.
_RETIRED_FIELDS: dict[type, dict[str, tuple[tuple[str, object], ...]]] = {
    SystemConfig: {
        "protocol": (("weekend_boost", PopulationModel.weekend_boost),),
        "faults": (
            ("sessions", SessionDurationModel()),
            ("num_trackers", 1),
            ("outages", OutageSchedule()),
        ),
        "trace_loss_rate": (
            ("servers_per_channel", 1),
            ("server_upload_kbps", SERVER_UPLOAD_KBPS),
        ),
    },
}


def _canonical(value: object) -> str:
    """A hash-stable textual form of a config value.

    ``repr`` alone is not stable across processes: set and frozenset
    iteration order depends on hash randomization.  Dataclasses render
    field-by-field in declaration order, sets sort their canonical
    elements, dicts sort by canonical key.  Fields marked with
    ``token_exclude`` metadata are skipped: they were added after
    tokens existed, and rendering them would reshuffle every
    pre-existing token (such fields opt into the token through an
    explicit suffix in :func:`config_token` instead).  Retired fields
    (:data:`_RETIRED_FIELDS`) render where they stood.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        retired = _RETIRED_FIELDS.get(type(value), {})
        parts: list[str] = []
        for f in dataclasses.fields(value):
            if f.metadata.get("token_exclude"):
                continue
            for name, old in retired.get(f.name, ()):
                parts.append(f"{name}={_canonical(old)}")
            parts.append(f"{f.name}={_canonical(getattr(value, f.name))}")
        return f"{type(value).__qualname__}({','.join(parts)})"
    if isinstance(value, enum.Enum):
        return f"{type(value).__qualname__}.{value.name}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted(
            ((_canonical(k), _canonical(v)) for k, v in value.items())
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, (str, int, float, bool)) or value is None:
        return repr(value)
    # Any other object (no config field holds one today): vars() in
    # sorted key order.
    body = ",".join(
        f"{k}={_canonical(v)}" for k, v in sorted(vars(value).items())
    )
    return f"{type(value).__qualname__}({body})"


def config_token(config: SystemConfig, scope: str = "") -> str:
    """Fingerprint of a :class:`SystemConfig`, stable across processes.

    Stored in every checkpoint and compared on restore, so resuming a
    campaign with a *different* configuration fails loudly instead of
    producing a silently-inconsistent hybrid run.

    ``scope`` narrows the token beyond the config: sharded fleet
    campaigns pass their shard identity (shard index + channel subset)
    so shard 2's checkpoint can never restore into shard 3's worker
    even though both run the same :class:`SystemConfig` shape.  The
    empty scope leaves the token byte-identical to pre-scope builds, so
    existing checkpoints stay restorable.
    """
    canonical = _canonical(config)
    if scope:
        canonical = f"{canonical}#scope={scope}"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def draw_fingerprint(system: UUSeeSystem) -> str:
    """Digest of every named RNG stream's exact state, for equivalence.

    Two systems with equal fingerprints will make identical draws
    forever after — the property the fleet's kill/resume tests pin:
    a shard that crashed and resumed must land on the *same* fingerprint
    as one that ran straight through.  Every stream drawn during a
    round is folded in, including those restored only by pickling their
    owners: the tracker's and the arrival process's.  The tracker's
    state sits in a one-item list, the shape of builds that could run a
    tracker farm, so fingerprints stay byte-identical.
    """
    states = {
        "latency": system.latency._rng.getstate(),
        "bandwidth": system.bandwidth._rng.getstate(),
        "exchange": system.exchange.rng.getstate(),
        "system": system._rng.getstate(),
        "fault": system._fault_rng.getstate(),
        "trace_server": system.trace_server.injector.state()["rng"],
        "tracker": [system.tracker._rng.getstate()],
        "arrivals": system.arrivals._rng.getstate(),
    }
    # Only policies owning a private stream contribute; legacy policies
    # return None, keeping pre-overlay fingerprints byte-identical.
    overlay_rng = system.exchange.partner_policy.rng_state()
    if overlay_rng is not None:
        states["overlay"] = overlay_rng
    digest = hashlib.sha256()
    for name in sorted(states):
        digest.update(name.encode("utf-8"))
        digest.update(repr(states[name]).encode("utf-8"))
    return digest.hexdigest()


def _allocator_state(allocator: Any) -> dict[str, Any]:
    # _in_use is membership-only (never iterated by the simulator), but
    # serialize it sorted anyway so payload bytes are reproducible.
    return {
        "cursor": allocator._cursor,
        "in_use": sorted(allocator._in_use),
        "released": list(allocator._released),
    }


def _restore_allocator(allocator: Any, state: dict[str, Any]) -> None:
    allocator._cursor = state["cursor"]
    allocator._in_use = set(state["in_use"])
    allocator._released = list(state["released"])


def snapshot_system(
    system: UUSeeSystem, *, trace_records: int | None = None, scope: str = ""
) -> dict[str, Any]:
    """Capture every piece of mutable :class:`UUSeeSystem` state.

    ``trace_records`` is the trace store's durable record count at this
    cut (``len(store)`` after a sync); resume uses it to roll the store
    back so the replayed rounds do not duplicate reports.  The returned
    dict is ready for :func:`save_checkpoint`; it references live
    objects, so serialize it before advancing the system further.
    """
    store = system.trace_server.store
    return {
        "config_token": config_token(system.config, scope),
        # Self-describing engine backend (absent in older checkpoints
        # means "object").  This key documents provenance: checkpoints
        # written by the removed struct-of-arrays backends carry another
        # value and are refused on restore.
        "engine": "object",
        # (now, 0, 0): builds that kept an event queue stored its
        # scheduled and run event counts here, always 0 because nothing
        # was scheduled, so the same 3-tuple resumes across them both ways.
        "clock": (system.now, 0, 0),
        # The simulated time of the exchange engine's latest entry point:
        # up to a round behind ``now``; structured policies stamp new
        # links with it.
        "exchange_clock": system.exchange.clock,
        "rounds_completed": system.rounds_completed,
        "trace_records": trace_records,
        "peers": system.peers,
        "tracker": system.tracker,
        "arrivals": system.arrivals,
        "trace_server": {
            "injector": system.trace_server.injector.state(),
            "received": system.trace_server.received,
            "dropped": system.trace_server.dropped,
        },
        "rng": {
            "latency": system.latency._rng.getstate(),
            "bandwidth": system.bandwidth._rng.getstate(),
            "exchange": system.exchange.rng.getstate(),
            "system": system._rng.getstate(),
            "fault": system._fault_rng.getstate(),
        },
        "allocators": {
            name: _allocator_state(alloc)
            for name, alloc in system._allocators.items()
        },
        "server_allocator": _allocator_state(system._server_allocator),
        "departures": list(system._departures),
        # None for the stateless legacy policies; a dict of the policy's
        # own RNG state and topology structures otherwise, so a resumed
        # overlay campaign continues draw-for-draw.
        "overlay": system.exchange.partner_policy.checkpoint_state(),
        "next_peer_id": system._next_peer_id,
        "round_stats": system.round_stats,
        "totals": (
            system.total_arrivals,
            system.total_departures,
            system.total_crashes,
        ),
        # The one store hook, duck-typed: a store with its own draw or
        # delivery state (an ingest ReportClient's seq cursor and unacked
        # frames, a FaultyChannel's injector and held report) hands it
        # over here and takes it back in restore_into.
        "store": (
            store.checkpoint_state()
            if hasattr(store, "checkpoint_state")
            else None
        ),
        # None for the no-op observer; plain dicts otherwise, so resumed
        # campaigns report cumulative metric totals, not restart at zero.
        "obs": system.obs.checkpoint_state(),
    }


def restore_into(
    system: UUSeeSystem, state: dict[str, Any], *, scope: str = ""
) -> None:
    """Overwrite a *freshly constructed* system with checkpointed state.

    ``system`` must have been built from the same config the checkpoint
    was taken under (verified via the stored config token, scoped the
    same way it was at save time) and not yet run.  Mutation is in-place
    where object identity is shared — ``peers`` is cleared and refilled
    rather than rebound, because the exchange engine holds the same
    dict.
    """
    token = config_token(system.config, scope)
    if state["config_token"] != token:
        raise CheckpointError(
            "checkpoint was taken under a different configuration "
            f"(token {state['config_token'][:12]}… vs {token[:12]}…); "
            "resume with the original config or start a fresh campaign"
        )
    engine = state.get("engine", "object")
    if engine != "object":
        raise CheckpointError(
            f"checkpoint was taken under the {engine!r} engine backend, "
            "which was removed; only 'object' checkpoints can be restored"
        )
    system.now = state["clock"][0]
    system.rounds_completed = state["rounds_completed"]
    system.peers.clear()
    system.peers.update(state["peers"])
    system.tracker = state["tracker"]
    system.exchange.tracker = state["tracker"]
    system.arrivals = state["arrivals"]
    ts = state["trace_server"]
    # Checkpoints written before the server held an injector carry the
    # bare loss coin's RNG state under "rng".
    system.trace_server.injector.restore(
        ts.get("injector") or {"rng": ts["rng"], "counters": {}}
    )
    system.trace_server.received = ts["received"]
    system.trace_server.dropped = ts["dropped"]
    rngs = state["rng"]
    system.latency._rng.setstate(rngs["latency"])
    system.bandwidth._rng.setstate(rngs["bandwidth"])
    system.exchange.rng.setstate(rngs["exchange"])
    system._rng.setstate(rngs["system"])
    system._fault_rng.setstate(rngs["fault"])
    for name, alloc_state in state["allocators"].items():
        if name not in system._allocators:
            raise CheckpointError(f"checkpoint references unknown ISP {name!r}")
        _restore_allocator(system._allocators[name], alloc_state)
    _restore_allocator(system._server_allocator, state["server_allocator"])
    system._departures = list(state["departures"])
    # .get(): checkpoints written before the exchange clock was captured.
    system.exchange.clock = state.get("exchange_clock", system.now)
    # The matching policy is guaranteed by the config token above (the
    # overlay spec is a SystemConfig field); .get() keeps checkpoints
    # written before the overlay lab restorable.
    system.exchange.partner_policy.restore_checkpoint(state.get("overlay"))
    system._next_peer_id = state["next_peer_id"]
    system.round_stats = state["round_stats"]
    (
        system.total_arrivals,
        system.total_departures,
        system.total_crashes,
    ) = state["totals"]
    # Older builds kept the store hook's state under "ingest_client" (a
    # ReportClient) or "channel" (a FaultyChannel).
    store_state = (
        state.get("store") or state.get("ingest_client") or state.get("channel")
    )
    if store_state is not None:
        store = system.trace_server.store
        if not hasattr(store, "restore_checkpoint"):
            raise CheckpointError(
                "checkpoint carries trace-store state but the resumed "
                f"system's store ({type(store).__name__}) cannot restore it"
            )
        store.restore_checkpoint(store_state)
    # .get(): checkpoints written before observability existed lack the
    # key; restoring into a no-op observer is itself a no-op.
    system.obs.restore_checkpoint(state.get("obs"))


class _HashingWriter:
    """File wrapper that hashes and counts the bytes written through it."""

    def __init__(self, fh: BinaryIO) -> None:
        self._write = fh.write
        self.digest = hashlib.sha256()
        self.length = 0

    def write(self, data: bytes) -> int:
        self.digest.update(data)
        written = self._write(data)
        self.length += written
        return written


def _header(digest: str, length: int) -> bytes:
    # Fixed width (the length zero-padded), so the slot reserved before
    # the payload is streamed can be overwritten in place afterwards.
    return f"{MAGIC.decode()} {VERSION} {digest} {length:020d}\n".encode()


def save_checkpoint(path: str | Path, state: dict[str, Any]) -> Path:
    """Serialize ``state`` to ``path`` atomically and durably.

    The envelope is written in one streaming pass through
    :func:`~repro.ioutil.atomic_writer`: a header slot, the state with
    ``peers`` replaced by the peer count, then ``peers`` in dict order as
    ``(peer_id, peer)`` batches of :data:`PEER_BATCH`, the memo cleared
    before each, every byte hashed and counted as it is written; last,
    the slot gets the checksum and length.  One dump of the whole state
    would keep every per-link tuple alive in its memo until it ended and
    then copy the payload twice.  A crash at any instant leaves either
    the previous checkpoint or the complete new one, never a torn file.
    """
    peers = state.get("peers")
    head = state if peers is None else {**state, "peers": len(peers)}
    with atomic_writer(path) as fh:
        fh.write(_header("0" * 64, 0))
        sink = _HashingWriter(fh)
        pickler = pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dump(head)
        if peers is not None:
            items = iter(peers.items())
            while batch := list(islice(items, PEER_BATCH)):
                pickler.clear_memo()
                pickler.dump(batch)
        fh.seek(0)
        fh.write(_header(sink.digest.hexdigest(), sink.length))
    return Path(path)


def _unpickle_stream(payload: bytes) -> object:
    """The state of a version-2 payload, its peer batches folded back in."""
    # One unpickler per pickle: each batch was written with a fresh memo.
    stream = io.BytesIO(payload)
    state = pickle.load(stream)
    if isinstance(state, dict) and "peers" in state:
        peers: dict[int, Any] = {}
        while len(peers) < state["peers"]:
            peers.update(pickle.load(stream))
        state["peers"] = peers
    return state


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read, validate and deserialize a checkpoint file.

    Reads version 2 and the single-pickle version 1, so campaigns
    checkpointed by older builds resume.  Raises
    :class:`CheckpointCorruptError` on any framing or checksum mismatch
    (truncation, bit rot, not-a-checkpoint) — corruption is a *skip
    signal* for the manager, never an excuse to unpickle unverified
    bytes.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            payload = fh.read()
    except OSError as exc:
        raise CheckpointCorruptError(f"{path}: unreadable: {exc}") from exc
    if not header.endswith(b"\n") or not header.startswith(MAGIC + b" "):
        raise CheckpointCorruptError(f"{path}: not a {MAGIC.decode()} file")
    fields = header.decode("ascii", "replace").split()
    if len(fields) != 4:
        raise CheckpointCorruptError(f"{path}: malformed header")
    _, version, digest, length = fields
    if version not in ("1", "2"):
        raise CheckpointCorruptError(
            f"{path}: unsupported checkpoint version {version} "
            f"(this build reads versions 1 and {VERSION})"
        )
    if not length.isdigit() or len(payload) != int(length):
        raise CheckpointCorruptError(
            f"{path}: payload is {len(payload)} bytes, header promises "
            f"{length} (torn write?)"
        )
    if hashlib.sha256(payload).hexdigest() != digest:
        raise CheckpointCorruptError(f"{path}: payload checksum mismatch")
    state = pickle.loads(payload) if version == "1" else _unpickle_stream(payload)
    if not isinstance(state, dict):
        raise CheckpointCorruptError(f"{path}: unexpected payload type")
    return state


class CheckpointManager:
    """Periodic checkpoints with keep-last-K rotation under one directory.

    Files are named ``ckpt-<round:010d>.bin`` so lexicographic order is
    round order without touching the wall clock (the simulator packages
    are wall-clock-free by QA rule).  :meth:`save` syncs the trace store
    first, so the recorded ``trace_records`` cut is durable before the
    checkpoint that references it exists; :meth:`latest_valid` walks
    newest-to-oldest past corrupt files.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        keep_last: int = 3,
        scope: str = "",
        obs: AnyObserver = NULL_OBSERVER,
    ) -> None:
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.directory = Path(directory)
        self.keep_last = keep_last
        self.scope = scope
        self.obs = obs
        #: Corrupt envelopes skipped by :meth:`latest_valid` so far.
        self.corrupt_skipped = 0
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, rounds: int) -> Path:
        """The checkpoint file name for a given completed-round count."""
        return self.directory / f"ckpt-{rounds:010d}.bin"

    def checkpoints(self) -> list[Path]:
        """Every checkpoint file present, oldest first."""
        found = [
            p for p in self.directory.iterdir() if _CKPT_RE.match(p.name)
        ]
        found.sort()
        return found

    def save(self, system: UUSeeSystem) -> Path:
        """Checkpoint ``system`` now; returns the file written.

        Ordering is the crash-safety invariant: (1) flush-and-fsync the
        trace store, (2) capture ``len(store)`` as the durable cut,
        (3) write the checkpoint atomically, (4) prune old files.  A
        crash between any two steps leaves a resumable state.

        The whole save is one ``checkpoint.save`` obs span, the file's
        size is added to the ``checkpoint.bytes`` counter, and the
        ``process.peak_rss_mb`` gauge is set to the process's high-water
        RSS (``ru_maxrss``) after the save.  It runs under
        the campaign GC policy: pickling allocates a tuple per link and
        frees them all by reference counting, and a final cut taken
        after ``UUSeeSystem.run`` returns would otherwise pay full
        collections of the whole heap for them.  Inside a running
        campaign the scope nests as a no-op, and its pauses are recorded
        by the campaign's own hook.
        """
        obs = self.obs
        with obs.span("checkpoint.save"), campaign_gc(NULL_OBSERVER):
            store = system.trace_server.store
            sync = getattr(store, "sync", None) or getattr(store, "flush", None)
            if sync is not None:
                sync()
            trace_records = len(store) if hasattr(store, "__len__") else None
            state = snapshot_system(
                system, trace_records=trace_records, scope=self.scope
            )
            path = save_checkpoint(self.path_for(system.rounds_completed), state)
            self._prune()
        if obs.enabled:
            obs.count("checkpoint.bytes", path.stat().st_size)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            obs.gauge_set("process.peak_rss_mb", peak_kb / 1024.0)
        return path

    def latest_valid(self) -> tuple[Path, dict[str, Any]] | None:
        """Newest checkpoint that passes validation, or ``None``.

        Corrupt files (e.g. torn by the crash itself on a filesystem
        without atomic rename) are skipped, not deleted — they are
        evidence.  Every skip is surfaced to the observer as a
        ``checkpoint.corrupt_skipped`` count plus an event naming the
        file and the validation failure, so silent rollback to an older
        cut is visible in the run's telemetry.
        """
        for path in reversed(self.checkpoints()):
            try:
                return path, load_checkpoint(path)
            except CheckpointCorruptError as exc:
                self.corrupt_skipped += 1
                self.obs.count("checkpoint.corrupt_skipped")
                self.obs.emit(
                    {
                        "type": "checkpoint.corrupt",
                        "path": str(path),
                        "error": str(exc),
                    }
                )
                continue
        return None

    def _prune(self) -> None:
        for path in self.checkpoints()[: -self.keep_last]:
            path.unlink()
