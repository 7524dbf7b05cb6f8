"""Segmented, self-recovering trace storage for long campaigns.

A two-month, 120 GB collection cannot live in one giant JSONL file: a
torn tail puts the entire artifact at risk, nothing is fingerprinted
until the end, and recovery would mean re-scanning everything.
:class:`SegmentedTraceStore` instead rotates bounded JSONL(.gz)
segments under a manifest.  A segment is *sealed* — fsynced, its
uncompressed content fingerprinted with sha256, and published in the
atomically-replaced manifest — the moment it fills; after a crash only
the single unsealed (active) segment is in an unknown state.

:meth:`SegmentedTraceStore.recover` re-verifies the sealed prefix,
quarantines unreadable sealed segments, truncates a torn final JSONL
line or gzip tail of the active segment, and reopens for append exactly
at the recovery point, accumulating everything it repaired into a
:class:`~repro.traces.health.TraceHealth`.  :meth:`rollback` cuts the
store back to a checkpoint's record count so a resumed campaign rejoins
byte-for-byte.  :class:`SegmentedTraceReader` is the one trace reader
(strict or tolerant): a re-iterable report stream over a campaign
directory, or over a lone legacy ``.jsonl[.gz]`` file read as a
one-segment trace, wherever analytics (``iter_windows`` included)
expects a time-ordered report stream.

Compressed segments are written with a zeroed gzip mtime so identical
content compresses to identical bytes across runs; note that a
recovered-or-rolled-back compressed segment continues as a second gzip
member, so equivalence for ``.gz`` traces is content-level
(:meth:`content_sha256`) while plain JSONL traces are byte-identical.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import re
import zlib
from collections import OrderedDict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import dropwhile
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, TextIO

from repro.ioutil import atomic_write_bytes
from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.traces.health import TraceHealth
from repro.traces.records import PeerReport
from repro.traces.store import (
    TraceFormatError,
    TraceStoreClosedError,
    TraceTruncatedError,
    sanitize,
)

if TYPE_CHECKING:
    from _typeshed import WriteableBuffer

#: Manifest file name inside a segment directory.
MANIFEST_NAME = "manifest.json"
#: Format version stamped into every manifest.
MANIFEST_VERSION = 1

_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.jsonl(\.gz)?$")
_QUARANTINE_SUFFIX = ".quarantined"
#: Deduplication memory of a tolerant read: enough to catch the
#: adjacent re-deliveries a UDP path produces without unbounded state.
_DEDUP_CAPACITY = 8_192
#: Exceptions a torn or damaged gzip stream raises while being read;
#: ``EOFError`` is the torn-tail signature (killed collector), the other
#: two appear when compressed bytes themselves are damaged.
_GZIP_DAMAGE = (EOFError, gzip.BadGzipFile, zlib.error)


class SegmentRecoveryError(RuntimeError):
    """The segment directory cannot be recovered automatically."""


@dataclass(frozen=True)
class SegmentInfo:
    """One sealed segment's manifest entry."""

    name: str
    records: int
    sha256: str  # fingerprint of the uncompressed content bytes


def _segment_index(name: str) -> int | None:
    """The 1-based index encoded in a segment file name, else None."""
    match = _SEGMENT_RE.match(name)
    return int(match.group(1)) if match else None


def _segment_files(directory: Path) -> list[tuple[int, Path]]:
    """``(index, path)`` of every segment file in ``directory``, index order."""
    found: list[tuple[int, Path]] = []
    for path in directory.iterdir():
        index = _segment_index(path.name)
        if index is not None:
            found.append((index, path))
    found.sort()
    return found


def _scan_content(data: bytes) -> tuple[int, bytes, bool]:
    """Split raw segment bytes into ``(records, complete_prefix, torn)``.

    A record is a ``\\n``-terminated line; trailing bytes past the last
    newline are a torn write and excluded from the prefix.
    """
    cut = data.rfind(b"\n") + 1
    prefix = data[:cut]
    return prefix.count(b"\n"), prefix, cut != len(data)


def _read_segment_bytes(path: Path, compressed: bool) -> tuple[bytes, bool]:
    """Read a segment's uncompressed bytes; ``(data, damaged_tail)``.

    Gzip segments are decompressed member by member with raw ``zlib``
    rather than :func:`gzip.open`, because the stdlib reader discards
    whatever it decoded in the read call that hits a torn tail — the
    exact bytes recovery needs to salvage.  A member cut off mid-stream
    (no end-of-stream marker) or damaged compressed bytes flag the tail
    as damaged; everything decodable before the tear is returned.
    """
    raw = path.read_bytes()
    if not compressed:
        return raw, False
    out: list[bytes] = []
    damaged = False
    remaining = raw
    while remaining:
        decomp = zlib.decompressobj(wbits=31)  # gzip-wrapped member
        try:
            out.append(decomp.decompress(remaining))
        except zlib.error:
            damaged = True
            break
        if not decomp.eof:
            damaged = True  # member ends before its end-of-stream marker
            break
        remaining = decomp.unused_data
    return b"".join(out), damaged


class SegmentedTraceStore:
    """Appends reports across rotating, individually-sealed segments.

    ``records_per_segment`` bounds each segment; the active segment is
    created lazily on first append and sealed (fsync + fingerprint +
    atomic manifest update) when full, on :meth:`close`, and before each
    checkpoint via :meth:`sync`.  Construction requires a fresh (or
    empty) directory — reopening an existing segmented trace goes
    through :meth:`recover`, which is the only safe way to append to a
    directory a crashed campaign left behind.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        records_per_segment: int = 100_000,
        compress: bool = False,
        flush_every: int = 256,
        fsync_on_flush: bool = False,
        obs: AnyObserver = NULL_OBSERVER,
    ) -> None:
        if records_per_segment < 1:
            raise ValueError("records_per_segment must be >= 1")
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.directory = Path(directory)
        self.records_per_segment = records_per_segment
        self.compress = compress
        self.flush_every = flush_every
        self.fsync_on_flush = fsync_on_flush
        self._obs = obs
        #: What the most recent :meth:`recover` repaired (clean here).
        self.health = TraceHealth()
        self.directory.mkdir(parents=True, exist_ok=True)
        if (self.directory / MANIFEST_NAME).exists() or _segment_files(
            self.directory
        ):
            raise FileExistsError(
                f"{self.directory} already holds a segmented trace; "
                "reopen it with SegmentedTraceStore.recover()"
            )
        self._sealed: list[SegmentInfo] = []
        self._active_index = 1
        self._closed = False
        self._fh: TextIO | None = None
        self._raw: BinaryIO | None = None
        self._reset_active()
        self._write_manifest()

    # -- naming / layout ---------------------------------------------------

    def _segment_name(self, index: int) -> str:
        suffix = ".jsonl.gz" if self.compress else ".jsonl"
        return f"seg-{index:08d}{suffix}"

    def _segment_path(self, index: int) -> Path:
        return self.directory / self._segment_name(index)

    # -- append path -------------------------------------------------------

    def _reset_active(self) -> None:
        self._active_records = 0
        self._active_hash = hashlib.sha256()
        self._pending = 0

    def _open_active(self) -> None:
        path = self._segment_path(self._active_index)
        raw = open(path, "ab")
        if self.compress:
            # mtime=0 keeps compressed bytes deterministic across runs;
            # appending after recovery starts a new gzip member, which
            # every reader here handles transparently.
            gz = gzip.GzipFile(
                filename="", mode="ab", fileobj=raw, compresslevel=4, mtime=0
            )
            self._fh = io.TextIOWrapper(gz, encoding="utf-8", newline="")
        else:
            self._fh = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        self._raw = raw

    def _close_active_file(self, *, durable: bool) -> None:
        if self._fh is None:
            return
        self._fh.close()  # for gzip: writes the member trailer into raw
        raw = self._raw
        if raw is not None and not raw.closed:
            raw.flush()
            if durable:
                os.fsync(raw.fileno())
            raw.close()
        self._fh = None
        self._raw = None

    def append(self, report: PeerReport) -> None:
        """Append one report to the active segment (rotating if full)."""
        self.append_line(report.to_json())

    def append_line(self, line: str) -> None:
        """Append one raw line (the dirty-collection path writes these)."""
        if self._closed:
            raise TraceStoreClosedError(
                f"cannot append to closed segmented store {self.directory}; "
                "reopen it with SegmentedTraceStore.recover()"
            )
        if self._fh is None:
            self._open_active()
        assert self._fh is not None
        data = line if line.endswith("\n") else line + "\n"
        self._fh.write(data)
        self._active_hash.update(data.encode("utf-8"))
        self._active_records += 1
        self._pending += 1
        if self._obs.enabled:
            self._obs.count("trace.bytes_written", len(data))
        if self._active_records >= self.records_per_segment:
            self._seal_active()
        elif self._pending >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Push buffered lines to the OS (and to disk when fsyncing)."""
        self._pending = 0
        if self._fh is None:
            return
        self._fh.flush()
        if self.fsync_on_flush and self._raw is not None:
            os.fsync(self._raw.fileno())

    def sync(self) -> None:
        """Flush *and* fsync the active segment (checkpoint barrier).

        After ``sync()`` returns, every record appended so far is
        durable; a checkpoint that records ``len(store)`` can therefore
        always roll the store back to exactly that point.
        """
        self._pending = 0
        if self._fh is None:
            return
        self._fh.flush()
        if self._raw is not None:
            self._raw.flush()
            os.fsync(self._raw.fileno())

    def _seal_active(self) -> None:
        """Seal the active segment and publish it in the manifest."""
        if self._active_records == 0:
            self._close_active_file(durable=False)
            return
        self._close_active_file(durable=True)
        self._sealed.append(
            SegmentInfo(
                name=self._segment_name(self._active_index),
                records=self._active_records,
                sha256=self._active_hash.hexdigest(),
            )
        )
        self._write_manifest()
        self._obs.count("trace.segment_rotations")
        self._active_index += 1
        self._reset_active()

    def _write_manifest(self) -> None:
        payload = {
            "version": MANIFEST_VERSION,
            "compress": self.compress,
            "records_per_segment": self.records_per_segment,
            "segments": [
                {"name": s.name, "records": s.records, "sha256": s.sha256}
                for s in self._sealed
            ],
        }
        atomic_write_bytes(
            self.directory / MANIFEST_NAME,
            (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode("utf-8"),
        )

    # -- sizing / digests ---------------------------------------------------

    def __len__(self) -> int:
        return sum(s.records for s in self._sealed) + self._active_records

    @property
    def sealed_segments(self) -> tuple[SegmentInfo, ...]:
        """Manifest entries of every sealed segment, in order."""
        return tuple(self._sealed)

    def content_sha256(self) -> str:
        """sha256 over the uncompressed content of all segments, in order.

        The store-level identity used by kill/recover equivalence tests;
        for uncompressed traces it equals the sha256 of the concatenated
        segment files.  Requires the store to be closed (or synced).
        """
        digest = hashlib.sha256()
        for _, path in _segment_files(self.directory):
            data, _ = _read_segment_bytes(path, path.suffix == ".gz")
            digest.update(data)
        return digest.hexdigest()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Seal the active segment and close the store (idempotent)."""
        if self._closed:
            return
        if self._active_records > 0:
            self._seal_active()
        else:
            self._close_active_file(durable=False)
        self._closed = True

    def __enter__(self) -> SegmentedTraceStore:
        """Enter a ``with`` block; the store closes (and seals) on exit."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Seal and close when the ``with`` block ends."""
        self.close()

    # -- recovery ------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory: str | Path,
        *,
        records_per_segment: int | None = None,
        flush_every: int = 256,
        fsync_on_flush: bool = False,
        obs: AnyObserver = NULL_OBSERVER,
    ) -> SegmentedTraceStore:
        """Reopen a (possibly crashed) segmented trace for append.

        The scan re-fingerprints every sealed segment (quarantining any
        whose content no longer matches its manifest entry), seals any
        full segment the crash left unpublished (a mid-rotation kill),
        truncates a torn JSONL line or gzip tail of the active segment,
        and reopens for append exactly at the recovery point.  What was
        repaired or lost is accounted in the returned store's
        :attr:`health` — losses are never silent.  ``records_per_segment``
        overrides the manifest's value only when the manifest itself was
        destroyed.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        health = TraceHealth()
        store = cls.__new__(cls)
        store.directory = directory
        store.flush_every = flush_every
        store.fsync_on_flush = fsync_on_flush
        store._obs = obs
        store.health = health
        store._closed = False
        store._fh = None
        store._raw = None

        manifest = cls._load_manifest(manifest_path)
        disk = dict(_segment_files(directory))
        if manifest is None and not disk:
            raise SegmentRecoveryError(
                f"{directory}: not a segmented trace "
                "(no readable manifest, no segments)"
            )
        if manifest is not None:
            store.compress = bool(manifest.get("compress", False))
            declared = manifest.get("records_per_segment")
            store.records_per_segment = (
                declared
                if isinstance(declared, int)
                else (records_per_segment or 100_000)
            )
            entries = manifest.get("segments")
            sealed_entries = entries if isinstance(entries, list) else []
        else:
            # Manifest destroyed: infer layout and rebuild it from the
            # segments themselves (every segment gets a full scan).
            first = next(iter(disk.values()))
            store.compress = first.suffix == ".gz"
            store.records_per_segment = records_per_segment or 100_000
            sealed_entries = []

        # 1. Verify the sealed prefix against its fingerprints.
        sealed: list[SegmentInfo] = []
        last_sealed_index = 0
        for entry in sealed_entries:
            info = SegmentInfo(
                name=str(entry["name"]),
                records=int(entry["records"]),
                sha256=str(entry["sha256"]),
            )
            index = _segment_index(info.name)
            path = directory / info.name
            if index is None or not path.exists():
                health.quarantined += info.records
                continue
            data, damaged = _read_segment_bytes(path, path.suffix == ".gz")
            records, prefix, _ = _scan_content(data)
            digest = hashlib.sha256(prefix).hexdigest()
            if damaged or records != info.records or digest != info.sha256:
                cls._quarantine(path)
                health.quarantined += info.records
                disk.pop(index, None)
                continue
            health.lines_read += records
            health.records_ok += records
            sealed.append(info)
            last_sealed_index = max(last_sealed_index, index)
            disk.pop(index, None)

        # 2. Scan trailing unsealed segments in index order: a full one
        #    was sealed-but-unpublished (mid-rotation kill) — publish it;
        #    the first partial one becomes the active segment again.
        active_index = last_sealed_index + 1
        active_records = 0
        active_hash = hashlib.sha256()
        active_assigned = False
        for index in sorted(disk):
            path = disk[index]
            if index <= last_sealed_index or active_assigned:
                # Out-of-sequence leftovers (or anything after the first
                # partial segment) cannot be ordered into the stream.
                data, _ = _read_segment_bytes(path, path.suffix == ".gz")
                records, _, _ = _scan_content(data)
                cls._quarantine(path)
                health.quarantined += records
                continue
            data, damaged = _read_segment_bytes(path, path.suffix == ".gz")
            records, prefix, torn = _scan_content(data)
            if damaged or torn:
                health.truncated_lines += 1
                cls._rewrite_segment(path, prefix, store.compress)
            health.lines_read += records
            health.records_ok += records
            if records >= store.records_per_segment:
                sealed.append(
                    SegmentInfo(
                        name=path.name,
                        records=records,
                        sha256=hashlib.sha256(prefix).hexdigest(),
                    )
                )
                active_index = index + 1
                continue
            active_index = index
            active_records = records
            active_hash.update(prefix)
            active_assigned = True

        store._sealed = sealed
        store._active_index = active_index
        store._reset_active()
        store._active_records = active_records
        store._active_hash = active_hash
        store._write_manifest()
        if obs.enabled:
            obs.count("trace.recovery.runs")
            obs.count("trace.recovery.quarantined_records", health.quarantined)
            obs.count("trace.recovery.truncated_lines", health.truncated_lines)
        return store

    @staticmethod
    def _load_manifest(path: Path) -> dict[str, object] | None:
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            manifest = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(manifest, dict):
            return None
        return manifest

    @staticmethod
    def _quarantine(path: Path) -> None:
        os.replace(path, path.with_name(path.name + _QUARANTINE_SUFFIX))

    @staticmethod
    def _rewrite_segment(path: Path, content: bytes, compress: bool) -> None:
        """Rewrite a segment to hold exactly ``content`` (repair path)."""
        if not compress:
            atomic_write_bytes(path, content)
            return
        buffer = io.BytesIO()
        with gzip.GzipFile(
            filename="", mode="wb", fileobj=buffer, compresslevel=4, mtime=0
        ) as gz:
            gz.write(content)
        atomic_write_bytes(path, buffer.getvalue())

    # -- rollback (resume-from-checkpoint) ------------------------------------

    def rollback(self, total_records: int) -> None:
        """Discard every record past ``total_records``.

        A checkpoint records ``len(store)`` at a durable cut; resuming
        replays the simulation from that cut, so the store must first
        forget everything the dead run appended afterwards — otherwise
        the replay would duplicate it.  Rolling *forward* is impossible
        and raises :class:`SegmentRecoveryError` (it would mean the
        checkpoint outlived trace data that was supposedly durable).
        """
        if self._closed:
            raise TraceStoreClosedError(
                f"cannot roll back closed segmented store {self.directory}"
            )
        if total_records < 0:
            raise ValueError("total_records must be >= 0")
        if total_records > len(self):
            raise SegmentRecoveryError(
                f"{self.directory}: checkpoint expects {total_records} "
                f"records but only {len(self)} survived recovery; the "
                "trace lost durable data and cannot rejoin the checkpoint"
            )
        if self._obs.enabled:
            self._obs.count("trace.recovery.rollbacks")
            self._obs.count(
                "trace.recovery.rolled_back_records", len(self) - total_records
            )
        self._close_active_file(durable=False)
        # Sealed prefix that survives the cut intact.
        kept: list[SegmentInfo] = []
        cumulative = 0
        for info in self._sealed:
            if cumulative + info.records <= total_records:
                kept.append(info)
                cumulative += info.records
            else:
                break
        remaining = total_records - cumulative  # records inside the cut segment
        # Every file past the kept prefix — dropped sealed segments plus
        # the active segment — is truncated (the one holding the cut) or
        # deleted (everything after it), in index order.
        drop: list[Path] = [self.directory / info.name for info in self._sealed[len(kept):]]
        active_path = self._segment_path(self._active_index)
        if active_path.exists() and active_path not in drop:
            drop.append(active_path)
        drop.sort(key=lambda p: _segment_index(p.name) or 0)
        new_active = False
        for path in drop:
            if remaining == 0:
                path.unlink()
                continue
            data, _ = _read_segment_bytes(path, path.suffix == ".gz")
            records, _, _ = _scan_content(data)
            if records < remaining:
                raise SegmentRecoveryError(
                    f"{self.directory}: {path.name} holds {records} records "
                    f"but the checkpoint cut needs {remaining}"
                )
            offset = 0
            for _ in range(remaining):
                offset = data.index(b"\n", offset) + 1
            self._rewrite_segment(path, data[:offset], self.compress)
            self._become_active(path, remaining)
            remaining = 0
            new_active = True
        self._sealed = kept
        if not new_active:
            # Cut lands exactly on a sealed boundary: start a fresh
            # (lazily-created) active segment right after the prefix.
            last = _segment_index(kept[-1].name) if kept else 0
            self._active_index = (last or 0) + 1
            self._reset_active()
        self._write_manifest()

    def _become_active(self, path: Path, records: int) -> None:
        """Make a (just truncated) segment the active append target."""
        index = _segment_index(path.name)
        assert index is not None
        data, _ = _read_segment_bytes(path, path.suffix == ".gz")
        self._active_index = index
        self._reset_active()
        self._active_records = records
        self._active_hash.update(data)


class _ByteRange(io.RawIOBase):
    """Bytes ``[begin, end)`` of a file as a readable raw stream."""

    def __init__(self, path: Path, begin: int, end: int | None) -> None:
        super().__init__()
        self._fh = open(path, "rb", buffering=0)
        self._fh.seek(begin)
        self._left = (os.fstat(self._fh.fileno()).st_size if end is None else end) - begin

    def readable(self) -> bool:
        return True

    def readinto(self, buffer: WriteableBuffer) -> int:
        got = self._fh.readinto(memoryview(buffer)[: self._left]) or 0
        self._left -= got
        return got

    def close(self) -> None:
        self._fh.close()
        super().close()


def _open_segment(path: Path, begin: int = 0, end: int | None = None) -> TextIO:
    """A segment as text, whole or only its bytes ``[begin, end)``.

    A byte range opens as ``open(path)`` would, with the same newline
    handling and encoding, so its lines are the whole read's lines.
    """
    if path.suffix == ".gz":
        return gzip.open(path, "rt")
    if begin == 0 and end is None:
        return open(path)
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(path, begin, end)))


def _parse_segment(
    path: Path,
    *,
    tolerant: bool,
    health: TraceHealth,
    seen: OrderedDict[tuple[float, int], None],
    begin: int = 0,
    end: int | None = None,
) -> Iterator[PeerReport]:
    """Stream the reports of one JSONL(.gz) segment, strict or tolerant.

    Strict mode raises :class:`~repro.traces.store.TraceFormatError`
    naming the line of the first malformed record, or
    :class:`~repro.traces.store.TraceTruncatedError` when the damage is
    an incomplete final line or a torn gzip stream — the signature of a
    collector killed mid-write.  Tolerant mode skips and counts bad
    lines, ends the segment at a torn gzip tail (everything before the
    tear was already yielded), quarantines garbage-valued records and
    drops re-deliveries already in ``seen``, the pass's one dedup window.
    Counters accumulate into ``health``.  ``begin``/``end`` restrict an
    uncompressed segment to a byte range starting on a line; an error
    still names the line's number in the whole segment.
    """
    lineno = 0
    fh = _open_segment(path, begin, end)
    with fh:
        try:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line:
                    continue
                health.lines_read += 1
                try:
                    report = PeerReport.from_json(line)
                except (ValueError, KeyError, TypeError) as exc:
                    truncated = not raw.endswith("\n")
                    if tolerant:
                        if truncated:
                            health.truncated_lines += 1
                        else:
                            health.parse_failures += 1
                        continue
                    if begin:
                        with _open_segment(path, 0, begin) as head:
                            lineno += sum(1 for _ in head)
                    if truncated:
                        raise TraceTruncatedError(
                            f"{path}: truncated final line {lineno} "
                            "(collector killed mid-write?); re-read with "
                            "tolerant=True to skip it"
                        ) from exc
                    raise TraceFormatError(
                        f"{path}: malformed record on line {lineno}: {exc}"
                    ) from exc
                if tolerant:
                    if not report.is_wellformed():
                        health.quarantined += 1
                        continue
                    key = (report.time, report.peer_ip)
                    if key in seen:
                        health.duplicates += 1
                        continue
                    seen[key] = None
                    if len(seen) > _DEDUP_CAPACITY:
                        seen.popitem(last=False)
                health.records_ok += 1
                yield report
        except _GZIP_DAMAGE as exc:
            if tolerant:
                health.truncated_lines += 1
                return
            raise TraceTruncatedError(
                f"{path}: compressed stream damaged after line {lineno} "
                "(collector killed mid-write?); re-read with "
                "tolerant=True to keep the intact prefix"
            ) from exc


@dataclass(frozen=True)
class TraceSlice:
    """A part of a strict trace read, as one shard of a pass reads it.

    The slice runs from byte ``begin`` (a line start; 0 in a ``.gz``
    segment) of segment ``first`` to byte ``end`` of segment ``last``
    (``None``: to its end), indices into
    :meth:`SegmentedTraceReader.segment_paths`.  ``skip`` drops the
    slice's leading reports while it holds; ``stop`` ends the read in
    segment ``last`` at the first report it holds for.
    """

    first: int
    begin: int
    last: int
    end: int | None = None
    skip: Callable[[PeerReport], bool] | None = None
    stop: Callable[[PeerReport], bool] | None = None


class SegmentedTraceReader:
    """The trace reader: a re-iterable report stream, strict or tolerant.

    ``path`` is a campaign directory, whose segments — sealed or not —
    are read in index order as one continuous stream, so
    ``iter_windows`` and all ``repro.core`` analytics consume a whole
    campaign trace.  A lone legacy ``.jsonl[.gz]`` file is read as a
    one-segment trace.  With ``tolerant=True`` every segment goes
    through the tolerant parser with one dedup window for the whole
    pass, and the combined stream is re-sorted with
    :func:`~repro.traces.store.sanitize` (reordering can straddle a
    segment boundary); :attr:`health` accounts the most recent
    complete iteration.  A strict reader can be :meth:`sliced` to a
    :class:`TraceSlice`, the part of the trace one shard of a parallel
    pass reads (:mod:`repro.core.shards`).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        tolerant: bool = False,
        slack_s: float = 600.0,
    ) -> None:
        self.path = Path(path)
        self.tolerant = tolerant
        self.slack_s = slack_s
        #: Accounting of the most recent complete iteration.
        self.health = TraceHealth()
        #: The part of the trace a strict read covers (None: all of it).
        self.part: TraceSlice | None = None

    def sliced(self, part: TraceSlice) -> SegmentedTraceReader:
        """A strict reader of ``part`` of this trace only."""
        if self.tolerant:
            raise ValueError("only a strict read can be sliced")
        reader = SegmentedTraceReader(self.path)
        reader.part = part
        return reader

    def segment_paths(self) -> list[Path]:
        """Every segment file in index order (a lone file is its own)."""
        if self.path.is_file():
            return [self.path]
        return [path for _, path in _segment_files(self.path)]

    def _parsed(self) -> Iterator[PeerReport]:
        seen: OrderedDict[tuple[float, int], None] = OrderedDict()
        paths = self.segment_paths()
        part = self.part or TraceSlice(0, 0, len(paths) - 1)
        for index in range(part.first, part.last + 1):
            reports = _parse_segment(
                paths[index],
                tolerant=self.tolerant,
                health=self.health,
                seen=seen,
                begin=part.begin if index == part.first else 0,
                end=part.end if index == part.last else None,
            )
            if index < part.last or part.stop is None:
                yield from reports
                continue
            with contextlib.closing(reports):
                for report in reports:
                    if part.stop(report):
                        return
                    yield report

    def __iter__(self) -> Iterator[PeerReport]:
        self.health.reset()
        if not self.tolerant:
            skip = self.part.skip if self.part else None
            yield from dropwhile(skip, self._parsed()) if skip else self._parsed()
            return
        yield from sanitize(
            self._parsed(), slack_s=self.slack_s, health=self.health
        )
