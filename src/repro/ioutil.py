"""Durable-write primitives shared by the campaign-durability layer.

Checkpoints and segment manifests must never be observable half-written:
a collector killed mid-write is this codebase's canonical failure mode
(PAPER.md Sec. 3.2), so every metadata file goes through the classic
write-temp + fsync + ``os.replace`` dance, followed by a directory fsync
so the rename itself survives a crash.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO


def fsync_directory(directory: Path) -> None:
    """fsync ``directory`` so a just-renamed entry survives a power cut.

    Best effort: platforms without directory file descriptors (or
    filesystems that refuse to fsync them) silently skip the sync; the
    preceding ``os.replace`` is still atomic with respect to readers.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """Stream bytes into ``path`` atomically and durably.

    Yields a binary file open on a same-directory temp file; once the
    ``with`` body returns, the file is flushed and fsynced, and only
    then renamed over ``path`` — a reader (or a recovery scan after a
    crash) sees either the complete old content or the complete new
    content, never a torn mixture.  The body may seek, so a writer can
    fill in a header after streaming the data it describes.  If the
    body raises, ``path`` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_directory(path.parent)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` through :func:`atomic_writer`; returns ``path``."""
    with atomic_writer(path) as fh:
        fh.write(data)
    return Path(path)
