"""Networked trace ingestion: the paper's collection path, made real.

``repro.ingest`` replaces the in-process trace-server coin flip with an
actual client/server collection surface on loopback: report batches are
framed (:mod:`~repro.ingest.framing`), shipped by a hardened reporter
with retry/backoff, a circuit breaker and a bounded spill buffer
(:mod:`~repro.ingest.client`), optionally damaged in flight by the
seeded fault injector of the in-process path
(:class:`~repro.traces.faults.FaultInjector`), and admitted
under backpressure into crash-tolerant exactly-once storage by the
asyncio service (:mod:`~repro.ingest.service`).  Every report a
campaign emits is either durably stored exactly once or accounted in
:class:`~repro.traces.health.TraceHealth` — loss is never silent.
"""

from repro.ingest.client import ClientStats, ReportClient
from repro.ingest.framing import (
    Frame,
    FrameError,
    FrameHeader,
    decode_frame,
    encode_frame,
)
from repro.ingest.service import ServiceStats, ShardCursor, TraceIngestService
from repro.ingest.spill import SpillBuffer

__all__ = [
    "ClientStats",
    "Frame",
    "FrameError",
    "FrameHeader",
    "ReportClient",
    "ServiceStats",
    "ShardCursor",
    "SpillBuffer",
    "TraceIngestService",
    "decode_frame",
    "encode_frame",
]
