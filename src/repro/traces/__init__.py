"""The measurement methodology of the paper (Sec. 3.2), reproduced.

Each peer sends its first report 20 minutes after joining and one every
10 minutes thereafter (so reporting peers are the 'stable backbone').
A report carries the peer's IP, channel, buffer map summary, total
download/upload capacities, instantaneous aggregate receiving/sending
throughput, and a list of all partners with per-partner sent/received
segment counts.  Reports travel over UDP (lossy) to a standalone trace
server, which appends them to a trace store.

Because the real collection path was a lossy Internet UDP path, this
package also carries a fault-injection layer (one seeded
``FaultInjector``, carried in process by ``FaultyChannel``) and a
dirty-trace-tolerant read path (``SegmentedTraceReader(tolerant=True)``,
built on ``sanitize``) whose accounting lands in a ``TraceHealth``.

On disk a trace is a campaign directory of JSONL(.gz) segments under a
manifest: ``SegmentedTraceStore`` writes it and ``SegmentedTraceReader``
reads it.  The reader also takes a lone legacy ``.jsonl[.gz]`` file
(the single-file layout of older releases) as a one-segment trace.
"""

from repro.traces.records import PartnerRecord, PeerReport
from repro.traces.health import TraceHealth
from repro.traces.reporter import build_report, port_for_peer
from repro.traces.server import TraceServer
from repro.traces.faults import (
    ChannelCounters,
    ChannelFaults,
    FaultInjector,
    FaultyChannel,
)
from repro.traces.segments import (
    SegmentedTraceReader,
    SegmentedTraceStore,
    SegmentInfo,
    SegmentRecoveryError,
)
from repro.traces.store import (
    InMemoryTraceStore,
    TraceFormatError,
    TraceStoreClosedError,
    TraceTruncatedError,
    iter_windows,
    sanitize,
)

__all__ = [
    "PartnerRecord",
    "PeerReport",
    "TraceHealth",
    "build_report",
    "port_for_peer",
    "TraceServer",
    "ChannelCounters",
    "ChannelFaults",
    "FaultInjector",
    "FaultyChannel",
    "InMemoryTraceStore",
    "SegmentInfo",
    "SegmentRecoveryError",
    "SegmentedTraceReader",
    "SegmentedTraceStore",
    "TraceFormatError",
    "TraceStoreClosedError",
    "TraceTruncatedError",
    "iter_windows",
    "sanitize",
]
