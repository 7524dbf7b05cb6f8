"""Round-based simulator of the UUSee P2P live streaming system.

This is the substrate that stands in for the paper's proprietary data
source.  It implements the UUSee protocol as described in Sec. 3.1:

- tracker-assisted bootstrap with an initial partner set of up to 50;
- RTT/TCP-throughput measurement per connection and selection of ~30
  most suitable supplying peers;
- upload-capacity monitoring and 'volunteering' at the tracker;
- partner recommendation (gossip) between neighbours;
- tracker re-contact as a last resort when playback is not sustained;
- BitTorrent-like block exchange in a sliding window, aggregated into
  fixed exchange rounds with bandwidth-constrained allocation.

The observable behaviours the paper measures (degree spikes, the ~23
indegree cut-off, ISP clustering, reciprocity, flash-crowd resilience)
all *emerge* from these rules plus the synthetic network model; they
are not scripted.
"""

from repro.simulator.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointManager,
    config_token,
    draw_fingerprint,
    load_checkpoint,
    restore_into,
    save_checkpoint,
    snapshot_system,
)
from repro.simulator.protocol import ProtocolConfig, SelectionPolicy
from repro.simulator.buffer import BufferMap
from repro.simulator.channel import Channel, ChannelCatalogue, default_catalogue
from repro.simulator.tracker import Tracker
from repro.simulator.peer import Link, Peer
from repro.simulator.failures import (
    Brownout,
    CrashWindow,
    FaultPlan,
    IspPartition,
    LinkDegradation,
    Outage,
    OutageSchedule,
)
from repro.simulator.blocks import BlockSwarm, SwarmConfig
from repro.simulator.system import SystemConfig, UUSeeSystem

__all__ = [
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointManager",
    "config_token",
    "draw_fingerprint",
    "load_checkpoint",
    "restore_into",
    "save_checkpoint",
    "snapshot_system",
    "ProtocolConfig",
    "SelectionPolicy",
    "BufferMap",
    "Channel",
    "ChannelCatalogue",
    "default_catalogue",
    "Tracker",
    "Brownout",
    "CrashWindow",
    "FaultPlan",
    "IspPartition",
    "LinkDegradation",
    "Outage",
    "OutageSchedule",
    "BlockSwarm",
    "SwarmConfig",
    "Link",
    "Peer",
    "SystemConfig",
    "UUSeeSystem",
]
