"""Topology snapshot construction from trace windows (paper Sec. 4).

A snapshot summarises one observation window of the trace:

- *stable peers* are those whose reports arrived in the window (the
  paper's reporting peers — the 'stable backbone');
- the *active graph* is directed: an edge u -> v exists when at least
  ``active_threshold`` segments flowed from u to v in the window,
  reconstructed from both endpoints' reports (receivers report what they
  got from each partner; senders report what they sent);
- the *partner graph* is undirected and contains every partnership a
  reporting peer listed, active or not — transient peers appear here via
  the partner lists of stable peers, exactly as in the paper's traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.graph.compact import CompactDigraph, CompactGraph
from repro.graph.digraph import DiGraph, Graph
from repro.traces.records import PeerReport

DEFAULT_ACTIVE_THRESHOLD = 10


@dataclass
class TopologySnapshot:
    """One observation window's topology and per-peer report data."""

    time: float
    window_seconds: float
    reports: dict[int, PeerReport]  # latest report per stable peer IP
    active_graph: DiGraph  # directed active links, all IPs
    partner_graph: Graph  # undirected partnerships, all IPs
    active_threshold: int = DEFAULT_ACTIVE_THRESHOLD
    _stable_active: DiGraph | None = field(default=None, repr=False)
    _active_compact: CompactDigraph | None = field(default=None, repr=False)
    _stable_undirected_compact: CompactGraph | None = field(
        default=None, repr=False
    )

    @property
    def stable_ips(self) -> set[int]:
        """IPs that reported in this window."""
        return set(self.reports)

    @property
    def all_ips(self) -> set[int]:
        """Every IP seen: reporters plus their listed partners."""
        return set(self.partner_graph.nodes())

    @property
    def num_stable(self) -> int:
        """Number of stable (reporting) peers."""
        return len(self.reports)

    @property
    def num_total(self) -> int:
        """All IPs seen in the window: reporters plus listed partners."""
        return self.partner_graph.num_nodes

    def stable_active_graph(self) -> DiGraph:
        """Active links restricted to stable (reporting) peers."""
        if self._stable_active is None:
            self._stable_active = self.active_graph.subgraph(self.stable_ips)
        return self._stable_active

    def stable_undirected_graph(self) -> Graph:
        """Undirected stable-peer graph of active links (Sec. 4.3)."""
        return self.stable_active_graph().to_undirected()

    def active_compact(self) -> CompactDigraph:
        """Frozen CSR view of the active graph (cached per snapshot)."""
        if self._active_compact is None:
            self._active_compact = self.active_graph.freeze()
        return self._active_compact

    def stable_undirected_compact(self) -> CompactGraph:
        """Frozen CSR view of the stable undirected graph (cached).

        Built by freezing :meth:`stable_undirected_graph`, so vertex
        order — and therefore every order-sensitive float accumulation
        downstream — matches the mutable path exactly.
        """
        if self._stable_undirected_compact is None:
            self._stable_undirected_compact = (
                self.stable_undirected_graph().freeze()
            )
        return self._stable_undirected_compact


def build_snapshot(
    reports: Iterable[PeerReport],
    *,
    time: float,
    window_seconds: float,
    active_threshold: int = DEFAULT_ACTIVE_THRESHOLD,
) -> TopologySnapshot:
    """Assemble a snapshot from the reports of one observation window.

    When a peer reported more than once in the window, its latest report
    wins (the counters are per-interval, so the latest reflects the most
    recent exchange activity).
    """
    latest: dict[int, PeerReport] = {}
    for report in reports:
        previous = latest.get(report.peer_ip)
        if previous is None or report.time >= previous.time:
            latest[report.peer_ip] = report

    # Adjacency is assembled directly on the graphs' dict-of-set storage,
    # unpacking each partner tuple once: this loop dominates per-window
    # analytics cost, and per-edge add_edge calls and per-field attribute
    # loads were its hottest parts.  Insertion order (reporter first, then
    # partners in report order) and dedup match the add_edge path exactly.
    active = DiGraph()
    partners = Graph()
    padj = partners._adj
    succ = active._succ
    pred = active._pred
    partner_edges = 0
    active_edges = 0
    for ip, report in latest.items():
        prow = padj.get(ip)
        if prow is None:
            prow = padj[ip] = set()
        if ip not in succ:
            succ[ip] = set()
            pred[ip] = set()
        for pip, _port, sent, recv in report.partners:
            if pip == ip:
                continue
            orow = padj.get(pip)
            if orow is None:
                orow = padj[pip] = set()
            if pip not in prow:
                prow.add(pip)
                orow.add(ip)
                partner_edges += 1
            if recv >= active_threshold:
                out_pip = succ.get(pip)
                if out_pip is None:
                    out_pip = succ[pip] = set()
                    pred[pip] = set()
                if ip not in out_pip:
                    out_pip.add(ip)
                    pred[ip].add(pip)
                    active_edges += 1
            if sent >= active_threshold:
                out_ip = succ[ip]
                if pip not in out_ip:
                    out_ip.add(pip)
                    in_pip = pred.get(pip)
                    if in_pip is None:
                        succ[pip] = set()
                        in_pip = pred[pip] = set()
                    in_pip.add(ip)
                    active_edges += 1
    partners._num_edges = partner_edges
    active._num_edges = active_edges
    return TopologySnapshot(
        time=time,
        window_seconds=window_seconds,
        reports=latest,
        active_graph=active,
        partner_graph=partners,
        active_threshold=active_threshold,
    )
