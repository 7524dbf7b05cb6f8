"""The paper's metric suite over topology snapshots (Sec. 4).

Every function takes a :class:`TopologySnapshot` (plus, where relevant,
the ISP mapping database) and returns plain values or small dataclasses,
so experiment drivers can assemble the exact series each figure plots.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from collections.abc import Iterable

from repro.graph.compact import CompactGraph
from repro.graph.degree import DegreeDistribution
from repro.graph.digraph import Graph
from repro.graph.smallworld import SmallWorldMetrics, small_world_metrics
from repro.core.snapshots import TopologySnapshot
from repro.network.isp import IspDatabase
from repro.traces.records import PeerReport

# ----------------------------------------------------------------- Fig. 1


def peer_counts(snapshot: TopologySnapshot) -> tuple[int, int]:
    """(total IPs seen, stable reporting IPs) in the window — Fig. 1(A)."""
    return snapshot.num_total, snapshot.num_stable


def daily_distinct_ips(
    reports: Iterable[PeerReport], *, seconds_per_day: float = 86_400.0
) -> list[tuple[int, int, int]]:
    """Per-day (day index, distinct total IPs, distinct stable IPs).

    'Stable' IPs reported at least once that day; 'total' additionally
    counts every IP appearing in any partner list — Fig. 1(B).
    """
    tally = DailyIpTally(seconds_per_day=seconds_per_day)
    for report in reports:
        tally.add(report)
    return tally.rows()


class DailyIpTally:
    """:func:`daily_distinct_ips` fed one report at a time.

    Lets a pass that streams the trace for other metrics build Fig. 1(B)
    on the way, instead of reading the trace a second time.
    """

    def __init__(self, *, seconds_per_day: float = 86_400.0) -> None:
        self.seconds_per_day = seconds_per_day
        self._total_by_day: dict[int, set[int]] = defaultdict(set)
        self._stable_by_day: dict[int, set[int]] = defaultdict(set)

    def add(self, report: PeerReport) -> None:
        """Count one report's IP and its partners' IPs on its day."""
        day = int(report.time // self.seconds_per_day)
        self._stable_by_day[day].add(report.peer_ip)
        total = self._total_by_day[day]
        total.add(report.peer_ip)
        total.update([p[0] for p in report.partners])  # each partner's ip

    def merge(self, other: DailyIpTally) -> None:
        """Fold in a tally of another part of the same trace."""
        for day, ips in other._total_by_day.items():
            self._total_by_day[day] |= ips
        for day, ips in other._stable_by_day.items():
            self._stable_by_day[day] |= ips

    def rows(self) -> list[tuple[int, int, int]]:
        """(day index, distinct total IPs, distinct stable IPs), by day."""
        return [
            (day, len(self._total_by_day[day]), len(self._stable_by_day[day]))
            for day in sorted(self._total_by_day)
        ]


# ----------------------------------------------------------------- Fig. 2


def isp_shares(
    snapshot: TopologySnapshot, db: IspDatabase, *, stable_only: bool = False
) -> dict[str, float]:
    """Fraction of peers per ISP (unmapped IPs, e.g. servers, excluded)."""
    ips = snapshot.stable_ips if stable_only else snapshot.all_ips
    counts: dict[str, int] = defaultdict(int)
    mapped = 0
    for ip in ips:
        name = db.lookup(ip)
        if name is not None:
            counts[name] += 1
            mapped += 1
    if mapped == 0:
        return {}
    return {name: count / mapped for name, count in counts.items()}


# ----------------------------------------------------------------- Fig. 3


def streaming_quality(
    snapshot: TopologySnapshot,
    channel_id: int,
    stream_rate_kbps: float,
    *,
    threshold: float = 0.9,
) -> float | None:
    """Fraction of the channel's stable peers receiving >= 90% of the rate.

    Returns None when the window holds no reports for the channel.
    """
    rates = [
        r.recv_rate_kbps
        for r in snapshot.reports.values()
        if r.channel_id == channel_id
    ]
    if not rates:
        return None
    satisfied = sum(1 for rate in rates if rate >= threshold * stream_rate_kbps)
    return satisfied / len(rates)


# ------------------------------------------------------------- Figs. 4, 5


@dataclass(frozen=True)
class DegreeSummary:
    """Mean degrees of stable peers in one window — the Fig. 5 series."""

    mean_partners: float
    mean_indegree: float
    mean_outdegree: float


def degree_distributions(
    snapshot: TopologySnapshot,
) -> dict[str, DegreeDistribution]:
    """{'partners', 'in', 'out'} distributions over stable peers — Fig. 4.

    Degrees come straight from each stable peer's report, so partners may
    include transient peers — matching the paper's methodology.
    """
    thr = snapshot.active_threshold
    partners, indeg, outdeg = [], [], []
    for report in snapshot.reports.values():
        partners.append(len(report.partners))
        n_in = 0
        n_out = 0
        for _ip, _port, sent, recv in report.partners:
            if recv >= thr:
                n_in += 1
            if sent >= thr:
                n_out += 1
        indeg.append(n_in)
        outdeg.append(n_out)
    return {
        "partners": DegreeDistribution.from_degrees(partners),
        "in": DegreeDistribution.from_degrees(indeg),
        "out": DegreeDistribution.from_degrees(outdeg),
    }


def average_degrees(snapshot: TopologySnapshot) -> DegreeSummary:
    """Mean partner count / active indegree / active outdegree — Fig. 5."""
    dists = degree_distributions(snapshot)
    return DegreeSummary(
        mean_partners=dists["partners"].mean(),
        mean_indegree=dists["in"].mean(),
        mean_outdegree=dists["out"].mean(),
    )


# ----------------------------------------------------------------- Fig. 6


@dataclass(frozen=True)
class IntraIspDegrees:
    """Average per-peer fraction of intra-ISP active degree — Fig. 6."""

    indegree_fraction: float
    outdegree_fraction: float
    peers_with_indegree: int
    peers_with_outdegree: int


def intra_isp_degree_fractions(
    snapshot: TopologySnapshot, db: IspDatabase
) -> IntraIspDegrees:
    """Per-peer intra-ISP proportions of active in/outdegree, averaged.

    Follows the paper exactly: for each stable peer, the proportion of
    its active supplying (receiving) partners in the same ISP, then the
    mean over peers.  Peers with zero active degree (or unmapped IPs)
    are excluded from the corresponding average.
    """
    thr = snapshot.active_threshold
    in_fracs: list[float] = []
    out_fracs: list[float] = []
    lookup = db.lookup
    # partner IPs repeat heavily across reports; memoise the prefix walk
    cache: dict[int, str | None] = {}
    for report in snapshot.reports.values():
        ip = report.peer_ip
        own = cache[ip] if ip in cache else cache.setdefault(ip, lookup(ip))
        if own is None:
            continue
        n_sup = same_sup = 0
        n_recv = same_recv = 0
        for pip, _port, sent, recv in report.partners:
            supplies = recv >= thr
            receives = sent >= thr
            if not (supplies or receives):
                continue
            isp = cache[pip] if pip in cache else cache.setdefault(
                pip, lookup(pip)
            )
            same = isp == own
            if supplies:
                n_sup += 1
                if same:
                    same_sup += 1
            if receives:
                n_recv += 1
                if same:
                    same_recv += 1
        if n_sup:
            in_fracs.append(same_sup / n_sup)
        if n_recv:
            out_fracs.append(same_recv / n_recv)
    return IntraIspDegrees(
        indegree_fraction=sum(in_fracs) / len(in_fracs) if in_fracs else 0.0,
        outdegree_fraction=sum(out_fracs) / len(out_fracs) if out_fracs else 0.0,
        peers_with_indegree=len(in_fracs),
        peers_with_outdegree=len(out_fracs),
    )


def random_intra_isp_baseline(db: IspDatabase) -> float:
    """Expected intra-ISP fraction under ISP-blind partner selection.

    If partners were chosen uniformly, the probability that a partner
    shares the peer's ISP is that ISP's population share; averaging over
    peers gives the sum of squared shares.
    """
    return sum(isp.share**2 for isp in db.isps)


# ----------------------------------------------------------------- Fig. 7


def small_world(
    snapshot: TopologySnapshot,
    *,
    isp: str | None = None,
    db: IspDatabase | None = None,
    seed: int = 0,
    path_sample_sources: int | None = 64,
    exact_below: int = 128,
) -> SmallWorldMetrics:
    """Small-world metrics of the stable-peer graph (or one ISP's subgraph)."""
    graph: Graph | CompactGraph = snapshot.stable_undirected_compact()
    if isp is not None:
        if db is None:
            raise ValueError("ISP subgraph analysis requires the ISP database")
        members = [ip for ip in graph.nodes() if db.lookup(ip) == isp]
        graph = snapshot.stable_undirected_graph().subgraph(members)
    return small_world_metrics(
        graph,
        seed=seed,
        path_sample_sources=path_sample_sources,
        exact_below=exact_below,
    )


# ----------------------------------------------------------------- Fig. 8


@dataclass(frozen=True)
class ReciprocityMetrics:
    """Edge reciprocity rho of the active topology — Fig. 8."""

    all_links: float
    intra_isp: float
    inter_isp: float
    num_edges: int


def _rho(num_nodes: int, num_edges: int, bilateral: int) -> float:
    """Eq. (2) rho from partition counts.

    Exactly the float expressions of :func:`edge_reciprocity` /
    :func:`reciprocity_from_edges`, so counting-based callers stay
    bit-identical to the edge-set implementations.
    """
    if num_edges == 0 or num_nodes < 2:
        return 0.0
    abar = num_edges / (num_nodes * (num_nodes - 1))
    if abar >= 1.0:
        return 0.0
    r = bilateral / num_edges
    return (r - abar) / (1.0 - abar)


def reciprocity_metrics(
    snapshot: TopologySnapshot, db: IspDatabase
) -> ReciprocityMetrics:
    """rho over all active links, intra-ISP links and inter-ISP links.

    As in the paper, the intra (inter) sub-topology consists of the
    links whose endpoints share (differ in) ISP, plus incident peers.
    The partitions never materialise as graphs: one pass over the
    frozen graph's integer edge keys classifies every link, counts its
    reverse-edge probe, and accumulates the incident-vertex sets an
    induced subgraph would have.  A link's reverse (when present) is
    always in the same partition, so one probe serves all three rhos.
    """
    full = snapshot.active_compact()
    n = full.num_nodes
    succ = full.succ_sets()
    lookup = db.lookup
    isp_by_index = [lookup(ip) for ip in full.labels]

    bilateral_all = 0
    intra_m = inter_m = 0
    intra_bilateral = inter_bilateral = 0
    intra_mark = bytearray(n)
    inter_mark = bytearray(n)
    for u in range(n):
        a = isp_by_index[u]
        for v in succ[u]:
            reciprocal = u in succ[v]
            if reciprocal:
                bilateral_all += 1
            if a is None:
                continue
            b = isp_by_index[v]
            if b is None:
                continue
            if a == b:
                intra_m += 1
                intra_mark[u] = 1
                intra_mark[v] = 1
                if reciprocal:
                    intra_bilateral += 1
            else:
                inter_m += 1
                inter_mark[u] = 1
                inter_mark[v] = 1
                if reciprocal:
                    inter_bilateral += 1
    return ReciprocityMetrics(
        all_links=_rho(n, full.num_edges, bilateral_all),
        intra_isp=_rho(sum(intra_mark), intra_m, intra_bilateral),
        inter_isp=_rho(sum(inter_mark), inter_m, inter_bilateral),
        num_edges=full.num_edges,
    )
