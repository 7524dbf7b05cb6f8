"""Incremental window analytics: metrics from edge deltas (repro.soa).

Per-window structural analytics — degree histograms, active-topology
edge reciprocity and stable-graph clustering — normally rebuild a
:class:`~repro.core.snapshots.TopologySnapshot` per observation window
and run the CSR kernels on it.  Consecutive windows of a live-streaming
trace share most of their topology, so :class:`IncrementalWindowMetrics`
instead maintains the window state under *edge deltas*:

- the directed active edge set and its node count (the bilateral-pair
  count feeding reciprocity is recounted per window — one C-speed set
  intersection beats per-edge bookkeeping at live-streaming churn);
- the stable-peer undirected projection with per-node triangle counts
  (clustering), updated edge-by-edge via neighbour-set intersections;
- per-reporter degree triples with histogram counters touched only
  when a peer's degrees change between windows.

Every maintained quantity is an **integer** (adjacency sets, triangle
counts, bilateral pairs, histogram buckets), so nothing can drift; the
float finalisation then evaluates *exactly* the kernels' expressions in
*exactly* the kernels' iteration order:

- reciprocity reuses :func:`repro.core.metrics._rho`, making the result
  bit-identical to ``edge_reciprocity(snapshot.active_compact())``;
- clustering replays the ``subgraph -> to_undirected -> freeze`` vertex
  ordering (a set comprehension over the stable-IP set) and sums
  ``overlap / (k * (k - 1))`` in that order, bit-identical to
  ``average_clustering(snapshot.stable_undirected_compact())``;
- degree histograms rebuild the sorted ``(degree, count)`` tuples from
  the maintained counters, equal to
  ``degree_distributions(snapshot)``.

``resync_every`` bounds the defensive surface: every N processed
windows the state is recomputed from scratch from the current window
(the integers are provably stable, but a full resync keeps any future
maintenance bug from persisting silently).  The driver is
:func:`repro.core.experiments.windowed_structure`, which advances one
instance per window of a shared :func:`repro.core.timeseries.sample_trace`
pass.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.metrics import _rho
from repro.graph.degree import DegreeDistribution
from repro.traces.records import PeerReport

Edge = tuple[int, int]


def _latest_reports(reports: Iterable[PeerReport]) -> dict[int, PeerReport]:
    """Latest report per IP — the same dedup ``build_snapshot`` applies."""
    latest: dict[int, PeerReport] = {}
    for report in reports:
        previous = latest.get(report.peer_ip)
        if previous is None or report.time >= previous.time:
            latest[report.peer_ip] = report
    return latest


class IncrementalWindowMetrics:
    """Window analytics maintained under edge deltas between snapshots."""

    def __init__(
        self, *, active_threshold: int = 10, resync_every: int = 64
    ) -> None:
        if resync_every < 0:
            raise ValueError("resync_every must be >= 0 (0 disables resync)")
        self.active_threshold = active_threshold
        self.resync_every = resync_every
        self.windows_processed = 0
        self.resyncs = 0
        # Directed active topology (all IPs): counts only.
        self._num_nodes = 0
        self._num_edges = 0
        self._bilateral = 0
        # Stable-peer undirected projection and triangle counts.
        self._proj: set[Edge] = set()  # normalised (min, max) pairs
        self._adj: dict[int, set[int]] = {}
        self._tri: dict[int, int] = {}
        # Degree histograms over the window's reporters.
        self._deg_by_ip: dict[int, tuple[int, int, int]] = {}
        self._hist: tuple[dict[int, int], dict[int, int], dict[int, int]] = (
            {},
            {},
            {},
        )
        # Current-window context for finalisation.
        self._latest: dict[int, PeerReport] = {}

    # -- window ingestion --------------------------------------------------

    def update(
        self, window_reports: Iterable[PeerReport]
    ) -> dict[str, object]:
        """Advance the state to the next window and return its metric row."""
        latest = _latest_reports(window_reports)
        self._latest = latest
        edges, proj, triples, transient = self._scan_window(latest)
        # Node count of the window's active graph: every reporter, plus
        # every transient endpoint of an active edge (as build_snapshot
        # unions reporters with edge endpoints).
        self._num_nodes = len(latest) + len(transient)
        self._num_edges = len(edges)
        self.windows_processed += 1
        if (
            self.resync_every
            and self.windows_processed % self.resync_every == 0
        ):
            self._resync(edges, proj, triples)
        else:
            self._apply_edge_deltas(edges)
            self._apply_projection_deltas(proj)
            self._apply_degree_deltas(triples)
        return self.row()

    def _scan_window(
        self, latest: dict[int, PeerReport]
    ) -> tuple[
        set[Edge], set[Edge], dict[int, tuple[int, int, int]], set[int]
    ]:
        """One pass over the window's reports: directed active edges
        (build_snapshot semantics), their stable undirected projection,
        the per-reporter degree triples and the transient endpoints."""
        thr = self.active_threshold
        edges: set[Edge] = set()
        proj: set[Edge] = set()
        triples: dict[int, tuple[int, int, int]] = {}
        transient: set[int] = set()
        eadd = edges.add
        padd = proj.add
        tadd = transient.add
        for ip, report in latest.items():
            partners = report.partners
            n_in = 0
            n_out = 0
            for pip, _port, sent, recv in partners:
                recv_active = recv >= thr
                sent_active = sent >= thr
                if recv_active:
                    n_in += 1
                if sent_active:
                    n_out += 1
                if pip == ip:
                    continue
                if pip in latest:
                    if recv_active:
                        eadd((pip, ip))
                        padd((pip, ip) if pip < ip else (ip, pip))
                    if sent_active:
                        eadd((ip, pip))
                        padd((ip, pip) if ip < pip else (pip, ip))
                elif recv_active or sent_active:
                    tadd(pip)
                    if recv_active:
                        eadd((pip, ip))
                    if sent_active:
                        eadd((ip, pip))
            triples[ip] = (len(partners), n_in, n_out)
        return edges, proj, triples, transient

    def _apply_edge_deltas(self, edges: set[Edge]) -> None:
        """Recount bilateral pairs on the new edge set.

        Unlike clustering and degrees, the bilateral count has no
        per-edge update cheaper than a membership probe, so it is
        recounted directly: one integer probe per edge, no graph
        materialisation or float work.
        """
        self._bilateral = len(edges & {(v, u) for (u, v) in edges})

    def _apply_projection_deltas(self, proj: set[Edge]) -> None:
        adj = self._adj
        tri = self._tri
        for u, v in self._proj - proj:
            row_u = adj[u]
            row_v = adj[v]
            row_u.remove(v)
            row_v.remove(u)
            common = row_u & row_v
            if common:
                for w in common:
                    tri[w] -= 1
                k = len(common)
                tri[u] -= k
                tri[v] -= k
            if not row_u:
                del adj[u]
                tri.pop(u, None)
            if not row_v:
                del adj[v]
                tri.pop(v, None)
        for u, v in proj - self._proj:
            row_u = adj.get(u)
            if row_u is None:
                row_u = adj[u] = set()
            row_v = adj.get(v)
            if row_v is None:
                row_v = adj[v] = set()
            common = row_u & row_v
            if common:
                for w in common:
                    tri[w] = tri.get(w, 0) + 1
                k = len(common)
                tri[u] = tri.get(u, 0) + k
                tri[v] = tri.get(v, 0) + k
            row_u.add(v)
            row_v.add(u)
        self._proj = proj

    def _apply_degree_deltas(
        self, triples: dict[int, tuple[int, int, int]]
    ) -> None:
        by_ip = self._deg_by_ip
        hist = self._hist
        shift = self._hist_shift
        for ip, triple in triples.items():
            old = by_ip.get(ip)
            if old == triple:
                continue
            if old is not None:
                shift(hist, old, -1)
            shift(hist, triple, +1)
        for ip, old in by_ip.items():
            if ip not in triples:
                shift(hist, old, -1)
        self._deg_by_ip = triples

    @staticmethod
    def _hist_shift(
        hist: tuple[dict[int, int], dict[int, int], dict[int, int]],
        triple: tuple[int, int, int],
        delta: int,
    ) -> None:
        for counter, degree in zip(hist, triple):
            count = counter.get(degree, 0) + delta
            if count:
                counter[degree] = count
            else:
                counter.pop(degree, None)

    def _resync(
        self,
        edges: set[Edge],
        proj: set[Edge],
        triples: dict[int, tuple[int, int, int]],
    ) -> None:
        """Rebuild every maintained structure from the current window."""
        self.resyncs += 1
        self._bilateral = len(edges & {(v, u) for (u, v) in edges})
        self._proj = proj
        adj: dict[int, set[int]] = {}
        for u, v in proj:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        self._adj = adj
        tri: dict[int, int] = {}
        for u, v in proj:
            common = adj[u] & adj[v]
            if common:
                for w in common:
                    tri[w] = tri.get(w, 0) + 1
                k = len(common)
                tri[u] = tri.get(u, 0) + k
                tri[v] = tri.get(v, 0) + k
        # Each triangle edge saw it once; normalise to per-node counts.
        self._tri = {n: c // 3 for n, c in tri.items() if c}
        self._deg_by_ip = triples
        hist: tuple[dict[int, int], dict[int, int], dict[int, int]] = (
            {},
            {},
            {},
        )
        for triple in triples.values():
            self._hist_shift(hist, triple, +1)
        self._hist = hist

    # -- finalisation ------------------------------------------------------

    def row(self) -> dict[str, object]:
        """The current window's metric row (kernel-exact floats)."""
        return {
            "degrees": self.degree_distributions(),
            "reciprocity": self.reciprocity(),
            "clustering": self.clustering(),
        }

    def degree_distributions(self) -> dict[str, DegreeDistribution]:
        """Equal to ``metrics.degree_distributions`` on this window."""
        out: dict[str, DegreeDistribution] = {}
        for name, counter in zip(("partners", "in", "out"), self._hist):
            out[name] = DegreeDistribution(
                counts=tuple(sorted(counter.items())),
                num_peers=sum(counter.values()),
            )
        return out

    def reciprocity(self) -> float:
        """Bit-identical to ``edge_reciprocity(snapshot.active_compact())``."""
        return _rho(self._num_nodes, self._num_edges, self._bilateral)

    def clustering(self) -> float:
        """Bit-identical to the CSR ``average_clustering`` kernel.

        The kernel's float sum runs over the compact vertex order of
        ``stable_undirected_compact()``, which is the iteration order of
        the ``keep`` set ``DiGraph.subgraph`` builds from
        ``snapshot.stable_ips``; both set constructions are replayed
        here so the accumulation order — and the result — match bit for
        bit.
        """
        stable_ips = set(self._latest)
        keep = {n for n in stable_ips}  # noqa: C416 - replays subgraph's layout
        adj = self._adj
        tri = self._tri
        total = 0.0
        counted = 0
        for node in keep:
            row = adj.get(node)
            k = len(row) if row is not None else 0
            if k < 2:
                counted += 1
                continue
            overlap = 2 * tri.get(node, 0)
            total += overlap / (k * (k - 1))
            counted += 1
        if counted == 0:
            return 0.0
        return total / counted

