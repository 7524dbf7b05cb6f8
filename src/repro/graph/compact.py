"""Frozen CSR-style graph views: the analytics fast path.

``Graph``/``DiGraph`` (dict-of-sets) remain the *construction*
containers — snapshot assembly mutates them freely.  Analytics then
calls ``freeze()`` once per snapshot and runs every metric kernel
against the resulting compact view, which stores adjacency as flat
integer arrays in compressed-sparse-row form: the sorted neighbour
*indices* of vertex ``i`` occupy ``indices[indptr[i]:indptr[i+1]]``.
Kernels therefore index dense lists instead of hashing node labels —
severalfold faster in CPython and far smaller than a dict of sets,
the same representation shift that made crawl-scale topology studies
(Gnutella mapping, locality-aware streaming analyses) tractable.

A compact view is immutable by contract: it shares no state with the
graph it was frozen from, its vertex order is the construction
insertion order of the source graph (hence deterministic), and derived
structures (neighbour sets, edge keys) are cached on first use.
``freeze()`` on an already-compact view returns it unchanged, so
kernels can normalise their input with a single call.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterator

from repro.graph.digraph import DiGraph, Graph, Node


def _csr_rows(rows: list[list[int]]) -> tuple[array[int], array[int]]:
    """Pack per-vertex sorted index rows into (indptr, indices) arrays."""
    indptr = array("l", [0] * (len(rows) + 1))
    flat: list[int] = []
    for i, row in enumerate(rows):
        flat.extend(row)
        indptr[i + 1] = len(flat)
    return indptr, array("l", flat)


class CompactGraph:
    """Frozen CSR view of an undirected :class:`Graph`.

    Exposes the read surface metric kernels need, label-based like the
    mutable class plus an index-based API (``*_by_index``,
    :attr:`indptr`/:attr:`indices`) that the hot kernels use directly.
    """

    __slots__ = (
        "labels",
        "index_of",
        "indptr",
        "indices",
        "_nbr_sets",
        "_adj_lists",
    )

    def __init__(
        self,
        labels: tuple[Node, ...],
        indptr: array[int],
        indices: array[int],
    ) -> None:
        self.labels = labels
        self.index_of: dict[Node, int] = {
            label: i for i, label in enumerate(labels)
        }
        self.indptr = indptr
        self.indices = indices
        self._nbr_sets: list[frozenset[int]] | None = None
        self._adj_lists: list[list[int]] | None = None

    @classmethod
    def from_graph(cls, graph: Graph) -> CompactGraph:
        """Freeze a mutable graph (vertex order = insertion order)."""
        adj = graph._adj
        labels = tuple(adj)
        index = {label: i for i, label in enumerate(labels)}
        idx = index.__getitem__
        rows = [sorted(map(idx, row)) for row in adj.values()]
        indptr, indices = _csr_rows(rows)
        return cls(labels, indptr, indices)

    # -- structure ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Vertex count."""
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return len(self.indices) // 2

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, node: Node) -> bool:
        return node in self.index_of

    def nodes(self) -> Iterator[Node]:
        """Iterate over vertex labels in frozen (insertion) order."""
        return iter(self.labels)

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Each undirected edge exactly once (lower index endpoint first)."""
        labels = self.labels
        indptr = self.indptr
        indices = self.indices
        for i in range(len(labels)):
            for j in indices[indptr[i] : indptr[i + 1]]:
                if i < j:
                    yield (labels[i], labels[j])

    def degree(self, node: Node) -> int:
        """Number of neighbours of ``node``."""
        return self.degree_by_index(self.index_of[node])

    def degree_by_index(self, i: int) -> int:
        """Number of neighbours of vertex index ``i``."""
        return self.indptr[i + 1] - self.indptr[i]

    def neighbors(self, node: Node) -> tuple[Node, ...]:
        """Neighbour labels of ``node`` (ascending index order)."""
        i = self.index_of[node]
        labels = self.labels
        return tuple(
            labels[j]
            for j in self.indices[self.indptr[i] : self.indptr[i + 1]]
        )

    def has_edge(self, u: Node, v: Node) -> bool:
        """True when the undirected edge {u, v} exists."""
        iu = self.index_of.get(u)
        iv = self.index_of.get(v)
        if iu is None or iv is None:
            return False
        return self.has_edge_index(iu, iv)

    def has_edge_index(self, i: int, j: int) -> bool:
        """True when an edge links vertex indices ``i`` and ``j``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        pos = bisect_left(self.indices, j, lo, hi)
        return pos < hi and self.indices[pos] == j

    def density(self) -> float:
        """Fraction of possible edges present (0 for graphs with <2 nodes)."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        return 2.0 * self.num_edges / (n * (n - 1))

    # -- derived caches ----------------------------------------------------

    def neighbor_sets(self) -> list[frozenset[int]]:
        """Per-vertex frozenset of neighbour indices (cached)."""
        if self._nbr_sets is None:
            indptr = self.indptr
            indices = self.indices
            self._nbr_sets = [
                frozenset(indices[indptr[i] : indptr[i + 1]])
                for i in range(len(self.labels))
            ]
        return self._nbr_sets

    def adjacency_lists(self) -> list[list[int]]:
        """Per-vertex neighbour-index lists (cached).

        Plain nested lists iterate faster than repeated CSR array
        slicing in CPython, so traversal kernels that touch every edge
        per BFS source (path sampling, components) read these.
        """
        if self._adj_lists is None:
            indptr = self.indptr
            all_indices = self.indices.tolist()
            self._adj_lists = [
                all_indices[indptr[i] : indptr[i + 1]]
                for i in range(len(self.labels))
            ]
        return self._adj_lists

    # -- conversions -------------------------------------------------------

    def freeze(self) -> CompactGraph:
        """Already frozen; returns self (lets kernels normalise input)."""
        return self

    def thaw(self) -> Graph:
        """A new mutable :class:`Graph` with the same vertices and edges."""
        graph = Graph()
        for label in self.labels:
            graph.add_node(label)
        for u, v in self.edges():
            graph.add_edge(u, v)
        return graph


class CompactDigraph:
    """Frozen CSR view of a :class:`DiGraph` (out- and in-adjacency)."""

    __slots__ = (
        "labels",
        "index_of",
        "out_indptr",
        "out_indices",
        "_in_indptr",
        "_in_indices",
        "_edge_keys",
        "_succ_sets",
    )

    def __init__(
        self,
        labels: tuple[Node, ...],
        out_indptr: array[int],
        out_indices: array[int],
        in_indptr: array[int] | None = None,
        in_indices: array[int] | None = None,
    ) -> None:
        self.labels = labels
        self.index_of: dict[Node, int] = {
            label: i for i, label in enumerate(labels)
        }
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self._in_indptr = in_indptr
        self._in_indices = in_indices
        self._edge_keys: set[int] | None = None
        self._succ_sets: list[frozenset[int]] | None = None

    @classmethod
    def from_digraph(cls, graph: DiGraph) -> CompactDigraph:
        """Freeze a mutable digraph (vertex order = insertion order)."""
        succ = graph._succ
        labels = tuple(succ)
        index = {label: i for i, label in enumerate(labels)}
        idx = index.__getitem__
        out_rows = [sorted(map(idx, row)) for row in succ.values()]
        out_indptr, out_indices = _csr_rows(out_rows)
        return cls(labels, out_indptr, out_indices)

    # In-adjacency is derived lazily: the hot per-window metrics only
    # read out-edges, so freeze() skips the transpose until a kernel
    # (in-degree, predecessors, undirected collapse) first needs it.

    def _build_in(self) -> None:
        out_indptr = self.out_indptr
        out_indices = self.out_indices
        # Visiting sources in ascending index order appends each in-row
        # already sorted — no per-row sort.
        in_rows: list[list[int]] = [[] for _ in self.labels]
        for u in range(len(self.labels)):
            for v in out_indices[out_indptr[u] : out_indptr[u + 1]]:
                in_rows[v].append(u)
        self._in_indptr, self._in_indices = _csr_rows(in_rows)

    @property
    def in_indptr(self) -> array[int]:
        """CSR row-pointer array of the in-adjacency (built on demand)."""
        if self._in_indptr is None:
            self._build_in()
            assert self._in_indptr is not None
        return self._in_indptr

    @property
    def in_indices(self) -> array[int]:
        """CSR index array of the in-adjacency (built on demand)."""
        if self._in_indices is None:
            self._build_in()
            assert self._in_indices is not None
        return self._in_indices

    # -- structure ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Vertex count."""
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Directed edge count."""
        return len(self.out_indices)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, node: Node) -> bool:
        return node in self.index_of

    def nodes(self) -> Iterator[Node]:
        """Iterate over vertex labels in frozen (insertion) order."""
        return iter(self.labels)

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Every directed edge as a (u, v) label pair."""
        labels = self.labels
        indptr = self.out_indptr
        indices = self.out_indices
        for i in range(len(labels)):
            for j in indices[indptr[i] : indptr[i + 1]]:
                yield (labels[i], labels[j])

    def successors(self, node: Node) -> tuple[Node, ...]:
        """Out-neighbour labels of ``node`` (ascending index order)."""
        i = self.index_of[node]
        labels = self.labels
        return tuple(
            labels[j]
            for j in self.out_indices[
                self.out_indptr[i] : self.out_indptr[i + 1]
            ]
        )

    def predecessors(self, node: Node) -> tuple[Node, ...]:
        """In-neighbour labels of ``node`` (ascending index order)."""
        i = self.index_of[node]
        labels = self.labels
        return tuple(
            labels[j]
            for j in self.in_indices[self.in_indptr[i] : self.in_indptr[i + 1]]
        )

    def out_degree(self, node: Node) -> int:
        """Number of out-neighbours of ``node``."""
        return self.out_degree_by_index(self.index_of[node])

    def in_degree(self, node: Node) -> int:
        """Number of in-neighbours of ``node``."""
        return self.in_degree_by_index(self.index_of[node])

    def out_degree_by_index(self, i: int) -> int:
        """Out-degree of vertex index ``i``."""
        return self.out_indptr[i + 1] - self.out_indptr[i]

    def in_degree_by_index(self, i: int) -> int:
        """In-degree of vertex index ``i``."""
        return self.in_indptr[i + 1] - self.in_indptr[i]

    def has_edge(self, u: Node, v: Node) -> bool:
        """True when the directed edge ``u -> v`` exists."""
        iu = self.index_of.get(u)
        iv = self.index_of.get(v)
        if iu is None or iv is None:
            return False
        return self.has_edge_index(iu, iv)

    def has_edge_index(self, i: int, j: int) -> bool:
        """True when the directed edge ``i -> j`` exists (vertex indices)."""
        return i * len(self.labels) + j in self.edge_keys()

    def density(self) -> float:
        """Ratio of existing to possible directed edges."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        return self.num_edges / (n * (n - 1))

    # -- derived caches ----------------------------------------------------

    def edge_keys(self) -> set[int]:
        """Every edge as the integer key ``u_index * n + v_index`` (cached).

        One int-set membership test replaces the two dict lookups plus a
        set probe the mutable class pays per ``has_edge`` — the kernel
        speedup behind reciprocity.
        """
        if self._edge_keys is None:
            n = len(self.labels)
            indptr = self.out_indptr
            indices = self.out_indices
            keys: set[int] = set()
            for i in range(n):
                base = i * n
                for j in indices[indptr[i] : indptr[i + 1]]:
                    keys.add(base + j)
            self._edge_keys = keys
        return self._edge_keys

    def succ_sets(self) -> list[frozenset[int]]:
        """Per-vertex frozenset of successor indices (cached)."""
        if self._succ_sets is None:
            indptr = self.out_indptr
            indices = self.out_indices
            self._succ_sets = [
                frozenset(indices[indptr[i] : indptr[i + 1]])
                for i in range(len(self.labels))
            ]
        return self._succ_sets

    # -- conversions -------------------------------------------------------

    def freeze(self) -> CompactDigraph:
        """Already frozen; returns self (lets kernels normalise input)."""
        return self

    def thaw(self) -> DiGraph:
        """A new mutable :class:`DiGraph` with the same vertices and edges."""
        graph = DiGraph()
        for label in self.labels:
            graph.add_node(label)
        for u, v in self.edges():
            graph.add_edge(u, v)
        return graph
