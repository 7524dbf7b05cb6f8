"""Degree distributions and power-law diagnostics (paper Sec. 4.2).

The paper plots, on log-log axes, the fraction of stable peers having
each (in/out/total-partner) degree, and argues the distributions are
*not* power laws: they have an interior spike (mode) whose location
moves with time of day, and the indegree curve drops abruptly near 23.
``DegreeDistribution`` captures a distribution once and exposes the
statistics those arguments need.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Literal

from repro.graph.compact import CompactDigraph
from repro.graph.digraph import DiGraph, Node
from repro.stats import near_zero

DegreeKind = Literal["in", "out", "total"]


@dataclass(frozen=True)
class DegreeDistribution:
    """An empirical degree distribution over a peer population."""

    counts: tuple[tuple[int, int], ...]  # sorted (degree, num_peers)
    num_peers: int

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> DegreeDistribution:
        counter = Counter(degrees)
        items = tuple(sorted(counter.items()))
        return cls(counts=items, num_peers=sum(counter.values()))

    def fraction(self, degree: int) -> float:
        """P(degree = d): the paper's y-axis ('percentage of peers')."""
        if self.num_peers == 0:
            return 0.0
        for d, c in self.counts:
            if d == degree:
                return c / self.num_peers
        return 0.0

    def pmf(self) -> list[tuple[int, float]]:
        """(degree, fraction) pairs, ascending by degree."""
        if self.num_peers == 0:
            return []
        return [(d, c / self.num_peers) for d, c in self.counts]

    def ccdf(self) -> list[tuple[int, float]]:
        """(degree, P(X >= degree)) pairs, ascending by degree."""
        if self.num_peers == 0:
            return []
        out: list[tuple[int, float]] = []
        remaining = self.num_peers
        for d, c in self.counts:
            out.append((d, remaining / self.num_peers))
            remaining -= c
        return out

    def mean(self) -> float:
        """Mean degree over the population (0.0 when empty)."""
        if self.num_peers == 0:
            return 0.0
        return sum(d * c for d, c in self.counts) / self.num_peers

    def max_degree(self) -> int:
        """Largest observed degree (0 when empty)."""
        return self.counts[-1][0] if self.counts else 0

    def mode(self, *, min_degree: int = 1) -> int:
        """Most common degree at or above ``min_degree`` (the 'spike')."""
        eligible = [(c, d) for d, c in self.counts if d >= min_degree]
        if not eligible:
            return 0
        best_count, best_degree = max(eligible, key=lambda t: (t[0], -t[1]))
        del best_count
        return best_degree

    def quantile(self, q: float) -> int:
        """Smallest degree d with P(X <= d) >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if self.num_peers == 0:
            return 0
        seen = 0
        for d, c in self.counts:
            seen += c
            if seen / self.num_peers >= q:
                return d
        return self.counts[-1][0]

    def drop_point(self, *, fraction_floor: float = 1e-3) -> int:
        """Degree past which the distribution falls below ``fraction_floor``.

        Used to locate the abrupt indegree cut-off the paper reports near
        23: the largest degree whose peer fraction still exceeds the floor.
        """
        last = 0
        for d, c in self.counts:
            if self.num_peers and c / self.num_peers >= fraction_floor:
                last = d
        return last


def degrees_of(
    graph: DiGraph | CompactDigraph,
    kind: DegreeKind,
    nodes: Sequence[Node] | None = None,
) -> list[int]:
    """Degrees of ``nodes`` (default: all vertices) in ``graph``.

    ``total`` counts distinct neighbours in either direction, matching the
    paper's 'total number of partners' when applied to the partner graph.
    """
    compact = graph.freeze()
    index_of = compact.index_of
    if nodes is not None:
        targets = [index_of[n] for n in nodes]
    else:
        targets = list(range(len(compact.labels)))
    if kind == "in":
        return [compact.in_degree_by_index(i) for i in targets]
    if kind == "out":
        return [compact.out_degree_by_index(i) for i in targets]
    if kind == "total":
        out_indptr, out_indices = compact.out_indptr, compact.out_indices
        in_indptr, in_indices = compact.in_indptr, compact.in_indices
        return [
            len(
                {*out_indices[out_indptr[i] : out_indptr[i + 1]]}
                | {*in_indices[in_indptr[i] : in_indptr[i + 1]]}
            )
            for i in targets
        ]
    raise ValueError(f"unknown degree kind: {kind!r}")


def degree_distribution(
    graph: DiGraph | CompactDigraph,
    kind: DegreeKind = "total",
    nodes: Sequence[Node] | None = None,
) -> DegreeDistribution:
    """Empirical degree distribution of ``graph`` restricted to ``nodes``."""
    return DegreeDistribution.from_degrees(degrees_of(graph, kind, nodes))


@dataclass(frozen=True)
class PowerLawFit:
    """OLS fit of log10(fraction) ~ alpha * log10(degree) + c."""

    exponent: float  # slope (negative for decaying distributions)
    intercept: float
    r_squared: float
    num_points: int

    @property
    def is_plausible_powerlaw(self) -> bool:
        """Crude diagnostic: monotone-decay fit explains >=98% of variance.

        The paper's claim is qualitative ('not power-law'); this mirrors
        the visual argument — a spiked distribution fits a straight line
        on log-log axes poorly.
        """
        return self.r_squared >= 0.98 and self.exponent < 0


def powerlaw_fit(dist: DegreeDistribution, *, min_degree: int = 1) -> PowerLawFit:
    """Least-squares line through the log-log pmf (degrees >= min_degree)."""
    points = [
        (math.log10(d), math.log10(f))
        for d, f in dist.pmf()
        if d >= min_degree and f > 0.0
    ]
    n = len(points)
    if n < 2:
        return PowerLawFit(exponent=0.0, intercept=0.0, r_squared=0.0, num_points=n)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    syy = sum((y - mean_y) ** 2 for _, y in points)
    if near_zero(sxx):
        return PowerLawFit(exponent=0.0, intercept=mean_y, r_squared=0.0, num_points=n)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    r_squared = 0.0 if near_zero(syy) else (sxy * sxy) / (sxx * syy)
    return PowerLawFit(
        exponent=slope, intercept=intercept, r_squared=r_squared, num_points=n
    )


def mle_powerlaw_alpha(
    dist: DegreeDistribution, *, min_degree: int = 1
) -> tuple[float, int]:
    """Maximum-likelihood power-law exponent (Clauset et al.'s estimator).

    Uses the standard discrete approximation
    ``alpha ~= 1 + n / sum(ln(x_i / (x_min - 0.5)))`` over degrees
    >= ``min_degree``.  Returns ``(alpha, n)``; ``(0.0, n)`` when fewer
    than two observations qualify.  Complements :func:`powerlaw_fit`
    (whose least-squares R^2 measures *linearity*, the paper's visual
    argument) with the estimator used for tail exponents.
    """
    xmin = max(1, min_degree)
    log_sum = 0.0
    n = 0
    for degree, count in dist.counts:
        if degree < xmin:
            continue
        log_sum += count * math.log(degree / (xmin - 0.5))
        n += count
    if n < 2 or log_sum <= 0.0:
        return (0.0, n)
    return (1.0 + n / log_sum, n)
