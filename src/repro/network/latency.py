"""Round-trip delay and per-connection TCP throughput model.

The paper attributes ISP-level clustering to one mechanism: connections
between peers in the same ISP have generally higher throughput and
smaller delay than those across ISPs, so they are preferentially kept
as active connections (Sec. 4.2.3).  This model supplies exactly that
asymmetry: an RTT drawn per link from an ISP-relationship tier plus
lognormal jitter, and a TCP throughput ceiling that decays with RTT
(the classic ~1/RTT throughput law for a fixed window and loss rate).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import cos, exp, log, pi, sin, sqrt
from typing import NamedTuple

#: ``random.gauss``'s own constant, written the way it defines it.
_TWOPI = 2.0 * pi
_new_tuple = tuple.__new__


class LinkQuality(NamedTuple):
    """Measured quality of one TCP connection between two peers.

    A named tuple rather than a frozen dataclass: ``connect`` draws one
    per partnership and unpacks it straight away, so construction and
    unpacking sit on the per-link hot path.
    """

    rtt_ms: float
    throughput_kbps: float  # per-connection ceiling

    def score(self) -> float:
        """Peer-selection utility: higher is better (UUSee measures both)."""
        return self.throughput_kbps / (1.0 + self.rtt_ms / 100.0)


@dataclass(frozen=True)
class LatencyTiers:
    """Median RTTs (ms) per ISP relationship tier."""

    intra_isp: float = 25.0
    inter_china: float = 95.0
    china_overseas: float = 260.0
    intra_overseas: float = 160.0


class LatencyModel:
    """Draws per-link RTT and throughput from the tier model.

    ``rtt_sigma`` is the lognormal jitter scale (in log-space); the
    throughput ceiling is ``window_kbits / rtt`` with multiplicative
    noise, floored to ``min_throughput_kbps``.
    """

    def __init__(
        self,
        *,
        tiers: LatencyTiers | None = None,
        rtt_sigma: float = 0.35,
        window_kbits: float = 16_000.0,
        min_throughput_kbps: float = 8.0,
        seed: int = 0,
    ) -> None:
        self.tiers = tiers or LatencyTiers()
        self.rtt_sigma = rtt_sigma
        self.window_kbits = window_kbits
        self.min_throughput_kbps = min_throughput_kbps
        self._rng = random.Random(seed)
        # Median RTT by [same ISP][a in China][b in China]: the tier
        # rules read once, so a link's median is three subscripts.
        t = self.tiers
        self._median_rtt = (
            (
                (t.intra_overseas, t.china_overseas),
                (t.china_overseas, t.inter_china),
            ),
            (
                (t.intra_overseas, t.intra_overseas),
                (t.intra_isp, t.intra_isp),
            ),
        )

    def base_rtt(self, isp_a: str, isp_b: str, *, a_china: bool, b_china: bool) -> float:
        """Median RTT for the ISP relationship between two endpoints.

        Within one ISP the tier follows ``a``'s region; across ISPs it is
        inter-China, China–overseas or overseas–overseas.
        """
        return self._median_rtt[isp_a == isp_b][a_china][b_china]

    def sample_link(
        self, isp_a: str, isp_b: str, a_china: bool = True, b_china: bool = True
    ) -> LinkQuality:
        """Draw one link's RTT and throughput ceiling.

        The China flags are bools and may be passed positionally, as
        ``connect`` does once per partnership.  The two unit normals are
        one Box–Muller pair, drawn here with exactly the expressions
        ``random.gauss`` uses (the cosine leg first, then the sine leg it
        would have cached), so the draws and the generator's
        ``getstate()`` match two ``gauss`` calls bit for bit.  A pair
        left half-used by an outside ``gauss`` call is consumed through
        ``gauss`` itself.
        """
        median = self._median_rtt[isp_a == isp_b][a_china][b_china]
        rng = self._rng
        if rng.gauss_next is None:
            uniform = rng.random
            x2pi = uniform() * _TWOPI
            g2rad = sqrt(-2.0 * log(1.0 - uniform()))
            rtt = median * exp(0.0 + cos(x2pi) * g2rad * self.rtt_sigma)
            jitter = exp(0.0 + sin(x2pi) * g2rad * 0.25)
        else:
            rtt = median * exp(rng.gauss(0.0, self.rtt_sigma))
            jitter = exp(rng.gauss(0.0, 0.25))
        throughput = self.window_kbits / rtt * jitter
        floor = self.min_throughput_kbps
        # tuple.__new__ skips the named tuple's Python-level constructor.
        return _new_tuple(
            LinkQuality, (rtt, throughput if throughput > floor else floor)
        )
