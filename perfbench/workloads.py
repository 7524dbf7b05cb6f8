"""The benchmark's workloads: the inputs each one generates from its seed.

Each workload hands the program only a generated config (campaigns) or
a trace it collected with the program itself (analysis); everything
else is the program's own default, so a change of default is measured.
"""

from __future__ import annotations

#: Simulated warm-up before a campaign's timed window (12 rounds): the
#: membership ramp the repository's 5k throughput benchmarks also skip.
WARM_S = 2 * 3600.0

#: Each workload sets up ``setups`` times, each in a fresh process.  A
#: campaign times its window in every warmed process; the analysis runs
#: in a fresh process on the week of each of the first ``analyses``
#: set-ups (a week takes as long to chart as to collect, so not after
#: every one).  The runs of one seed do identical work, so each piece of
#: the job (a round, a figure) is timed in every run, brought to the
#: reference host speed (``hostspeed.py``) and the median is taken.
WORKLOADS: dict[str, dict[str, object]] = {
    # Per-peer work at the ROADMAP's reference scale: ticks, exchange,
    # report encoding, the largest checkpoints.
    "steady-5k": {
        "kind": "campaign",
        "base": 5000.0,
        "rounds_per_second": 0.6,
        "setups": 3,
    },
    # The figure suite and the per-window series over a stored week
    # that spans the day-5 flash crowd (Fig. 4 needs day 5, 21:00),
    # collected with observability on: small, cheap rounds where fixed
    # per-call costs and instrumentation weigh most.
    "analyze-week": {
        "kind": "analysis",
        "base": 100.0,
        "days": 6.0,
        "setups": 3,
        "analyses": 2,
    },
}


def timed_rounds(spec: dict[str, object], seconds: float) -> int:
    """Rounds in a campaign's timed window for a run of ``seconds``."""
    return max(1, round(seconds * float(spec["rounds_per_second"])))  # type: ignore[arg-type]
