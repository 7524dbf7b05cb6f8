"""The host's speed while a job runs, from a fixed probe timed between
pieces of the job.

On a shared host the same code runs up to 1.5x slower for minutes at a
time, with no CPU time stolen: the cores themselves run slower.  Best-of
repeats inside one run cannot remove that, because a whole run can fall
in a slow spell.  A fixed pure-Python probe run between the pieces of a
job slows with them (over a job's few seconds their times correlated at
0.94-0.98 on the box this benchmark was built on), so dividing a job's
time by the probe's slowdown reports the job at the reference speed.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time

#: Typical mean probe time in a benchmark process on the 2-core box this
#: benchmark was built on: the reference speed times are reported at.
PROBE_REF_S = 0.0072
#: Least wall time between two probes.
PROBE_EVERY_S = 0.25


class _Item:
    __slots__ = ("key", "bucket", "seen")

    def __init__(self, key: float, bucket: int) -> None:
        self.key = key
        self.bucket = bucket
        self.seen: list[float] = []


def probe_work() -> None:
    """Fixed work of the kind the program does: objects, dicts, a sort, JSON."""
    rng = random.Random(5)
    items = [_Item(rng.random(), rng.randrange(1000)) for _ in range(3000)]
    buckets: dict[int, list[_Item]] = {}
    for item in items:
        buckets.setdefault(item.bucket, []).append(item)
        item.seen.append(item.key * 2.0)
    items.sort(key=lambda item: item.key)
    json.loads(json.dumps([[item.key, item.bucket] for item in items[:1500]]))


class HostSpeed:
    """Probe samples of one phase; ``factor`` > 1 when the host ran slow.

    Disabled, it never probes and its factor is 1 (the traced run, whose
    spans must not include probe time).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.samples: list[float] = []
        #: Wall time spent in probes, to be taken out of the phase's time.
        self.spent = 0.0
        self._last = float("-inf")

    def probe(self) -> None:
        """Time one probe, unless one ran less than ``PROBE_EVERY_S`` ago."""
        begin = time.perf_counter()
        if not self.enabled or begin - self._last < PROBE_EVERY_S:
            return
        collecting = gc.isenabled()
        gc.disable()  # the program's heap and GC settings must not time the probe
        try:
            start = time.perf_counter()
            probe_work()
            self.samples.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self._last = time.perf_counter()
        self.spent += self._last - begin

    def factor(self) -> float:
        """Mean probe time over the reference.  (The mean tracks a job's
        time more closely than the median: a job is slowed by its stalls
        as much as the probes are.)"""
        return statistics.fmean(self.samples) / PROBE_REF_S if self.samples else 1.0
