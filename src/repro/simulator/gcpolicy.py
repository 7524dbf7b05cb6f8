"""The garbage-collection policy every campaign runs under.

A warmed 5k-peer system holds millions of container objects, and
CPython's cyclic collector walks them again and again while rounds
allocate and free partner links, reports and events.  Almost all of
that memory is freed by reference counting, yet at the default
thresholds the collector runs 75 to 150 times a round, with a full
collection of the whole heap every few rounds.  :func:`campaign_gc`
therefore raises the collector thresholds and freezes the heap as it
stands at entry (the warmed or restored population), so collections
are rare and each one walks only what the run itself allocated.

The policy changes no output: nothing in the program has a finalizer
or a weak reference, so when a collection happens cannot reach a random
draw or a trace byte.  It has no knob: every campaign, whoever starts
it, runs under the same policy, and so does every
``CheckpointManager.save`` (inside a campaign the nested scope changes
nothing; the final cut after a run returns gets the policy too).

When observability is on, each collection is timed through the
observer's clock seam into a ``gc.pause`` histogram, with the counters
``gc.collections`` and ``gc.collections.gen2`` and the gauge
``gc.pause.max`` (longest pause, seconds).
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

from repro.obs.spans import AnyObserver, Observer

#: Collector thresholds while a campaign runs: a young collection per
#: 100k net container allocations instead of per 700.
CAMPAIGN_THRESHOLDS = (100_000, 50, 100)


class _PauseRecorder:
    """A ``gc.callbacks`` hook timing each collection into obs metrics."""

    def __init__(self, obs: Observer) -> None:
        registry = obs.registry
        self._now = obs.clock.now
        self._start = 0.0
        # Created up front so a run without a single collection still
        # exports the metrics (at zero).
        self._pauses = registry.histogram("gc.pause")
        self._collections = registry.counter("gc.collections")
        self._gen2 = registry.counter("gc.collections.gen2")
        self._longest = registry.gauge("gc.pause.max")

    def __call__(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._start = self._now()
            return
        pause = self._now() - self._start
        self._pauses.observe(pause)
        self._collections.add(1)
        if info["generation"] == 2:
            self._gen2.add(1)
        if pause > self._longest.value:
            self._longest.set(pause)


@contextmanager
def campaign_gc(obs: AnyObserver) -> Iterator[None]:
    """Run the enclosed campaign span under the campaign GC policy.

    On entry: raise the thresholds to :data:`CAMPAIGN_THRESHOLDS`,
    ``gc.freeze()`` the heap (only when nothing is frozen yet, so a
    caller's own frozen set is left alone) and, with an enabled
    observer, install the pause hook.  Every exit path — normal return,
    an early stop, an exception — restores the previous thresholds,
    unfreezes what this scope froze and removes the hook.
    """
    thresholds = gc.get_threshold()
    freeze = gc.get_freeze_count() == 0
    hook = _PauseRecorder(obs) if isinstance(obs, Observer) else None
    if hook is not None:
        gc.callbacks.append(hook)
    gc.set_threshold(*CAMPAIGN_THRESHOLDS)
    if freeze:
        gc.freeze()
    try:
        yield
    finally:
        if freeze:
            gc.unfreeze()
        gc.set_threshold(*thresholds)
        if hook is not None:
            gc.callbacks.remove(hook)
