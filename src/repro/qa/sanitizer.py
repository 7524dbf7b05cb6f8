"""Runtime determinism sanitizer.

Static rules catch what the AST shows; this module catches what it
can't.  Two tools:

- :func:`deterministic_guard` — a context manager that patches the
  nondeterminism entry points (module-level ``random.*`` draws,
  ``time.time``/``time.time_ns``, ``os.urandom``) to raise
  :class:`NondeterminismError` on touch.  Injected ``random.Random``
  instances keep working — constructing one is the sanctioned path.
- :class:`DrawAudit` — counts and fingerprints every draw made through
  ``random.Random`` (class-level instrumentation of ``random()`` and
  ``getrandbits()``, the two primitives all other methods funnel
  through).  :func:`assert_identical_draws` replays a callable and
  verifies both runs consumed the *same* sequence, which is a far
  stronger property than equal outputs: it fails the moment a code path
  draws conditionally on anything unseeded.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator
from typing import Any, TypeVar

T = TypeVar("T")


class NondeterminismError(RuntimeError):
    """Raised when guarded code touches an unseeded entropy/clock source."""


#: Module-level random functions the guard forbids (they all share the
#: hidden global Mersenne Twister instance).
GUARDED_RANDOM_FNS: tuple[str, ...] = (
    "random",
    "randint",
    "randrange",
    "randbytes",
    "getrandbits",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "uniform",
    "triangular",
    "gauss",
    "normalvariate",
    "lognormvariate",
    "expovariate",
    "vonmisesvariate",
    "gammavariate",
    "betavariate",
    "paretovariate",
    "weibullvariate",
    "seed",
)


def _raiser(qualname: str) -> Callable[..., Any]:
    def forbidden(*_args: Any, **_kwargs: Any) -> Any:
        raise NondeterminismError(
            f"{qualname} called inside deterministic_guard(); simulation "
            "code must draw from an injected random.Random(seed) and read "
            "time from the simulated clock"
        )

    return forbidden


@contextmanager
def deterministic_guard(
    *,
    wall_clock: bool = True,
    entropy: bool = True,
    allow: Iterable[str] = (),
) -> Iterator[None]:
    """Fail fast on global RNG, wall clock, or OS entropy access.

    ``allow`` lists ``random`` function names to leave untouched (rarely
    needed; prefer fixing the callee).  ``wall_clock=False`` /
    ``entropy=False`` narrow the guard when the code under test
    legitimately timestamps logs or salts filenames.
    """
    allowed = set(allow)
    saved: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, qualname: str) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, _raiser(qualname))

    for name in GUARDED_RANDOM_FNS:
        if name not in allowed and hasattr(random, name):  # repro: noqa[REP001] the guard inspects the global module
            patch(random, name, f"random.{name}")  # repro: noqa[REP001] the guard patches the global module
    if wall_clock:
        patch(time, "time", "time.time")
        patch(time, "time_ns", "time.time_ns")
    if entropy:
        patch(os, "urandom", "os.urandom")
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@dataclass(frozen=True)
class DrawSnapshot:
    """Immutable summary of the draws observed by one :class:`DrawAudit`."""

    float_draws: int
    bit_draws: int
    fingerprint: str

    @property
    def total(self) -> int:
        """All primitive draws (floats + getrandbits calls)."""
        return self.float_draws + self.bit_draws


class DrawAudit:
    """Count and fingerprint every ``random.Random`` draw in a block.

    Instrumentation is class-level: assigning Python functions on
    ``random.Random`` shadows the C-implemented ``random()`` and
    ``getrandbits()`` it inherits, so *every* instance (injected,
    seeded generators included) is observed.  ``SystemRandom``
    overrides both primitives and is deliberately not counted — its
    draws are nondeterministic by definition and belong to
    :func:`deterministic_guard`'s jurisdiction.

    Not reentrant: nesting audits would double-count.
    """

    _active: DrawAudit | None = None

    def __init__(self) -> None:
        self.float_draws = 0
        self.bit_draws = 0
        self._hash = hashlib.sha256()
        self._saved: list[tuple[str, Any]] = []

    def __enter__(self) -> DrawAudit:
        if DrawAudit._active is not None:
            raise RuntimeError("DrawAudit is not reentrant")
        DrawAudit._active = self
        orig_random = random.Random.random
        orig_getrandbits = random.Random.getrandbits
        audit = self

        def counting_random(rng: random.Random) -> float:
            value = orig_random(rng)
            audit.float_draws += 1
            audit._hash.update(value.hex().encode("ascii"))
            return value

        def counting_getrandbits(rng: random.Random, k: int) -> int:
            value = orig_getrandbits(rng, k)
            audit.bit_draws += 1
            audit._hash.update(f"{k}:{value:x};".encode("ascii"))
            return value

        self._saved = [("random", orig_random), ("getrandbits", orig_getrandbits)]
        random.Random.random = counting_random  # type: ignore[method-assign]
        random.Random.getrandbits = counting_getrandbits  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc_info: object) -> None:
        for attr, original in self._saved:
            setattr(random.Random, attr, original)
        self._saved = []
        DrawAudit._active = None

    def snapshot(self) -> DrawSnapshot:
        """The draw counts and sequence fingerprint observed so far."""
        return DrawSnapshot(
            float_draws=self.float_draws,
            bit_draws=self.bit_draws,
            fingerprint=self._hash.hexdigest(),
        )


def audited(fn: Callable[[], T]) -> tuple[T, DrawSnapshot]:
    """Run ``fn`` under a fresh :class:`DrawAudit`; return (result, snapshot)."""
    with DrawAudit() as audit:
        result = fn()
    return result, audit.snapshot()


def assert_identical_draws(
    factory: Callable[[], T], *, runs: int = 2
) -> list[tuple[T, DrawSnapshot]]:
    """Replay ``factory`` ``runs`` times; every run must consume the exact
    same RNG draw sequence (count *and* values).

    Raises :class:`NondeterminismError` describing the first divergence.
    Returns the per-run (result, snapshot) pairs so callers can also
    compare outputs.
    """
    if runs < 2:
        raise ValueError("need at least two runs to compare")
    outcomes = [audited(factory) for _ in range(runs)]
    reference = outcomes[0][1]
    for index, (_, snap) in enumerate(outcomes[1:], start=2):
        if snap != reference:
            raise NondeterminismError(
                f"run {index} diverged from run 1: "
                f"{snap.float_draws}/{snap.bit_draws} draws "
                f"(fingerprint {snap.fingerprint[:12]}) vs "
                f"{reference.float_draws}/{reference.bit_draws} "
                f"(fingerprint {reference.fingerprint[:12]}); some code "
                "path is drawing from an unseeded or shared source"
            )
    return outcomes
