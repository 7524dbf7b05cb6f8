"""REP001 negative: draws from an injected, seeded generator."""

import random


def _jitter(rng: random.Random) -> float:
    return rng.uniform(0.0, 1.0)


def _make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def _draw(rng: random.Random, n: int) -> int:
    return rng.randrange(n)


def _replay(seed: int) -> int:
    return _draw(random.Random(seed), 10) + _draw(rng=_make_rng(seed), n=3)
