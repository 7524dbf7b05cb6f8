"""REP001 positive: draws from the module-level (shared, unseeded) RNG."""

import random


def _jitter() -> float:
    return random.uniform(0.0, 1.0)


def _draw(rng: random.Random, n: int) -> int:
    return rng.randrange(n)


def _replay_unseeded() -> int:
    return _draw(random.Random(), 10)  # a fresh stream seeded from OS entropy


def _replay_global() -> int:
    return _draw(random, 10)  # the hidden shared module stream
