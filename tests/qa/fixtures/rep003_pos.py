"""REP003 positive: RNG choice fed by a dict view's iteration order."""

import random


def _pick(rng: random.Random, table: dict[int, str]) -> str:
    return rng.choice(list(table.values()))


def _choose(rng: random.Random, candidates: list[int]) -> int:
    return rng.choice(candidates)


def _replay_unordered(rng: random.Random) -> int:
    return _choose(rng, {3, 1, 2})  # set order crosses the call boundary
