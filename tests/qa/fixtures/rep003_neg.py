"""REP003 negative: candidates are sorted before the draw."""

import random


def _pick(rng: random.Random, table: dict[int, str]) -> str:
    return rng.choice(sorted(table.values()))


def _choose(rng: random.Random, candidates: list[int]) -> int:
    return rng.choice(candidates)


def _replay(rng: random.Random, options: set[int]) -> int:
    return _choose(rng, sorted(options))
