"""Small utilities for the simulator hot path."""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable, Iterator

Item = Hashable


class SampleableSet:
    """A set supporting O(1) add/discard and O(k) random sampling.

    Backed by the classic list + index-map pair: removal swaps the victim
    with the list tail.  Used for tracker volunteer lists, which need
    frequent membership changes *and* uniform random bootstrap samples.
    """

    def __init__(self, items: Iterable[Item] = ()) -> None:
        self._items: list[Item] = []
        self._index: dict[Item, int] = {}
        for item in items:
            self.add(item)

    def add(self, item: Item) -> None:
        if item not in self._index:
            self._index[item] = len(self._items)
            self._items.append(item)

    def discard(self, item: Item) -> None:
        idx = self._index.pop(item, None)
        if idx is None:
            return
        tail = self._items.pop()
        if idx < len(self._items):
            self._items[idx] = tail
            self._index[tail] = idx

    def sample(
        self, rng: random.Random, k: int, *, exclude: Item | None = None
    ) -> list[Item]:
        """Up to ``k`` distinct items, uniformly, optionally excluding one.

        Every index is drawn the way ``rng.randrange(n)`` (rejection
        path) or ``rng.shuffle`` (when ``k >= n``) draws it: ``getrandbits``
        of ``n.bit_length()`` bits, redrawn while out of range.  Written
        inline, so the draws and ``rng.getstate()`` are those of the
        library calls without their two Python frames per index.
        """
        items = self._items
        n = len(items)
        if n == 0 or k <= 0:
            return []
        getrandbits = rng.getrandbits
        if k >= n:
            result = list(items)
            if exclude in self._index:
                result.remove(exclude)
            # rng.shuffle(result)
            for i in reversed(range(1, len(result))):
                bits = (i + 1).bit_length()
                j = getrandbits(bits)
                while j > i:
                    j = getrandbits(bits)
                result[i], result[j] = result[j], result[i]
            return result
        picked: list[Item] = []
        seen: set[int] = set()
        # Rejection sampling; k << n in practice (bootstrap from a large
        # volunteer list), so this stays near k draws.
        attempts = 0
        max_attempts = 20 * k + 50
        bits = n.bit_length()
        while len(picked) < k and attempts < max_attempts:
            attempts += 1
            idx = getrandbits(bits)  # rng.randrange(n)
            while idx >= n:
                idx = getrandbits(bits)
            if idx in seen:
                continue
            seen.add(idx)
            item = items[idx]
            if item == exclude:
                continue
            picked.append(item)
        return picked

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Item) -> bool:
        return item in self._index

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)
