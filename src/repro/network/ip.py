"""IPv4 arithmetic, CIDR blocks and address allocation.

Peers are identified in traces by IPv4 addresses (stored as integers for
compactness); these helpers provide conversion, block membership and a
collision-free per-block allocator.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate


def parse_ip(text: str) -> int:
    """Dotted-quad string -> 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(value: int) -> str:
    """32-bit integer -> dotted-quad string."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class CidrBlock:
    """A CIDR range ``base/prefix`` of IPv4 addresses."""

    base: int
    prefix: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix <= 32:
            raise ValueError(f"prefix out of range: {self.prefix}")
        if self.base & (self.size - 1):
            raise ValueError(
                f"base {format_ip(self.base)} not aligned to /{self.prefix}"
            )

    @classmethod
    def parse(cls, text: str) -> CidrBlock:
        """Parse ``'a.b.c.d/p'`` notation."""
        addr, _, prefix = text.partition("/")
        return cls(parse_ip(addr), int(prefix))

    @property
    def size(self) -> int:
        """Number of addresses in the block."""
        return 1 << (32 - self.prefix)

    @property
    def last(self) -> int:
        """Highest address in the block."""
        return self.base + self.size - 1

    def __contains__(self, address: int) -> bool:
        return self.base <= address <= self.last

    def address(self, index: int) -> int:
        """The ``index``-th address in the block."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside /{self.prefix} block")
        return self.base + index

    def __str__(self) -> str:
        return f"{format_ip(self.base)}/{self.prefix}"


class IpAllocator:
    """Hands out distinct addresses from a set of CIDR blocks.

    Allocation order is a seeded pseudo-random permutation via a stride
    coprime with the pool size, so consecutive peers do not get adjacent
    addresses (which would make intra-ISP structure an artifact of
    allocation order).  Addresses may be released for reuse.
    """

    def __init__(self, blocks: list[CidrBlock], *, seed: int = 0) -> None:
        if not blocks:
            raise ValueError("at least one block required")
        self._blocks = list(blocks)
        # Flat index of each block's first address: a flat index maps to
        # its block by bisection, not by walking the block list.
        self._starts = list(accumulate((b.size for b in self._blocks), initial=0))
        self._total = self._starts.pop()
        rng = random.Random(seed)
        self._stride = self._pick_stride(rng)
        self._cursor = rng.randrange(self._total)
        self._in_use: set[int] = set()
        self._released: list[int] = []

    def _pick_stride(self, rng: random.Random) -> int:
        while True:
            stride = rng.randrange(1, self._total)
            if math.gcd(stride, self._total) == 1:
                return stride

    def _flat_to_address(self, flat: int) -> int:
        i = bisect_right(self._starts, flat) - 1
        return self._blocks[i].address(flat - self._starts[i])

    @property
    def capacity(self) -> int:
        """Total addresses across all blocks."""
        return self._total

    @property
    def in_use(self) -> int:
        """Currently allocated address count."""
        return len(self._in_use)

    def allocate(self) -> int:
        """Return a currently unused address; raises when exhausted."""
        if self._released:
            address = self._released.pop()
            self._in_use.add(address)
            return address
        if len(self._in_use) >= self._total:
            raise RuntimeError("address pool exhausted")
        while True:
            address = self._flat_to_address(self._cursor)
            self._cursor = (self._cursor + self._stride) % self._total
            if address not in self._in_use:
                self._in_use.add(address)
                return address

    def release(self, address: int) -> None:
        """Return ``address`` to the pool; raises if it was not allocated."""
        if address not in self._in_use:
            raise KeyError(f"address not allocated: {format_ip(address)}")
        self._in_use.remove(address)
        self._released.append(address)
