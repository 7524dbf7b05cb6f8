"""Unit tests for IPv4 helpers and allocation."""

import pytest

from repro.network import CidrBlock, IpAllocator, format_ip, parse_ip


class TestParseFormat:
    def test_roundtrip(self):
        for text in ("0.0.0.0", "10.1.2.3", "255.255.255.255", "202.96.128.68"):
            assert format_ip(parse_ip(text)) == text

    def test_known_value(self):
        assert parse_ip("1.0.0.0") == 1 << 24
        assert parse_ip("0.0.0.1") == 1

    def test_malformed(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", ""):
            with pytest.raises(ValueError):
                parse_ip(bad)

    def test_format_range_check(self):
        with pytest.raises(ValueError):
            format_ip(-1)
        with pytest.raises(ValueError):
            format_ip(1 << 32)


class TestCidrBlock:
    def test_parse_and_size(self):
        block = CidrBlock.parse("10.0.0.0/24")
        assert block.size == 256
        assert block.last == parse_ip("10.0.0.255")

    def test_contains(self):
        block = CidrBlock.parse("192.168.0.0/16")
        assert parse_ip("192.168.4.5") in block
        assert parse_ip("192.169.0.0") not in block

    def test_misaligned_base_rejected(self):
        with pytest.raises(ValueError):
            CidrBlock(parse_ip("10.0.0.1"), 24)

    def test_bad_prefix_rejected(self):
        with pytest.raises(ValueError):
            CidrBlock(0, 33)

    def test_address_indexing(self):
        block = CidrBlock.parse("10.0.0.0/30")
        assert [format_ip(block.address(i)) for i in range(4)] == [
            "10.0.0.0",
            "10.0.0.1",
            "10.0.0.2",
            "10.0.0.3",
        ]
        with pytest.raises(IndexError):
            block.address(4)

    def test_str(self):
        assert str(CidrBlock.parse("58.0.0.0/12")) == "58.0.0.0/12"


class TestIpAllocator:
    def test_unique_allocation(self):
        alloc = IpAllocator([CidrBlock.parse("10.0.0.0/26")], seed=1)
        addrs = {alloc.allocate() for _ in range(64)}
        assert len(addrs) == 64
        assert alloc.in_use == 64

    def test_exhaustion(self):
        alloc = IpAllocator([CidrBlock.parse("10.0.0.0/30")], seed=0)
        for _ in range(4):
            alloc.allocate()
        with pytest.raises(RuntimeError):
            alloc.allocate()

    def test_release_and_reuse(self):
        alloc = IpAllocator([CidrBlock.parse("10.0.0.0/30")], seed=0)
        a = alloc.allocate()
        alloc.allocate()
        alloc.release(a)
        assert alloc.in_use == 1
        # pool no longer exhausted after release
        for _ in range(3):
            alloc.allocate()
        assert alloc.in_use == 4

    def test_release_unallocated_raises(self):
        alloc = IpAllocator([CidrBlock.parse("10.0.0.0/30")], seed=0)
        with pytest.raises(KeyError):
            alloc.release(parse_ip("10.0.0.1"))

    def test_addresses_stay_in_blocks(self):
        blocks = [CidrBlock.parse("10.0.0.0/28"), CidrBlock.parse("20.0.0.0/28")]
        alloc = IpAllocator(blocks, seed=2)
        for _ in range(32):
            addr = alloc.allocate()
            assert any(addr in b for b in blocks)

    def test_deterministic_per_seed(self):
        mk = lambda s: IpAllocator([CidrBlock.parse("10.0.0.0/24")], seed=s)
        a, b = mk(5), mk(5)
        assert [a.allocate() for _ in range(10)] == [b.allocate() for _ in range(10)]

    def test_scattered_not_sequential(self):
        alloc = IpAllocator([CidrBlock.parse("10.0.0.0/16")], seed=3)
        first = [alloc.allocate() for _ in range(5)]
        diffs = [abs(b - a) for a, b in zip(first, first[1:])]
        assert max(diffs) > 1  # not handing out consecutive addresses

    @pytest.mark.parametrize("seed", range(5))
    def test_multi_block_sequence_matches_linear_walk(self, seed):
        # Uneven blocks (16, 4, 32, 1, 8 addresses): allocating the whole
        # pool steps the cursor across every block boundary and wraps it.
        texts = ("10.0.0.0/28", "20.0.0.0/30", "30.0.0.0/27", "40.0.0.1/32", "50.0.0.0/29")
        blocks = [CidrBlock.parse(text) for text in texts]

        def linear_walk(flat):
            for block in blocks:
                if flat < block.size:
                    return block.address(flat)
                flat -= block.size
            raise AssertionError("flat index exceeded pool size")

        alloc = IpAllocator(blocks, seed=seed)
        total = alloc.capacity
        assert total == 61
        cursor, stride = alloc._cursor, alloc._stride
        expected = [linear_walk((cursor + k * stride) % total) for k in range(total)]
        assert [alloc.allocate() for _ in range(total)] == expected
        assert sorted(expected) == sorted(b.base + i for b in blocks for i in range(b.size))
        assert [alloc._flat_to_address(f) for f in range(total)] == [
            linear_walk(f) for f in range(total)
        ]

    def test_empty_blocks_rejected(self):
        with pytest.raises(ValueError):
            IpAllocator([])
