"""Tests for the pools' heap model: live bytes, their peak, live blocks
and the over-free guard."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory import AllocationError
from repro.memory.cacti import CactiModel
from repro.memory.pools import ALIGNMENT, HEADER_BYTES, MemoryPool, block_bytes


def make_pool():
    return MemoryPool("heap", cacti=CactiModel())


def heap_state(pool):
    return (pool.live_bytes, pool.live_blocks, pool.footprint_bytes, pool.allocator_calls)


class TestBasicAllocation:
    def test_allocate_charges_header_and_alignment(self):
        pool = make_pool()
        pool.allocate(13)
        assert pool.live_bytes == 8 + 16  # header + payload aligned up
        assert pool.live_blocks == 1

    def test_zero_byte_allocation(self):
        pool = make_pool()
        pool.allocate(0)
        assert pool.live_bytes == HEADER_BYTES

    def test_negative_size_rejected(self):
        """On all three calls, and a refused call changes nothing."""
        pool = make_pool()
        pool.allocate(64)
        before = heap_state(pool)
        for call in (
            lambda: pool.allocate(-1),
            lambda: pool.free(-1),
            lambda: pool.reallocate(64, -1),
            lambda: pool.reallocate(-1, 64),
        ):
            with pytest.raises(ValueError):
                call()
        assert heap_state(pool) == before

    def test_free_returns_bytes(self):
        pool = make_pool()
        pool.allocate(100)
        pool.free(100)
        assert pool.live_bytes == 0
        assert pool.live_blocks == 0

    def test_double_free_raises(self):
        pool = make_pool()
        pool.allocate(32)
        pool.free(32)
        with pytest.raises(AllocationError):
            pool.free(32)

    def test_foreign_block_free_raises(self):
        """A pool cannot free what only another pool allocated."""
        pool_a = make_pool()
        pool_b = make_pool()
        pool_a.allocate(32)
        with pytest.raises(AllocationError):
            pool_b.free(32)

    def test_refused_free_leaves_the_block_live(self):
        """A free larger than the live bytes, or of more blocks than are
        live, is refused and leaves live bytes, live blocks, the peak and
        the allocator calls as they were; the real block stays freeable."""
        pool = make_pool()
        pool.allocate(32)
        before = heap_state(pool)
        with pytest.raises(AllocationError):
            pool.free(64)
        with pytest.raises(AllocationError):
            pool.free(0, count=2)
        assert heap_state(pool) == before
        pool.free(32)
        assert pool.live_bytes == 0


class TestFreeListReuse:
    """Freed bytes are reused: a later block that fits them leaves the
    peak where it was."""

    def test_aligned_sizes_share_class(self):
        """Payloads that align up to one size cost the same, so a freed
        61-byte block covers a 64-byte one."""
        assert block_bytes(61) == block_bytes(64) == HEADER_BYTES + 64
        pool = make_pool()
        pool.allocate(61)
        pool.free(61)
        pool.allocate(64)
        assert pool.footprint_bytes == pool.live_bytes == HEADER_BYTES + 64

    def test_different_size_class_not_reused(self):
        """A freed block does not cover a larger one: the peak grows to
        the larger block alone."""
        pool = make_pool()
        pool.allocate(64)
        pool.free(64)
        pool.allocate(128)
        assert pool.footprint_bytes == block_bytes(128)


class TestPeakTracking:
    def test_peak_is_high_water_mark(self):
        pool = make_pool()
        pool.allocate(64)
        pool.allocate(64)
        pool.free(64)
        pool.free(64)
        assert pool.footprint_bytes == 2 * (HEADER_BYTES + 64)
        assert pool.live_bytes == 0

    def test_peak_not_raised_by_reuse(self):
        pool = make_pool()
        pool.allocate(64)
        pool.free(64)
        pool.allocate(64)
        assert pool.footprint_bytes == HEADER_BYTES + 64


class TestRealloc:
    def test_same_class_keeps_address(self):
        """A resize within one aligned size moves no live bytes, and is
        still one allocator call."""
        pool = make_pool()
        pool.allocate(60)
        before = pool.live_bytes
        pool.reallocate(60, 64)
        assert pool.live_bytes == before
        assert pool.live_blocks == 1
        assert pool.allocator_calls == 2

    def test_growth_moves_block(self):
        """A growing resize moves live bytes by new minus old charge, in
        one allocator call, and raises the peak after the move."""
        pool = make_pool()
        pool.allocate(64)
        pool.reallocate(64, 256)
        assert pool.live_blocks == 1
        assert pool.live_bytes == HEADER_BYTES + 256
        assert pool.footprint_bytes == HEADER_BYTES + 256
        assert pool.allocator_calls == 2

    def test_realloc_dead_block_raises(self):
        pool = make_pool()
        pool.allocate(64)
        pool.free(64)
        before = heap_state(pool)
        with pytest.raises(AllocationError):
            pool.reallocate(64, 64)
        assert heap_state(pool) == before
        pool.allocate(16)
        before = heap_state(pool)
        with pytest.raises(AllocationError):
            pool.reallocate(64, 128)  # more bytes than are live
        assert heap_state(pool) == before


class TestConservationProperty:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=512)),
            max_size=200,
        )
    )
    def test_alloc_free_conservation(self, ops):
        """Freeing everything always returns live bytes to zero."""
        pool = make_pool()
        live = []
        allocations = 0
        for is_alloc, size in ops:
            if is_alloc or not live:
                pool.allocate(size)
                live.append(size)
                allocations += 1
            else:
                pool.free(live.pop(size % len(live)))
        for size in live:
            pool.free(size)
        assert pool.live_bytes == 0
        assert pool.live_blocks == 0
        assert pool.allocator_calls == 2 * allocations  # one free per allocation

    @given(st.lists(st.integers(min_value=0, max_value=4096), max_size=100))
    def test_live_bytes_equals_sum_of_gross_sizes(self, sizes):
        pool = make_pool()
        expected = 0
        for size in sizes:
            pool.allocate(size)
            expected += HEADER_BYTES + -(-size // ALIGNMENT) * ALIGNMENT
        assert pool.live_bytes == expected
        assert pool.footprint_bytes == expected
