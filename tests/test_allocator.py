"""Tests for the simulated heap allocator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.allocator import AllocationError, Allocator, Block


class TestBasicAllocation:
    def test_allocate_charges_header_and_alignment(self):
        heap = Allocator(header_bytes=8, alignment=8)
        block = heap.allocate(13)
        assert block.payload_bytes == 13
        assert block.stored_bytes == 16  # aligned up
        assert heap.live_bytes == 8 + 16

    def test_zero_byte_allocation(self):
        heap = Allocator()
        block = heap.allocate(0)
        assert block.stored_bytes == 0
        assert heap.live_bytes == heap.header_bytes

    def test_negative_size_rejected(self):
        heap = Allocator()
        with pytest.raises(ValueError):
            heap.allocate(-1)

    def test_free_returns_bytes(self):
        heap = Allocator()
        block = heap.allocate(100)
        heap.free(block)
        assert heap.live_bytes == 0
        assert heap.live_blocks == 0

    def test_double_free_raises(self):
        heap = Allocator()
        block = heap.allocate(32)
        heap.free(block)
        with pytest.raises(AllocationError):
            heap.free(block)

    def test_foreign_block_free_raises(self):
        heap_a = Allocator()
        heap_b = Allocator()
        block = heap_a.allocate(32)
        with pytest.raises(AllocationError):
            heap_b.free(block)

    def test_refused_free_leaves_the_block_live(self):
        """A handle naming a live address with the wrong size class is
        refused, and the real block stays live and freeable."""
        heap = Allocator()
        block = heap.allocate(32)
        with pytest.raises(AllocationError):
            heap.free(Block(block.address, 64, 64))
        assert heap.live_blocks == 1
        heap.free(block)
        assert heap.live_bytes == 0


class TestFreeListReuse:
    def test_same_size_class_reuses_address(self):
        heap = Allocator()
        block = heap.allocate(64)
        address = block.address
        heap.free(block)
        again = heap.allocate(64)
        assert again.address == address
        assert heap.stats.reused_blocks == 1

    def test_different_size_class_not_reused(self):
        heap = Allocator()
        block = heap.allocate(64)
        heap.free(block)
        other = heap.allocate(128)
        assert other.address != block.address
        assert heap.stats.reused_blocks == 0

    def test_aligned_sizes_share_class(self):
        heap = Allocator(alignment=8)
        block = heap.allocate(61)  # stored as 64
        heap.free(block)
        again = heap.allocate(64)
        assert again.address == block.address

    def test_heap_never_shrinks(self):
        heap = Allocator()
        blocks = [heap.allocate(32) for _ in range(10)]
        top = heap.stats.heap_top
        for block in blocks:
            heap.free(block)
        assert heap.stats.heap_top == top


class TestPeakTracking:
    def test_peak_is_high_water_mark(self):
        heap = Allocator(header_bytes=0, alignment=8)
        a = heap.allocate(64)
        b = heap.allocate(64)
        heap.free(a)
        heap.free(b)
        assert heap.peak_bytes == 128
        assert heap.live_bytes == 0

    def test_peak_not_raised_by_reuse(self):
        heap = Allocator(header_bytes=0, alignment=8)
        a = heap.allocate(64)
        heap.free(a)
        heap.allocate(64)
        assert heap.peak_bytes == 64


class TestRealloc:
    def test_same_class_keeps_address(self):
        heap = Allocator(alignment=8)
        block = heap.allocate(60)
        resized = heap.reallocate(block, 64)
        assert resized.address == block.address
        assert heap.live_blocks == 1

    def test_growth_moves_block(self):
        heap = Allocator()
        block = heap.allocate(64)
        resized = heap.reallocate(block, 256)
        assert resized.stored_bytes == 256
        assert heap.live_blocks == 1
        assert heap.live_bytes == heap.header_bytes + 256

    def test_realloc_dead_block_raises(self):
        heap = Allocator()
        block = heap.allocate(64)
        heap.free(block)
        with pytest.raises(AllocationError):
            heap.reallocate(block, 64)


class TestValidation:
    def test_bad_alignment_rejected(self):
        with pytest.raises(ValueError):
            Allocator(alignment=0)
        with pytest.raises(ValueError):
            Allocator(alignment=12)

    def test_negative_header_rejected(self):
        with pytest.raises(ValueError):
            Allocator(header_bytes=-1)


class TestConservationProperty:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=512)),
            max_size=200,
        )
    )
    def test_alloc_free_conservation(self, ops):
        """Freeing everything always returns live_bytes to zero."""
        heap = Allocator()
        live = []
        for is_alloc, size in ops:
            if is_alloc or not live:
                live.append(heap.allocate(size))
            else:
                heap.free(live.pop(size % len(live)))
        for block in live:
            heap.free(block)
        assert heap.live_bytes == 0
        assert heap.live_blocks == 0
        assert heap.stats.allocations == heap.stats.frees

    @given(st.lists(st.integers(min_value=0, max_value=4096), max_size=100))
    def test_live_bytes_equals_sum_of_gross_sizes(self, sizes):
        heap = Allocator()
        expected = 0
        for size in sizes:
            heap.allocate(size)
            expected += heap.gross_size(size)
        assert heap.live_bytes == expected
        assert heap.peak_bytes == expected
