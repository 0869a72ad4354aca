"""Cost-model tests of the 10-DDT library.

These assert the *relative* cost behaviour the methodology exploits:
organisation-specific footprint overheads, walk costs, shift costs,
roving-pointer savings and streaming-vs-dependent access kinds.
"""

import pytest

from repro.ddt import RecordSpec, all_ddt_names, chunk_capacity, ddt_class
from repro.ddt.array import INITIAL_CAPACITY
from repro.memory.profiler import MemoryProfiler

SPEC = RecordSpec("rec", size_bytes=32, key_bytes=4)


def make(name, spec=SPEC):
    profiler = MemoryProfiler()
    pool = profiler.new_pool(name)
    return ddt_class(name)(pool, spec), pool


def fill(ddt, n):
    for i in range(n):
        ddt.append(i)


class TestFootprintOrdering:
    def test_lists_pay_per_node_overhead(self):
        """DLL > SLL > AR in live bytes for the same content.

        Uses a 28-byte record so the singly/doubly pointer difference is
        not swallowed by the 8-byte allocator alignment.
        """
        spec = RecordSpec("rec", size_bytes=28, key_bytes=4)
        ar, ar_pool = make("AR", spec)
        sll, sll_pool = make("SLL", spec)
        dll, dll_pool = make("DLL", spec)
        for ddt in (ar, sll, dll):
            fill(ddt, 64)  # power of two: array slack is zero here
        assert dll_pool.live_bytes > sll_pool.live_bytes
        assert sll_pool.live_bytes > ar_pool.live_bytes

    def test_chunked_amortises_pointer_overhead(self):
        """SLL(AR) footprint sits between AR and SLL."""
        ar, ar_pool = make("AR")
        chunked, ch_pool = make("SLL(AR)")
        sll, sll_pool = make("SLL")
        for ddt in (ar, chunked, sll):
            fill(ddt, 64)
        assert ar_pool.live_bytes <= ch_pool.live_bytes
        assert ch_pool.live_bytes < sll_pool.live_bytes

    def test_pointer_array_charges_per_record_blocks(self):
        arp, arp_pool = make("AR(P)")
        ar, ar_pool = make("AR")
        fill(arp, 64)
        fill(ar, 64)
        assert arp_pool.live_bytes > ar_pool.live_bytes

    def test_array_growth_doubles_capacity(self):
        ar, pool = make("AR")
        fill(ar, INITIAL_CAPACITY)
        before = pool.live_bytes
        ar.append("overflow")
        after = pool.live_bytes
        assert after > before  # grew to a larger block


class TestWalkCosts:
    def test_sll_get_cost_grows_with_position(self):
        sll, pool = make("SLL")
        fill(sll, 100)
        start = pool.accesses
        sll.get(5)
        near = pool.accesses - start
        start = pool.accesses
        sll.get(95)
        far = pool.accesses - start
        assert far > near

    def test_dll_walks_from_nearer_end(self):
        dll, pool = make("DLL")
        fill(dll, 100)
        start = pool.accesses
        dll.get(95)  # 5 hops from the tail
        from_tail = pool.accesses - start
        sll, pool2 = make("SLL")
        fill(sll, 100)
        start = pool2.accesses
        sll.get(95)  # 96 hops from the head
        from_head = pool2.accesses - start
        assert from_tail < from_head

    def test_array_get_position_independent(self):
        ar, pool = make("AR")
        fill(ar, 100)
        start = pool.accesses
        ar.get(0)
        first = pool.accesses - start
        start = pool.accesses
        ar.get(99)
        last = pool.accesses - start
        assert first == last

    def test_roving_pointer_accelerates_sequential_access(self):
        plain, plain_pool = make("SLL")
        roving, rov_pool = make("SLL(O)")
        fill(plain, 100)
        fill(roving, 100)
        start_p, start_r = plain_pool.accesses, rov_pool.accesses
        for pos in range(40, 60):  # forward sequential accesses
            plain.get(pos)
            roving.get(pos)
        assert (rov_pool.accesses - start_r) < (plain_pool.accesses - start_p)

    def test_roving_dll_bidirectional(self):
        rov, pool = make("DLL(O)")
        fill(rov, 100)
        rov.get(50)
        start = pool.accesses
        rov.get(48)  # 2 hops back from the cursor
        cost = pool.accesses - start
        assert cost < 15  # far less than min(49, 52) hops

    def test_chunked_walk_cheaper_than_list_walk(self):
        chunked, ch_pool = make("SLL(AR)")
        sll, sll_pool = make("SLL")
        fill(chunked, 100)
        fill(sll, 100)
        s1 = ch_pool.accesses
        chunked.get(90)
        chunked_cost = ch_pool.accesses - s1
        s2 = sll_pool.accesses
        sll.get(90)
        sll_cost = sll_pool.accesses - s2
        assert chunked_cost < sll_cost


class TestMutationCosts:
    def test_array_front_insert_shifts_everything(self):
        ar, pool = make("AR")
        fill(ar, 64)
        start = pool.accesses
        ar.insert(0, "x")
        cost = pool.accesses - start
        # shift of 64 records of 8 words, read+write
        assert cost >= 64 * 8 * 2

    def test_dll_front_insert_constant(self):
        dll, pool = make("DLL")
        fill(dll, 64)
        start = pool.accesses
        dll.insert(0, "x")
        cost = pool.accesses - start
        assert cost < 30

    def test_pointer_array_shifts_only_pointers(self):
        ar, ar_pool = make("AR")
        arp, arp_pool = make("AR(P)")
        fill(ar, 64)
        fill(arp, 64)
        s1 = ar_pool.accesses
        ar.remove_at(0)
        ar_cost = ar_pool.accesses - s1
        s2 = arp_pool.accesses
        arp.remove_at(0)
        arp_cost = arp_pool.accesses - s2
        assert arp_cost < ar_cost

    def test_sllo_remove_at_cursor_is_cheap(self):
        rov, pool = make("SLL(O)")
        fill(rov, 100)
        rov.find(lambda v: v == 60)  # cursor now at 60
        start = pool.accesses
        rov.remove_at(60)
        cursor_cost = pool.accesses - start

        plain, plain_pool = make("SLL")
        fill(plain, 100)
        plain.find(lambda v: v == 60)
        start = plain_pool.accesses
        plain.remove_at(60)
        plain_cost = plain_pool.accesses - start
        assert cursor_cost < plain_cost

    def test_chunk_split_on_full_chunk_insert(self):
        spec = RecordSpec("rec", size_bytes=64, key_bytes=4)
        cap = chunk_capacity(64)
        chunked, pool = make("SLL(AR)", spec)
        fill(chunked, cap)  # exactly one full chunk
        blocks_before = pool.live_blocks
        chunked.insert(1, "split")  # forces a split
        assert pool.live_blocks == blocks_before + 1
        assert list(chunked)[1] == "split"


class TestAccessKinds:
    def test_array_scan_is_streaming(self):
        ar, pool = make("AR")
        fill(ar, 50)
        dep_before = pool.dep_reads
        stream_before = pool.stream_reads
        ar.find(lambda v: v == 49)
        assert pool.stream_reads > stream_before
        assert pool.dep_reads == dep_before  # scans never chase pointers

    def test_list_scan_is_dependent(self):
        sll, pool = make("SLL")
        fill(sll, 50)
        dep_before = pool.dep_reads
        sll.find(lambda v: v == 49)
        assert pool.dep_reads - dep_before >= 50  # one hop per visit

    def test_direct_access_is_constant_for_all_ddts(self):
        """get_direct costs the same accesses at any position, everywhere."""
        for name in all_ddt_names():
            ddt, pool = make(name)
            fill(ddt, 64)
            start = pool.accesses
            ddt.get_direct(1)
            first = pool.accesses - start
            start = pool.accesses
            ddt.get_direct(60)
            last = pool.accesses - start
            assert first == last == SPEC.record_words, name


class TestTimeEnergySplit:
    def test_streaming_cheaper_in_time_not_energy(self):
        """AR scan beats SLL scan in cycles by more than in energy."""
        ar, ar_pool = make("AR")
        sll, sll_pool = make("SLL")
        fill(ar, 100)
        fill(sll, 100)
        for _ in range(50):
            ar.find(lambda v: v == 99)
            sll.find(lambda v: v == 99)
        assert ar_pool.memory_cycles < sll_pool.memory_cycles
        assert ar_pool.energy_pj < sll_pool.energy_pj
        cycle_ratio = sll_pool.memory_cycles / ar_pool.memory_cycles
        energy_ratio = sll_pool.energy_pj / ar_pool.energy_pj
        assert cycle_ratio > energy_ratio  # time gap wider than energy gap
