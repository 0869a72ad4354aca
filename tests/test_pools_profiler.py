"""Tests for memory pools, the profiler and the timing model."""

import pytest

from repro.core.casestudies import CASE_STUDIES
from repro.core.metrics import MetricVector
from repro.core.simulate import SimulationEnvironment, run_simulation
from repro.memory.cacti import CactiModel
from repro.memory.pools import STREAM_CYCLE_FRACTION, MemoryPool, block_bytes
from repro.memory.profiler import MemoryProfiler
from repro.memory.timing import OperationCosts
from repro.net.config import NetworkConfig


def make_pool(name="test"):
    return MemoryPool(name, cacti=CactiModel())


class TestAccessCounting:
    def test_reads_and_writes_accumulate(self):
        pool = make_pool()
        pool.dep_reads += 3
        pool.dep_writes += 2
        pool.stream_reads += 10
        pool.stream_writes += 5
        assert pool.reads == 13
        assert pool.writes == 7
        assert pool.accesses == 20

    def test_dependent_vs_stream_separated(self):
        """Both kinds count as reads; only dependent ones pay full latency."""
        pool = make_pool()
        pool.dep_reads += 5
        pool.stream_reads += 5
        cycles = pool.cacti.access_cycles(pool.footprint_bytes)
        assert pool.reads == 10
        assert pool.memory_cycles == 5 * cycles + round(5 * cycles * STREAM_CYCLE_FRACTION)

    def test_cpu_cycles_price_the_counted_events(self):
        pool = make_pool()
        pool.ddt_calls += 3
        pool.steps += 5
        pool.compares += 7
        pool.allocator_calls += 11
        costs = OperationCosts(ddt_call=1, step=10, compare=100, allocator_call=1000)
        assert pool.cpu_cycles(costs) == 11753
        assert pool.accesses == 0


class TestEnergyAndCycles:
    def test_energy_scales_with_footprint(self):
        """Same accesses, bigger peak footprint => more energy."""
        small = make_pool()
        big = make_pool()
        small.allocate(256)
        big.allocate(64 * 1024)
        small.dep_reads += 1000
        big.dep_reads += 1000
        assert big.energy_pj > small.energy_pj

    def test_streaming_same_energy_fewer_cycles(self):
        dep = make_pool()
        stream = make_pool()
        dep.allocate(1024)
        stream.allocate(1024)
        dep.dep_reads += 1000
        stream.stream_reads += 1000
        assert dep.energy_pj == pytest.approx(stream.energy_pj)
        assert stream.memory_cycles < dep.memory_cycles

    def test_energy_uses_peak_not_live(self):
        """Energy is provisioned for the peak footprint."""
        pool = make_pool()
        pool.allocate(64 * 1024)
        pool.free(64 * 1024)
        assert pool.live_bytes == 0
        baseline = pool.energy_pj
        pool.dep_reads += 1000
        grown = pool.energy_pj
        # per-access energy reflects the 64 KiB peak, not the empty heap
        small = make_pool()
        small.allocate(64)
        small.dep_reads += 1000
        assert (grown - baseline) > small.energy_pj

    def test_write_energy_exceeds_read_energy(self):
        a = make_pool()
        b = make_pool()
        a.dep_reads += 100
        b.dep_writes += 100
        assert b.energy_pj > a.energy_pj


class TestAllocationCharging:
    def test_allocate_counts_bookkeeping_accesses(self):
        pool = make_pool()
        pool.allocate(64)
        assert pool.accesses == 3  # 1 read + 2 writes of metadata
        assert pool.allocator_calls == 1
        costs = OperationCosts()
        assert pool.cpu_cycles(costs) == costs.allocator_call

    def test_free_counts_bookkeeping(self):
        pool = make_pool()
        pool.allocate(64)
        pool.free(64)
        assert pool.accesses == 6
        assert pool.allocator_calls == 2
        costs = OperationCosts()
        assert pool.cpu_cycles(costs) == 2 * costs.allocator_call

    def test_footprint_tracks_peak(self):
        pool = make_pool()
        for _ in range(5):
            pool.allocate(100)
        pool.free(100, count=5)
        assert pool.live_bytes == 0
        assert pool.footprint_bytes == 5 * block_bytes(100)
        assert pool.allocator_calls == 10  # one call per block


class TestCpuModel:
    def test_cycles_accumulate_and_convert(self):
        """Base, pool CPU and memory cycles add up, at the CACTI clock."""
        profiler = MemoryProfiler(cacti=CactiModel(clock_hz=1e9))
        profiler.charge_cpu(500)
        pool = profiler.new_pool("x")
        pool.steps += 100
        pool.dep_reads += 50
        parts = profiler.parts()
        (part,) = parts.pools
        assert part.cpu_cycles == 100 * profiler.costs.step
        total = 500 + part.cpu_cycles + part.memory_cycles
        assert profiler.metrics().time_s == pytest.approx(total / 1e9)

    def test_negative_cycles_rejected(self):
        profiler = MemoryProfiler()
        with pytest.raises(ValueError):
            profiler.charge_cpu(-1)
        with pytest.raises(ValueError):
            profiler.charge_packets(-1)
        assert profiler.base_cycles == 0

    def test_invalid_costs(self):
        with pytest.raises(ValueError):
            OperationCosts(step=-1)


class TestMemoryProfiler:
    def test_new_pool_is_idempotent(self):
        profiler = MemoryProfiler()
        a = profiler.new_pool("x")
        b = profiler.new_pool("x")
        assert a is b
        assert len(profiler.pools) == 1

    def test_pool_lookup(self):
        profiler = MemoryProfiler()
        pool = profiler.new_pool("rtentry")
        assert profiler.pool("rtentry") is pool
        with pytest.raises(KeyError):
            profiler.pool("missing")

    def test_metrics_aggregate_pools(self):
        profiler = MemoryProfiler()
        a = profiler.new_pool("a")
        b = profiler.new_pool("b")
        a.allocate(100)
        b.allocate(200)
        a.dep_reads += 10
        b.dep_writes += 20
        m = profiler.metrics()
        assert isinstance(m, MetricVector)
        assert m.accesses == a.accesses + b.accesses
        assert m.footprint_bytes == a.footprint_bytes + b.footprint_bytes
        assert m.energy_mj > 0
        assert m.time_s > 0

    def test_packet_overhead_charged(self):
        profiler = MemoryProfiler()
        profiler.charge_packets(1)
        assert profiler.base_cycles == profiler.costs.packet_overhead

    def test_metrics_snapshot_consistent(self):
        """Taking metrics twice without activity yields equal vectors."""
        profiler = MemoryProfiler()
        pool = profiler.new_pool("x")
        pool.allocate(128)
        pool.dep_reads += 7
        assert profiler.metrics() == profiler.metrics()

    def test_custom_models_accepted(self):
        cacti = CactiModel(min_capacity_bytes=2048, clock_hz=2e9)
        costs = OperationCosts(packet_overhead=61)
        profiler = MemoryProfiler(cacti=cacti, costs=costs)
        assert profiler.cacti is cacti
        assert profiler.costs is costs
        assert profiler.parts().clock_hz == 2e9

    def test_time_is_priced_at_the_cacti_clock(self):
        """One clock: the one that turns access times into memory cycles
        also turns the run's cycles into seconds."""
        study = next(s for s in CASE_STUDIES if s.name == "URL")
        structures = study.app_cls.dominant_structures
        config = NetworkConfig("Whittemore", study.configs[0].app_params)
        env = SimulationEnvironment(cacti=CactiModel(clock_hz=3.2e9))
        record = run_simulation(study.app_cls, config, dict.fromkeys(structures, "AR"), env)
        parts = record.parts
        cycles = parts.base_cycles + sum(
            part.cpu_cycles + part.memory_cycles for part in parts.pools
        )
        assert record.metrics.time_s == cycles / env.cacti.clock_hz
