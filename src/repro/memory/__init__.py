"""Memory and energy substrate for DDT cost accounting.

The paper measures four metrics per simulation -- memory accesses, memory
footprint, energy and execution time.  This subpackage provides the models
those metrics are computed from:

* :mod:`repro.memory.cacti` -- analytic SRAM energy/latency model in the
  spirit of the CACTI tool the paper relies on.
* :mod:`repro.memory.allocator` -- a simulated heap with per-block headers,
  alignment and size-class free lists, used to derive memory footprint.
* :mod:`repro.memory.pools` -- per-data-structure memory pools whose
  per-access energy/latency depends on the pool's live footprint.
* :mod:`repro.memory.profiler` -- the aggregation point turning access
  events into the paper's four metrics.
* :mod:`repro.memory.timing` -- cycle bookkeeping and CPU operation costs.
"""

from repro.memory.allocator import AllocationError, Allocator, AllocatorStats
from repro.memory.cacti import CactiModel, MemoryCharacteristics, TechnologyParameters
from repro.memory.pools import MemoryPool
from repro.memory.profiler import MemoryProfiler, PoolPart, ProfileParts
from repro.memory.timing import CpuModel, OperationCosts

__all__ = [
    "AllocationError",
    "Allocator",
    "AllocatorStats",
    "CactiModel",
    "CpuModel",
    "MemoryCharacteristics",
    "MemoryPool",
    "MemoryProfiler",
    "OperationCosts",
    "PoolPart",
    "ProfileParts",
    "TechnologyParameters",
]
