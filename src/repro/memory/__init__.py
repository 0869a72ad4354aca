"""Memory and energy substrate for DDT cost accounting.

The paper measures four metrics per simulation -- memory accesses, memory
footprint, energy and execution time.  This subpackage provides the models
those metrics are computed from:

* :mod:`repro.memory.cacti` -- analytic SRAM energy/latency model in the
  spirit of the CACTI tool the paper relies on.
* :mod:`repro.memory.pools` -- per-data-structure memory pools: each
  is its structure's heap model (live bytes, their peak -- the
  footprint, counting block headers and alignment -- and live blocks)
  and counts its cost events; per-access energy/latency depends on the
  pool's peak footprint.
* :mod:`repro.memory.profiler` -- the aggregation point pricing the
  counted events into the paper's four metrics.
* :mod:`repro.memory.timing` -- the CPU operation cost table.
"""

from repro.memory.cacti import CactiModel, MemoryCharacteristics, TechnologyParameters
from repro.memory.pools import AllocationError, MemoryPool
from repro.memory.profiler import MemoryProfiler, PoolPart, ProfileParts
from repro.memory.timing import OperationCosts

__all__ = [
    "AllocationError",
    "CactiModel",
    "MemoryCharacteristics",
    "MemoryPool",
    "MemoryProfiler",
    "OperationCosts",
    "PoolPart",
    "ProfileParts",
    "TechnologyParameters",
]
