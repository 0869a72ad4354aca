"""CPU operation costs: the price list of the cycle model.

Execution time in the paper is wall-clock time of the instrumented
benchmark on a Pentium4 1.6 GHz.  We reproduce the *relative* behaviour
with a cycle model: every modelled memory access contributes its
capacity-dependent latency (from :mod:`repro.memory.cacti`) and every
data-structure operation / processed packet contributes a fixed CPU
overhead.  The hot path only counts events (per pool, see
:mod:`repro.memory.pools`); :class:`OperationCosts` prices the counts
once, when :meth:`repro.memory.profiler.MemoryProfiler.parts` is taken.
Seconds are cycles divided by the :class:`~repro.memory.cacti.CactiModel`
clock (the paper's 1.6 GHz by default), so reported magnitudes land in
the same range as the paper's (fractions of a second per trace).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OperationCosts"]


@dataclass(frozen=True)
class OperationCosts:
    """CPU-side cycle costs of abstract operations.

    These model the instruction-stream overhead that is *not* a memory
    access of a dominant data structure: loop control, pointer arithmetic,
    comparisons, and the fixed per-packet protocol work of the benchmark
    applications.

    Attributes
    ----------
    ddt_call:
        Fixed overhead of entering one DDT operation (function call,
        argument marshalling).
    step:
        Per-element overhead inside scans/shifts (loop increment + branch).
    compare:
        One key comparison.
    packet_overhead:
        Fixed per-packet work of the application outside its dominant
        data structures (header parsing, checksum, bookkeeping).
    allocator_call:
        CPU overhead of one heap allocate/free call.
    """

    ddt_call: int = 4
    step: int = 2
    compare: int = 1
    packet_overhead: int = 60
    allocator_call: int = 30

    def __post_init__(self) -> None:
        for name in ("ddt_call", "step", "compare", "packet_overhead", "allocator_call"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
