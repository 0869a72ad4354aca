"""Analytic SRAM energy/latency model in the spirit of CACTI.

The paper computes energy "using an updated version of the CACTI model"
[Papanikolaou et al., SLIP 2003].  CACTI itself is a large C tool driven by
proprietary technology tables; what the methodology actually needs from it
is a function from *memory capacity* to *energy per access* and *latency
per access*.  This module implements that function analytically, keeping
the structural form of CACTI's first-order model:

* the memory is organised as a square-ish array of ``rows x cols`` cells;
* a read discharges one wordline (cost proportional to the number of
  columns), precharges/discharges bitlines (proportional to the number of
  rows), drives the row decoder (proportional to ``log2(rows)``) and the
  sense amplifiers (proportional to the word width);
* latency is dominated by decoder depth and bitline RC, which grow with
  ``log2`` and square root of capacity respectively.

The absolute coefficients below are calibrated for a 130 nm embedded SRAM
(the technology generation of the paper, 2006) and are deliberately simple;
the methodology only depends on the *monotone growth* of per-access cost
with capacity, which is what makes footprint-lean dynamic data types win
energy.

Example
-------
>>> model = CactiModel()
>>> small = model.characteristics(1024)
>>> large = model.characteristics(1024 * 1024)
>>> small.read_energy_pj < large.read_energy_pj
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "TechnologyParameters",
    "MemoryCharacteristics",
    "CactiModel",
    "pow2_ceil",
    "quantise_capacity",
]


def pow2_ceil(value: int) -> int:
    """Round ``value`` up to the next power of two (minimum 1).

    >>> pow2_ceil(1000)
    1024
    >>> pow2_ceil(1024)
    1024
    >>> pow2_ceil(0)
    1
    """
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


#: Quarter-octave capacity grid multipliers: 2^(0/4) .. 2^(3/4).
_QUARTER_STEPS = (1.0, 1.189207115002721, 1.4142135623730951, 1.681792830507429)


def quantise_capacity(value: int) -> int:
    """Round a footprint up to the quarter-octave capacity grid.

    Memory macros come in discrete capacities; a pure power-of-two grid
    is too coarse for exploration (20% footprint differences between
    DDTs would vanish inside one bucket), so capacities are quantised to
    four geometric steps per octave: 2^k, 2^k*2^(1/4), 2^k*2^(1/2),
    2^k*2^(3/4).

    >>> quantise_capacity(1024)
    1024
    >>> quantise_capacity(1100)
    1217
    """
    if value <= 1:
        return 1
    base = 1 << (value.bit_length() - 1)
    if value == base:
        return base
    for step in _QUARTER_STEPS[1:]:
        candidate = int(base * step)
        if value <= candidate:
            return candidate
    return base * 2


@dataclass(frozen=True)
class TechnologyParameters:
    """Coefficients of the analytic SRAM model.

    All energies are in picojoules, all delays in nanoseconds.  Defaults
    approximate a 130 nm embedded SRAM macro.

    Attributes
    ----------
    word_bits:
        Width of one access in bits.  The DDT cost model issues accesses in
        32-bit words.
    decoder_energy_per_bit_pj:
        Energy of one decoder stage; multiplied by ``log2(rows)``.
    wordline_energy_per_col_pj:
        Energy to drive the selected wordline, per column.
    bitline_energy_per_row_pj:
        Bitline precharge/swing energy, per row on the bitline, per
        accessed column.
    senseamp_energy_per_bit_pj:
        Sense-amplifier energy per output bit (reads only).
    write_driver_energy_per_bit_pj:
        Write-driver energy per written bit (writes only).
    leakage_base_pw_per_byte:
        Leakage proxy; unused by default but exposed for extensions.
    decoder_delay_per_level_ns:
        Delay of one decoder level; multiplied by ``log2(rows)``.
    bitline_delay_coeff_ns:
        Bitline RC delay coefficient; multiplied by ``sqrt(rows)``.
    fixed_delay_ns:
        Constant periphery delay.
    """

    word_bits: int = 32
    decoder_energy_per_bit_pj: float = 0.18
    wordline_energy_per_col_pj: float = 0.011
    bitline_energy_per_row_pj: float = 0.0035
    senseamp_energy_per_bit_pj: float = 0.06
    write_driver_energy_per_bit_pj: float = 0.085
    leakage_base_pw_per_byte: float = 1.2
    decoder_delay_per_level_ns: float = 0.055
    bitline_delay_coeff_ns: float = 0.016
    fixed_delay_ns: float = 0.18

    def __post_init__(self) -> None:
        if self.word_bits <= 0:
            raise ValueError("word_bits must be positive")
        if self.word_bits % 8:
            raise ValueError("word_bits must be a multiple of 8")


@dataclass(frozen=True)
class MemoryCharacteristics:
    """Per-access figures of one memory capacity point.

    Produced by :meth:`CactiModel.characteristics` and cached by capacity;
    consumed by :class:`repro.memory.pools.MemoryPool` on every modelled
    access.
    """

    capacity_bytes: int
    rows: int
    cols: int
    read_energy_pj: float
    write_energy_pj: float
    access_time_ns: float
    cycles_per_access: int = field(default=1)


class CactiModel:
    """Capacity -> (energy per access, latency per access) model.

    Parameters
    ----------
    technology:
        Coefficient set; defaults to a 130 nm SRAM.
    min_capacity_bytes:
        Smallest memory that can be instantiated; footprints below this are
        charged at this capacity (a real platform cannot allocate a 3-byte
        SRAM).
    clock_hz:
        The simulated clock; the paper's testbed runs at 1.6 GHz.  It
        converts access time to an integer cycle count, and a run's
        cycles to seconds (:class:`~repro.memory.profiler.MemoryProfiler`
        prices at this one clock).

    The model is deterministic and memoised: querying the same capacity
    twice returns the identical :class:`MemoryCharacteristics` object.
    """

    DEFAULT_CLOCK_HZ = 1.6e9

    def __init__(
        self,
        technology: TechnologyParameters | None = None,
        min_capacity_bytes: int = 512,
        clock_hz: float = DEFAULT_CLOCK_HZ,
    ) -> None:
        if min_capacity_bytes <= 0:
            raise ValueError("min_capacity_bytes must be positive")
        if clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        self.technology = technology if technology is not None else TechnologyParameters()
        self.min_capacity_bytes = pow2_ceil(min_capacity_bytes)
        self.clock_hz = clock_hz
        self._cache: dict[int, MemoryCharacteristics] = {}

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def organisation(self, capacity_bytes: int) -> tuple[int, int]:
        """Split ``capacity_bytes`` into a square-ish ``(rows, cols)`` array.

        Rows are a power of two (decoder friendly); columns are whatever is
        left.  Columns are counted in bits.
        """
        capacity = max(int(capacity_bytes), self.min_capacity_bytes)
        bits = capacity * 8
        rows = pow2_ceil(int(math.sqrt(bits)))
        cols = max(self.technology.word_bits, (bits + rows - 1) // rows)
        return rows, cols

    # ------------------------------------------------------------------
    # per-access figures
    # ------------------------------------------------------------------
    def characteristics(self, capacity_bytes: int) -> MemoryCharacteristics:
        """Return the per-access figures for a memory of given capacity.

        Capacity is rounded up to the quarter-octave grid and clamped to
        ``min_capacity_bytes``.
        """
        capacity = max(quantise_capacity(int(capacity_bytes)), self.min_capacity_bytes)
        cached = self._cache.get(capacity)
        if cached is not None:
            return cached

        tech = self.technology
        rows, cols = self.organisation(capacity)
        decoder_levels = max(1, int(math.log2(rows)))

        decoder = tech.decoder_energy_per_bit_pj * decoder_levels
        wordline = tech.wordline_energy_per_col_pj * cols
        bitline = tech.bitline_energy_per_row_pj * rows * tech.word_bits
        sense = tech.senseamp_energy_per_bit_pj * tech.word_bits
        write_drive = tech.write_driver_energy_per_bit_pj * tech.word_bits

        read_energy = decoder + wordline + bitline + sense
        write_energy = decoder + wordline + bitline + write_drive

        access_time = (
            tech.fixed_delay_ns
            + tech.decoder_delay_per_level_ns * decoder_levels
            + tech.bitline_delay_coeff_ns * math.sqrt(rows)
        )
        cycles = max(1, math.ceil(access_time * 1e-9 * self.clock_hz))

        result = MemoryCharacteristics(
            capacity_bytes=capacity,
            rows=rows,
            cols=cols,
            read_energy_pj=read_energy,
            write_energy_pj=write_energy,
            access_time_ns=access_time,
            cycles_per_access=cycles,
        )
        self._cache[capacity] = result
        return result

    def read_energy_pj(self, capacity_bytes: int) -> float:
        """Energy of one word read from a memory of the given capacity."""
        return self.characteristics(capacity_bytes).read_energy_pj

    def write_energy_pj(self, capacity_bytes: int) -> float:
        """Energy of one word write to a memory of the given capacity."""
        return self.characteristics(capacity_bytes).write_energy_pj

    def access_cycles(self, capacity_bytes: int) -> int:
        """Latency in clock cycles of one access at the given capacity."""
        return self.characteristics(capacity_bytes).cycles_per_access


class FlatEnergyModel(CactiModel):
    """Degenerate model charging the same energy regardless of capacity.

    Used by the energy-model ablation benchmark: with a capacity- and
    direction-blind model, energy is exactly proportional to the access
    count, so the footprint advantage of arrays no longer translates
    into an energy advantage and the paper's energy rankings collapse.
    """

    def __init__(
        self,
        read_energy_pj: float = 5.0,
        write_energy_pj: float = 5.0,
        cycles_per_access: int = 2,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self._flat_read = read_energy_pj
        self._flat_write = write_energy_pj
        self._flat_cycles = cycles_per_access

    def characteristics(self, capacity_bytes: int) -> MemoryCharacteristics:
        capacity = max(quantise_capacity(int(capacity_bytes)), self.min_capacity_bytes)
        cached = self._cache.get(capacity)
        if cached is not None:
            return cached
        rows, cols = self.organisation(capacity)
        result = MemoryCharacteristics(
            capacity_bytes=capacity,
            rows=rows,
            cols=cols,
            read_energy_pj=self._flat_read,
            write_energy_pj=self._flat_write,
            access_time_ns=self._flat_cycles / self.clock_hz * 1e9,
            cycles_per_access=self._flat_cycles,
        )
        self._cache[capacity] = result
        return result


__all__.append("FlatEnergyModel")
