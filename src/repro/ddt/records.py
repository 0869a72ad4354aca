"""Record descriptors for DDT-stored application data.

The DDT cost model is driven by *how many bytes one stored record
occupies* and *how many of those bytes a key comparison touches*; the
Python value actually stored is opaque to the model.  Applications
declare one :class:`RecordSpec` per dominant data structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RecordSpec", "WORD_BYTES", "words_for"]

#: The access granularity of the memory model (32-bit words).
WORD_BYTES = 4


def words_for(size_bytes: int) -> int:
    """Number of 32-bit words needed to hold ``size_bytes`` bytes.

    >>> words_for(4)
    1
    >>> words_for(5)
    2
    >>> words_for(0)
    0
    """
    if size_bytes < 0:
        raise ValueError("size_bytes must be >= 0")
    return (size_bytes + WORD_BYTES - 1) // WORD_BYTES


@dataclass(frozen=True)
class RecordSpec:
    """Size description of one record type stored in a DDT.

    Attributes
    ----------
    name:
        Record type name, e.g. ``"rtentry"``.
    size_bytes:
        Bytes occupied by one record (the C ``sizeof`` of the struct the
        paper's benchmarks store).
    key_bytes:
        Bytes read when comparing a record's key during a scan (e.g. a
        4-byte IPv4 address).
    record_words:
        Words moved when a whole record is read/written/copied (derived
        from ``size_bytes``).
    key_words:
        Words read by one key comparison (derived from ``key_bytes``).

    The word counts are read by every cost hook, so they are computed
    once here rather than on each access.
    """

    name: str
    size_bytes: int
    key_bytes: int = 4
    record_words: int = field(init=False, repr=False, compare=False)
    key_words: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.key_bytes <= 0:
            raise ValueError("key_bytes must be positive")
        if self.key_bytes > self.size_bytes:
            raise ValueError("key_bytes cannot exceed size_bytes")
        object.__setattr__(self, "record_words", words_for(self.size_bytes))
        object.__setattr__(self, "key_words", words_for(self.key_bytes))
