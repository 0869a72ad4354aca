"""Registry of the 10-DDT library and combination enumeration.

The exploration engine never names concrete classes: it asks the registry
for the library (:func:`all_ddt_names`), resolves names to classes
(:func:`ddt_class`) and enumerates the cartesian product of candidate
implementations over an application's dominant structures
(:func:`combinations`) -- 10^k combinations for k dominant structures,
exactly the search space of the paper's step 1.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

from repro.ddt.array import ArrayDDT, PointerArrayDDT
from repro.ddt.base import DynamicDataType
from repro.ddt.chunked import (
    ChunkedDoublyLinkedDDT,
    ChunkedSinglyLinkedDDT,
    RovingChunkedDoublyLinkedDDT,
    RovingChunkedSinglyLinkedDDT,
)
from repro.ddt.linked import (
    DoublyLinkedDDT,
    RovingDoublyLinkedDDT,
    RovingSinglyLinkedDDT,
    SinglyLinkedDDT,
)

__all__ = [
    "DDT_LIBRARY",
    "ORIGINAL_DDT",
    "all_ddt_names",
    "ddt_class",
    "combinations",
    "combination_label",
    "lane_names",
    "parse_combination_label",
]

#: The 10 implementations of the paper's C++ DDT library, in canonical order.
DDT_LIBRARY: tuple[type[DynamicDataType], ...] = (
    ArrayDDT,
    PointerArrayDDT,
    SinglyLinkedDDT,
    DoublyLinkedDDT,
    RovingSinglyLinkedDDT,
    RovingDoublyLinkedDDT,
    ChunkedSinglyLinkedDDT,
    ChunkedDoublyLinkedDDT,
    RovingChunkedSinglyLinkedDDT,
    RovingChunkedDoublyLinkedDDT,
)

#: The NetBench benchmarks' original implementation (paper Section 4).
ORIGINAL_DDT: type[DynamicDataType] = SinglyLinkedDDT

_BY_NAME: dict[str, type[DynamicDataType]] = {cls.ddt_name: cls for cls in DDT_LIBRARY}

#: Separator used in combination labels ("AR+DLL").
LABEL_SEPARATOR = "+"


def all_ddt_names() -> tuple[str, ...]:
    """Names of the 10 library DDTs in canonical order.

    >>> all_ddt_names()[:3]
    ('AR', 'AR(P)', 'SLL')
    """
    return tuple(cls.ddt_name for cls in DDT_LIBRARY)


def ddt_class(name: str) -> type[DynamicDataType]:
    """Resolve a registry name to its implementation class.

    Raises
    ------
    KeyError
        With the list of known names, if ``name`` is not in the library.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown DDT {name!r}; known DDTs: {known}") from None


def combinations(
    structure_names: Sequence[str],
    candidates: Sequence[str] | None = None,
) -> Iterator[dict[str, str]]:
    """Enumerate DDT assignments for the given dominant structures.

    Yields one mapping ``{structure_name: ddt_name}`` per point of the
    cartesian product -- ``len(candidates) ** len(structure_names)``
    combinations in total.  The arguments are checked when this is
    called, not when the first combination is drawn.

    Parameters
    ----------
    structure_names:
        The application's dominant structure names, e.g.
        ``("radix_node", "rtentry")``; must be unique.
    candidates:
        DDT names to consider per structure; the full library when
        omitted.  Must be unique: a repeated name would repeat every
        combination that uses it.
    """
    if not structure_names:
        raise ValueError("structure_names must not be empty")
    if len(set(structure_names)) != len(structure_names):
        raise ValueError("structure_names must be unique")
    names = tuple(candidates) if candidates is not None else all_ddt_names()
    for name in names:
        ddt_class(name)  # validate early
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"duplicate DDT candidates: {repeated}")
    return (
        dict(zip(structure_names, assignment))
        for assignment in itertools.product(names, repeat=len(structure_names))
    )


def combination_label(combo: Mapping[str, str], structure_names: Sequence[str]) -> str:
    """Stable label of a combination, e.g. ``"AR+DLL"``.

    Structure order is taken from ``structure_names`` so labels are
    comparable across the whole exploration.
    """
    return LABEL_SEPARATOR.join(combo[name] for name in structure_names)


def lane_names(
    assignment: Mapping[str, str | Sequence[str]],
) -> dict[str, tuple[str, ...]]:
    """Per structure, the DDT names to charge side by side (its lanes).

    A plain name is one lane, so a plain assignment maps every
    structure to a one-name tuple.  Lanes must be known, non-empty and
    distinct.

    >>> lane_names({"flow_queue": ("AR", "SLL"), "packet_buf": "DLL"})
    {'flow_queue': ('AR', 'SLL'), 'packet_buf': ('DLL',)}
    """
    lanes = {}
    for structure, ddts in assignment.items():
        names = (ddts,) if isinstance(ddts, str) else tuple(ddts)
        if not names or len(set(names)) != len(names):
            raise ValueError(f"{structure!r} needs distinct DDT lanes, got {names}")
        for name in names:
            ddt_class(name)
        lanes[structure] = names
    return lanes


def parse_combination_label(
    label: str, structure_names: Sequence[str]
) -> dict[str, str]:
    """Inverse of :func:`combination_label`.

    >>> parse_combination_label("AR+DLL", ("radix_node", "rtentry"))
    {'radix_node': 'AR', 'rtentry': 'DLL'}
    """
    parts = label.split(LABEL_SEPARATOR)
    if len(parts) != len(structure_names):
        raise ValueError(
            f"label {label!r} has {len(parts)} parts, expected {len(structure_names)}"
        )
    for part in parts:
        ddt_class(part)
    return dict(zip(structure_names, parts))
