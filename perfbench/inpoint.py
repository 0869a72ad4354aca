"""In-point self-time split by package, from a deterministic profiler.

A seeded sample of a workload's points is simulated with plain
``run_simulation`` under :mod:`cProfile`, separately from the span
tracing.  Each profiled function's own (self) time is charged to the
package its file lives in: ``repro.apps``, ``repro.ddt``,
``repro.memory``, ``repro.net``, or ``core`` for everything else of the
program.  Built-in functions (``list.append``, ``dict.get``, ...) have
no file of their own, so their self time is charged to the package of
the callers, split in proportion to what each caller spent in them.

cProfile charges a fixed cost to every Python call, which inflates
call-heavy code relative to code that spends its time in built-ins, so
the fractions are for comparing the same kernel before and after a
change, not absolute truths.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import random
from collections import defaultdict
from typing import Any, Sequence

PACKAGES = ("apps", "ddt", "memory", "net")


def package_of(filename: str) -> str | None:
    """``apps``/``ddt``/``memory``/``net``/``core`` for the program's
    files, ``None`` for built-ins and files outside the program."""
    if filename.startswith("~") or filename.startswith("<"):
        return None
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    package = parts[index + 1] if index + 1 < len(parts) else ""
    return package if package in PACKAGES else "core"


def split_self_time(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per package from a :class:`pstats.Stats` table.

    Functions outside the program with a file (the standard library)
    and built-ins are charged to their callers' packages; what has no
    program caller at all is dropped (the profiler's own frames).
    """
    raw = stats.stats  # type: ignore[attr-defined]
    owner: dict[Any, str | None] = {
        func: package_of(func[0]) for func in raw
    }
    totals: dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in raw.items():
        package = owner[func]
        if package is not None:
            totals[package] += tt
            continue
        attributed = {
            caller: entry[2] for caller, entry in callers.items() if owner.get(caller)
        }
        share = sum(attributed.values())
        if share <= 0:
            continue
        for caller, caller_tt in attributed.items():
            totals[owner[caller]] += tt * caller_tt / share  # type: ignore[index]
    return dict(totals)


def sample_points(
    points: Sequence[tuple[Any, Any, Any]], seed: int, size: int
) -> list[tuple[Any, Any, Any]]:
    """A seeded sample of ``(app_cls, config, assignment)`` points."""
    rng = random.Random(f"inpoint:{seed}")
    return rng.sample(list(points), min(size, len(points)))


def profile_points(points: Sequence[tuple[Any, Any, Any]]) -> dict[str, float]:
    """Profile each point once; return self-time fractions per package."""
    from repro.core.simulate import SimulationEnvironment, run_simulation

    env = SimulationEnvironment()
    for _app, config, _assignment in points:
        env.trace_for(config)  # trace loading stays out of the profile
    profiler = cProfile.Profile()
    for app_cls, config, assignment in points:
        profiler.enable()
        run_simulation(app_cls, config, assignment, env)
        profiler.disable()
    totals = split_self_time(pstats.Stats(profiler))
    whole = sum(totals.values())
    return {
        f"{package}.self_frac": (totals.get(package, 0.0) / whole if whole else 0.0)
        for package in (*PACKAGES, "core")
    }
