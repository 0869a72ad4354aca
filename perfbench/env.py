"""Where the program's sources are, and what the run happened on."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout root: the benchmark's directory sits directly under it.
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)


class MissingProgram(RuntimeError):
    """The checkout has no program to measure."""


def require_program() -> None:
    """Fail unless the checkout holds the ``repro`` sources."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program sources under {SRC}")


def source_digest() -> str:
    """SHA-256 over every file of ``src/repro`` (path and bytes), so a
    result names the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for folder, dirs, files in os.walk(base):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """The checkout's commit, or ``None`` outside a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def cpu_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    Recorded before and after a run: on a shared host the same code
    runs measurably slower while neighbours are busy, and the probe
    tells that drift apart from a change in the program.
    """
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - started


def provenance() -> dict[str, object]:
    """Machine and code identity recorded with every result."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
