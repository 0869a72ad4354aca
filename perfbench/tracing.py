"""Spans recorded from outside the program, and what they add up to.

A :class:`Recorder` replaces public functions of the program with thin
wrappers that time each call as a span (name, layer, start, end, parent
span, process).  Spans stay in memory and are written out once, at the
end of a run, as JSONL and as Chrome trace-event JSON (viewable in
Perfetto or ``chrome://tracing``).  Nothing under ``src/`` is edited:
the wrappers are installed by the benchmark process (and by its worker
launcher) and removed again with :meth:`Recorder.uninstall`.

Times come from :func:`time.perf_counter`, which is the system-wide
monotonic clock on Linux, so spans written by different processes of
one run share a time base.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

#: ``(args, kwargs) -> state`` called before the wrapped function.
Before = Callable[[tuple, dict], Any]
#: ``(state, args, kwargs, result) -> attrs`` called after it returns.
After = Callable[[Any, tuple, dict, Any], "Mapping[str, Any] | None"]


class Recorder:
    """In-memory span store plus the wrappers that feed it.

    Parents are tracked per thread, so spans opened by the broker's
    connection threads are roots of their own, while nested calls on
    one thread form a tree.  Span ids are ``"<pid>.<n>"`` so spans of
    several processes can be merged without collisions.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[dict[str, Any]] = []
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any, bool]] = []
        self.missing: list[str] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> dict[str, Any]:
        """Open a span on the calling thread; close it with :meth:`end`."""
        stack = self._stack()
        span = {
            "id": f"{self.pid}.{next(self._ids)}",
            "parent": stack[-1] if stack else None,
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "run_id": self.run_id,
            "args": {},
        }
        stack.append(span["id"])
        return span

    def end(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()
        if self.active:
            with self._lock:
                self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[dict[str, Any]]:
        """``with recorder.span(name, layer) as attrs: ...``"""
        span = self.begin(name, layer)
        try:
            yield span["args"]
        finally:
            self.end(span)

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        before: Before | None = None,
        after: After | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span.

        ``owner`` is a module or a class; class attributes are patched
        on the class, so every instance is covered.  A target the
        program no longer has is skipped and listed in :attr:`missing`
        rather than failing the run.
        """
        present = attr in vars(owner)
        original = vars(owner).get(attr) if present else getattr(owner, attr, None)
        if original is None or not callable(original):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        recorder = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = before(args, kwargs) if before is not None else None
            span = recorder.begin(name, layer)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span["args"]["error"] = True
                recorder.end(span)
                raise
            if after is not None:
                extra = after(state, args, kwargs, result)
                if extra:
                    span["args"].update(extra)
            recorder.end(span)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, present))

    def uninstall(self) -> None:
        """Restore every wrapped attribute and stop recording."""
        self.active = False
        while self._undo:
            owner, attr, original, present = self._undo.pop()
            if present:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def write_jsonl(spans: Iterable[Mapping[str, Any]], path: str) -> None:
    """One span per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True, default=str) + "\n")


def read_jsonl(path: str) -> list[dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def write_chrome_trace(spans: Sequence[Mapping[str, Any]], path: str) -> None:
    """Chrome trace-event JSON: one complete (``"X"``) event per span."""
    origin = min((s["start"] for s in spans), default=0.0)
    events = []
    for span in spans:
        events.append(
            {
                "name": span["name"],
                "cat": span["layer"],
                "ph": "X",
                "ts": round((span["start"] - origin) * 1e6, 3),
                "dur": round((span["end"] - span["start"]) * 1e6, 3),
                "pid": span["pid"],
                "tid": span["tid"],
                "args": {"id": span["id"], "parent": span["parent"], **span["args"]},
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Mapping[str, Any]]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the part of it
    covered by its child spans, summed by layer."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        lo, hi = span["start"], span["end"]
        totals[span["layer"]] += (hi - lo) - covered(children.get(span["id"], ()), lo, hi)
    return dict(totals)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``0.0`` when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[min(len(ordered), int(rank)) - 1]


#: Tail percentiles tried from the highest down.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that
    still has at least ten samples beyond it (the median when there
    are too few samples for any)."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return percentile(values, pct), pct, n
    return percentile(values, 50.0), 50.0, n
