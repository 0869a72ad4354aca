"""Persistent on-disk trace store.

Traces are pure functions of their :class:`~repro.net.profiles.NetworkProfile`,
but generating one costs tens of milliseconds of RNG and sorting -- and
the exploration engine's worker processes used to pay that cost once
*per worker per trace*.  The :class:`TraceStore` removes the tax:

* each trace is generated **once per profile fingerprint** and
  serialised to a compact binary file under ``.repro_cache/traces/``;
* every later consumer (in-process runs, pool and queue workers
  hydrating via :class:`~repro.core.engine.EnvSpec`, repeated
  CLI/benchmark invocations) loads the bytes instead of regenerating
  packets, and :meth:`TraceStore.ensure` leaves an existing file unread,
  so a coordinator parses no trace it does not simulate itself;
* the profile fingerprint is part of the file name, so a change to any
  generator parameter (seed, size mix, flow count, ...) or to the
  generator's source (every file of ``repro.net``) makes old files
  invisible rather than wrong -- the same self-invalidation scheme the
  simulation cache uses.

The binary format is one fixed-width :mod:`struct` row per packet plus
a JSON header carrying provenance and a URL string table (URLs are
Zipf-skewed, so interning them beats repeating the strings per packet).

A store built with ``directory=None`` is memory-only: it still
deduplicates generation work inside one process (what
:func:`repro.net.tracegen.generate_all_traces` routes through) without
touching the filesystem.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import struct
from dataclasses import asdict
from typing import Iterable

from repro.net.packet import Packet, Protocol, TcpFlags
from repro.net.profiles import NetworkProfile, profile
from repro.net.trace import Trace
from repro.net.tracegen import generate_trace

__all__ = [
    "TraceStore",
    "TraceStoreError",
    "profile_fingerprint",
    "read_trace_binary",
    "source_digest",
    "trace_fingerprints",
    "write_trace_binary",
]

#: Default store location, next to the simulation-record cache shards.
DEFAULT_TRACE_DIR = os.path.join(".repro_cache", "traces")

_MAGIC = b"ddt-tracestore v1\n"
#: timestamp f64, src_ip u32, src_port u16, dst_ip u32, dst_port u16,
#: protocol u8, size u16, flags u8, url-table index i32 (-1 = no URL).
_PACKET = struct.Struct("<dIHIHBHBi")


class TraceStoreError(ValueError):
    """Raised when a stored trace file does not parse."""


#: The ``repro`` package directory the generator's source is read from.
TRACE_SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The code a trace is generated by, relative to the package.
TRACE_SOURCES = ("net",)


@functools.lru_cache(maxsize=None)
def source_digest(root: str, sources: tuple[str, ...]) -> str:
    """SHA-256 over every ``.py`` file of ``sources`` (package-relative
    files or directories) under the package directory ``root``, relative
    path and bytes, computed once per process, root and sources."""
    relative = []
    for source in sources:
        path = os.path.join(root, source)
        if os.path.isfile(path):
            relative.append(source)
        for folder, dirs, files in os.walk(path):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            relative += [
                os.path.relpath(os.path.join(folder, name), root)
                for name in files
                if name.endswith(".py")
            ]
    digest = hashlib.sha256()
    for name in sorted(relative):
        digest.update(name.replace(os.sep, "/").encode())
        with open(os.path.join(root, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def profile_fingerprint(prof: NetworkProfile) -> str:
    """Hash every generator parameter of one profile, and the generator.

    Trace generation is a pure function of the profile and the
    ``repro.net`` code (:func:`source_digest` of
    :data:`TRACE_SOURCE_ROOT`), so two equal fingerprints guarantee
    byte-identical traces -- which is what makes a stored trace safe to
    substitute for a fresh generation.
    """
    payload = {
        "profile": asdict(prof),
        "source": source_digest(TRACE_SOURCE_ROOT, TRACE_SOURCES),
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def trace_fingerprints(names: Iterable[str]) -> dict[str, str]:
    """Per-trace profile fingerprints, ``{trace name: fingerprint}``.

    The campaign manifest records these per application, so an
    incremental re-run can tell exactly which applications a profile
    edit invalidates (the store's file names embed the same values).
    Names are deduplicated; order follows first occurrence.
    """
    return {name: profile_fingerprint(profile(name)) for name in dict.fromkeys(names)}


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).lower() or "trace"


def write_trace_binary(
    trace: Trace, path: str | os.PathLike[str], fingerprint: str
) -> None:
    """Serialise a trace to the compact binary format (atomically)."""
    urls: list[str] = []
    url_index: dict[str, int] = {}
    rows = bytearray()
    for p in trace.packets:
        if p.url is None:
            idx = -1
        else:
            idx = url_index.setdefault(p.url, len(urls))
            if idx == len(urls):
                urls.append(p.url)
        if p.size_bytes > 0xFFFF:
            raise TraceStoreError(
                f"{trace.name}: packet size {p.size_bytes} exceeds format limit"
            )
        rows += _PACKET.pack(
            p.timestamp,
            p.src_ip,
            p.src_port,
            p.dst_ip,
            p.dst_port,
            int(p.protocol),
            p.size_bytes,
            int(p.flags),
            idx,
        )
    header = json.dumps(
        {
            "name": trace.name,
            "network": trace.network,
            "kind": trace.kind,
            "fingerprint": fingerprint,
            "packets": len(trace.packets),
            "urls": urls,
        },
        sort_keys=True,
    ).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<I", len(header)))
        handle.write(header)
        handle.write(rows)
    os.replace(tmp, path)


def read_trace_binary(path: str | os.PathLike[str]) -> tuple[Trace, str]:
    """Load a trace written by :func:`write_trace_binary`.

    Returns ``(trace, fingerprint)`` -- the caller decides whether the
    stored fingerprint still matches the live profile.

    Raises
    ------
    TraceStoreError
        On a bad magic line, truncated file, or malformed rows.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(_MAGIC):
        raise TraceStoreError(f"{path}: not a ddt-tracestore file")
    offset = len(_MAGIC)
    if len(blob) < offset + 4:
        raise TraceStoreError(f"{path}: truncated header")
    (header_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    try:
        header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    except ValueError as exc:
        raise TraceStoreError(f"{path}: bad header: {exc}") from exc
    offset += header_len

    urls = list(header.get("urls", ()))
    count = int(header.get("packets", 0))
    body = blob[offset:]
    if len(body) != count * _PACKET.size:
        raise TraceStoreError(
            f"{path}: expected {count} packets, found {len(body) // _PACKET.size}"
        )
    packets: list[Packet] = []
    try:
        for ts, src, sport, dst, dport, proto, size, flags, idx in _PACKET.iter_unpack(
            body
        ):
            packets.append(
                Packet(
                    timestamp=ts,
                    src_ip=src,
                    dst_ip=dst,
                    src_port=sport,
                    dst_port=dport,
                    protocol=Protocol(proto),
                    size_bytes=size,
                    flags=TcpFlags(flags),
                    url=urls[idx] if idx >= 0 else None,
                )
            )
    except (ValueError, IndexError) as exc:
        raise TraceStoreError(f"{path}: bad packet row: {exc}") from exc

    trace = Trace(
        name=str(header.get("name", "unnamed")),
        network=str(header.get("network", "unknown")),
        kind=str(header.get("kind", "unknown")),
        packets=packets,
    )
    trace.validate()
    return trace, str(header.get("fingerprint", ""))


class TraceStore:
    """Generate-once trace provider with optional disk persistence.

    Parameters
    ----------
    directory:
        Where trace files live (``.repro_cache/traces/`` by default).
        ``None`` keeps the store memory-only: traces are still generated
        at most once per process, but nothing is written to disk.

    Counters (``generations`` / ``disk_loads`` / ``memo_hits``) record
    where each :meth:`get` was satisfied, so tests and benchmarks can
    assert that a warm store performs **zero** generations.
    """

    def __init__(
        self, directory: str | os.PathLike[str] | None = DEFAULT_TRACE_DIR
    ) -> None:
        self.directory = os.fspath(directory) if directory is not None else None
        self._memo: dict[str, Trace] = {}
        self.generations = 0
        self.disk_loads = 0
        self.memo_hits = 0

    # ------------------------------------------------------------------
    def path_for(self, name: str) -> str | None:
        """On-disk path of one trace (``None`` for a memory-only store)."""
        if self.directory is None:
            return None
        fp = profile_fingerprint(profile(name))
        return os.path.join(self.directory, f"{_slug(name)}-{fp}.bin")

    def __len__(self) -> int:
        return len(self._memo)

    def counters(self) -> dict[str, int]:
        """The three satisfaction counters as a plain dict."""
        return {
            "generations": self.generations,
            "disk_loads": self.disk_loads,
            "memo_hits": self.memo_hits,
        }

    # ------------------------------------------------------------------
    def get(self, name: str) -> Trace:
        """The trace of one profile: memo, then disk, then generation."""
        trace = self._memo.get(name)
        if trace is not None:
            self.memo_hits += 1
            return trace
        prof = profile(name)
        fp = profile_fingerprint(prof)
        if self.directory is not None:
            path = os.path.join(self.directory, f"{_slug(name)}-{fp}.bin")
            if os.path.exists(path):
                try:
                    trace, stored_fp = read_trace_binary(path)
                except (OSError, TraceStoreError):
                    trace = None  # corrupt file: fall through to generation
                else:
                    if stored_fp != fp or trace.name != name:
                        trace = None  # stale or mislabelled: regenerate
                if trace is not None:
                    self.disk_loads += 1
                    self._memo[name] = trace
                    return trace
        trace = generate_trace(prof)
        self.generations += 1
        if self.directory is not None:
            self._persist(trace, fp)
        self._memo[name] = trace
        return trace

    def ensure(self, names: Iterable[str]) -> int:
        """Make every named trace loadable from disk; returns generations.

        The task graph calls this before it submits a node's lane runs,
        so every executor only ever *loads* traces -- the generation
        cost is paid once, in the coordinator.  A file that already
        exists is left unread (whoever simulates loads it); only a
        missing one is written, from the memo or a fresh generation.
        A no-op for a memory-only store.
        """
        if self.directory is None:
            return 0
        before = self.generations
        for name in dict.fromkeys(names):
            path = self.path_for(name)
            if os.path.exists(path):
                continue
            trace = self._memo.get(name)
            if trace is None:
                self.get(name)  # generates and persists
            else:
                self._persist(trace, profile_fingerprint(profile(name)))
        return self.generations - before

    # ------------------------------------------------------------------
    def _persist(self, trace: Trace, fingerprint: str) -> None:
        assert self.directory is not None
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, f"{_slug(trace.name)}-{fingerprint}.bin")
        write_trace_binary(trace, path, fingerprint)
