"""Append-only broker journal: write-ahead log plus snapshot compaction.

The :class:`~repro.core.broker.EmbeddedBroker` promotes itself from an
in-memory embed to a durable service by journaling every state-changing
operation (campaign announcements, chunk puts and leases, results and
their acks, crash bookkeeping), each naming its campaign, to an
append-only log before applying it.  On restart the broker loads the
latest snapshot, replays the log suffix, and resumes -- the campaign
never notices.

On-disk layout (inside the journal directory)::

    snapshot.pkl   pickled broker state as of the last compaction
    wal.log        CRC-framed pickle records appended since then

Each log record is framed as an 8-byte little-endian header --
``(payload_length, crc32(payload))`` -- followed by the pickled entry.
A torn or corrupt tail (the broker was killed mid-write, or the disk
lied) is *truncated* at the last valid record with a
:class:`JournalWarning`; corruption never prevents the broker from
starting.

Records and snapshots are versioned: every entry is wrapped in a
``{"v": RECORD_VERSION, "entry": entry}`` envelope on disk, and every
snapshot in ``{"v": RECORD_VERSION, "snapshot": state}``.  Anything
written by another version is refused, not translated, with one
:class:`JournalWarning` naming the version.  A log record of another
version -- say version 3, or a bare entry from a version-1 log -- stops
:meth:`Journal.load` there and the tail is truncated, as on a damaged
record.  A snapshot of another version -- or an unversioned one, which
every build before version 4 wrote -- refuses the whole journal, since
its log only continues that snapshot.

Every ``compact_every`` appends the caller is expected to fold the log
into a fresh snapshot via :meth:`Journal.compact`, which writes the
snapshot atomically (tmp + rename) before truncating the log, so a
crash between the two steps only ever *re-replays* entries, never
loses them.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import warnings
import zlib
from typing import Any

__all__ = [
    "Journal",
    "JournalWarning",
    "RECORD_VERSION",
    "SNAPSHOT_NAME",
    "LOG_NAME",
]

SNAPSHOT_NAME = "snapshot.pkl"
LOG_NAME = "wal.log"

#: The on-disk record schema this build reads and writes.  Version 1
#: (bare entries) predates the multi-tenant broker; version 2 wraps each
#: entry in a version envelope; version 3 drops the key-value ``set``
#: entry and shortens ``announce`` to ``("announce", campaign)``;
#: version 4 names a campaign id where version 3 named a queue, and
#: versions snapshots too.
RECORD_VERSION = 4

#: ``(payload_length, crc32)`` little-endian record header.
_HEADER = struct.Struct("<II")


class JournalWarning(UserWarning):
    """A journal file was damaged, or of another record version, and was
    only partially recovered."""


def _version(record: Any, body: str) -> Any:
    """The schema version of one on-disk record (``body="entry"``) or
    snapshot (``body="snapshot"``), or ``None`` when it has none.

    Broker entries are tuples and no broker state is a two-key dict of
    these names, so a dict holding exactly the envelope keys is
    unambiguously versioned.
    """
    if isinstance(record, dict) and set(record) == {"v", body}:
        return record["v"]
    return None


class Journal:
    """A write-ahead log of broker operations with snapshot compaction.

    Thread-safe: :meth:`append` / :meth:`compact` / :meth:`close` may be
    called from any thread (the broker serves connections concurrently).
    After :meth:`close`, appends become no-ops -- the broker is shutting
    down and the final compaction already captured its state.
    """

    def __init__(self, directory: str, *, compact_every: int = 512) -> None:
        self.directory = os.fspath(directory)
        self.compact_every = max(1, int(compact_every))
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()
        self._log: Any = None
        self._log_records = 0
        self._since_compact = 0
        self.compactions = 0
        self._closed = False

    # -- paths ---------------------------------------------------------
    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.directory, SNAPSHOT_NAME)

    @property
    def log_path(self) -> str:
        return os.path.join(self.directory, LOG_NAME)

    # -- recovery ------------------------------------------------------
    def load(self) -> "tuple[Any, list[Any]]":
        """Read ``(snapshot_state, [entry, ...])`` and open the log.

        Returns ``(None, [...])`` when no snapshot exists.  A corrupt
        snapshot, a torn/corrupt log tail or a record of another
        version than :data:`RECORD_VERSION` is dropped with a
        :class:`JournalWarning`; whatever valid prefix remains is
        returned.  A snapshot of another version drops the log too.
        The log file is truncated to its valid prefix and left open for
        appending.
        """
        snapshot = None
        refused = False
        if os.path.exists(self.snapshot_path):
            try:
                with open(self.snapshot_path, "rb") as handle:
                    stored = pickle.load(handle)
            except Exception as exc:  # corrupt snapshot: recover from log alone
                warnings.warn(
                    f"journal snapshot {self.snapshot_path} unreadable "
                    f"({exc!r}); recovering from the log alone",
                    JournalWarning,
                    stacklevel=2,
                )
            else:
                version = _version(stored, "snapshot")
                if version == RECORD_VERSION:
                    snapshot = stored["snapshot"]
                else:
                    refused = True
                    written = (
                        "unversioned (record version 3 or older)"
                        if version is None
                        else f"record version {version}"
                    )
                    warnings.warn(
                        f"journal snapshot {self.snapshot_path} is {written}; "
                        f"this build reads version {RECORD_VERSION} only, so "
                        "the journal is refused, its log included",
                        JournalWarning,
                        stacklevel=2,
                    )

        entries: list[Any] = []
        valid_size = 0
        damage = None
        if os.path.exists(self.log_path) and not refused:
            with open(self.log_path, "rb") as handle:
                while True:
                    header = handle.read(_HEADER.size)
                    if not header:
                        break
                    if len(header) < _HEADER.size:
                        damage = "torn record header"
                        break
                    length, crc = _HEADER.unpack(header)
                    blob = handle.read(length)
                    if len(blob) < length:
                        damage = "torn record payload"
                        break
                    if zlib.crc32(blob) & 0xFFFFFFFF != crc:
                        damage = "checksum mismatch"
                        break
                    try:
                        record = pickle.loads(blob)
                    except Exception as exc:
                        damage = f"undecodable record ({exc!r})"
                        break
                    version = _version(record, "entry")
                    if version != RECORD_VERSION:
                        damage = (
                            f"record version {version or 1}; this build "
                            f"reads version {RECORD_VERSION} only"
                        )
                        break
                    entries.append(record["entry"])
                    valid_size = handle.tell()
        if damage is not None:
            warnings.warn(
                f"journal log {self.log_path}: replay stops after "
                f"{len(entries)} record(s) ({damage}); truncating the tail",
                JournalWarning,
                stacklevel=2,
            )

        with self._lock:
            mode = "r+b" if os.path.exists(self.log_path) else "w+b"
            self._log = open(self.log_path, mode)
            self._log.truncate(valid_size)
            self._log.seek(valid_size)
            self._log_records = len(entries)
            self._since_compact = len(entries)
        return snapshot, entries

    # -- writing -------------------------------------------------------
    def append(self, entry: Any) -> None:
        """Durably append one entry (flushed so a killed process loses nothing)."""
        record = {"v": RECORD_VERSION, "entry": entry}
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(len(blob), zlib.crc32(blob) & 0xFFFFFFFF)
        with self._lock:
            if self._closed or self._log is None:
                return
            self._log.write(header + blob)
            self._log.flush()
            self._log_records += 1
            self._since_compact += 1

    @property
    def due_for_compaction(self) -> bool:
        return self._since_compact >= self.compact_every

    def compact(self, state: Any) -> None:
        """Fold the log into ``state``: snapshot atomically, then truncate."""
        blob = pickle.dumps(
            {"v": RECORD_VERSION, "snapshot": state}, protocol=pickle.HIGHEST_PROTOCOL
        )
        with self._lock:
            if self._closed or self._log is None:
                return
            tmp = self.snapshot_path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.snapshot_path)
            self._log.truncate(0)
            self._log.seek(0)
            self._log.flush()
            self._log_records = 0
            self._since_compact = 0
            self.compactions += 1

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._log is not None:
                self._log.flush()
                self._log.close()
                self._log = None

    # -- observability -------------------------------------------------
    @property
    def position(self) -> "dict[str, Any]":
        """JSON-safe journal position for the broker ``status`` op."""
        with self._lock:
            log_bytes = 0
            if self._log is not None and not self._closed:
                log_bytes = self._log.tell()
            elif os.path.exists(self.log_path):
                log_bytes = os.path.getsize(self.log_path)
            snapshot_bytes = (
                os.path.getsize(self.snapshot_path)
                if os.path.exists(self.snapshot_path)
                else 0
            )
            return {
                "directory": self.directory,
                "snapshot_bytes": snapshot_bytes,
                "log_bytes": log_bytes,
                "log_records": self._log_records,
                "compactions": self.compactions,
            }
