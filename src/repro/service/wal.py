"""Durability for the live-mutation tier: WAL, snapshots, recovery, followers.

PR 5 made the engine mutable but memory-only: a restart lost every
batch.  This module gives the monotone-generation mutation tier a
crash-safe life cycle —

* :class:`WriteAheadLog` — a segmented append-only log of mutation
  batches.  Each record frames the *raw* (pre-normalisation) batch with
  a length + CRC32 header, so replay pushes it through the exact same
  sequential-semantics normalisation the original apply used.  Segments
  are named by the generation of their first record; a writer opening a
  log truncates a torn tail (a crash mid-``write``) back to the last
  intact record.  ``fsync`` policy is a knob: ``"always"`` (default)
  syncs every append — a crashed *machine* loses nothing; ``"never"``
  leaves syncing to the OS — a crashed *process* still loses nothing
  (the buffer is flushed per append), only a power cut can.
* Snapshots + manifest — :meth:`WriteAheadLog.write_snapshot` persists
  the full database state (a :mod:`repro.core.codec` database document
  inside a versioned envelope) at generation ``G`` and atomically
  rewrites ``MANIFEST.json``; segments fully covered by ``G`` are then
  compacted away.
* :func:`recover_engine` — snapshot + replay: load the manifest's
  snapshot (or the caller's seed database when the log predates any
  snapshot), bulk-replay every logged record with generation ``> G``
  at the database layer, then build a fresh
  :class:`~repro.service.api.YaskEngine` — indexes and kernel — once,
  over the final state.  Any crash point reconstructs the exact
  pre-crash engine —
  the crash-point property suite
  (``tests/properties/test_prop_recovery.py``) proves bit-for-bit top-k
  and why-not parity for *every* record and byte boundary.
* :class:`FollowerEngine` — a read-only replica tailing the same log
  directory.  It never truncates (the primary owns the tail) and serves
  reads under a ``min_generation`` consistency token: a client that
  just wrote at generation ``g`` can demand its reads reflect ``g``.

The write path ordering is the classic WAL contract, threaded through
:meth:`MutableDatabase.apply`'s ``pre_commit`` hook: normalise/validate
→ append to the log (flush + fsync per policy) → mutate the engine.  A
failed append truncates back to the pre-append offset and raises
:class:`WalWriteError` (HTTP 503) with the engine untouched — a batch
is either durable and applied, or neither.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from repro import concurrency, faults
from repro.core.codec import DocumentError, database_from_doc

if TYPE_CHECKING:  # the engine imports this module's errors lazily
    from repro.core.objects import SpatialDatabase
    from repro.core.query import QueryResult, SpatialKeywordQuery
    from repro.service.api import YaskEngine

__all__ = [
    "FSYNC_POLICIES",
    "FollowerEngine",
    "FollowerLagError",
    "RecoveryReport",
    "WalCorruptionError",
    "WalError",
    "WalRecord",
    "WalWriteError",
    "WriteAheadLog",
    "load_snapshot",
    "read_records",
    "recover_engine",
    "replay_into",
]

#: Per-record frame header: payload byte length + CRC32 of the payload.
_HEADER = struct.Struct("<II")
#: Defensive ceiling on one record's payload — a corrupted length field
#: must not trigger a gigabyte allocation.
_MAX_RECORD_BYTES = 1 << 26
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
_MANIFEST_NAME = "MANIFEST.json"
_MANIFEST_FORMAT = 1
_SNAPSHOT_FORMAT = 1
#: The database body's own version field, inside the snapshot envelope.
_DATABASE_FORMAT = 1

FSYNC_POLICIES = ("always", "never")

#: ``opener(path, mode) -> file object`` — injectable for fault testing
#: (the ``FlakyFile`` wrapper) and for exotic transports.
Opener = Callable[[str, str], Any]


class WalError(RuntimeError):
    """Base class for write-ahead-log failures."""


class WalCorruptionError(WalError):
    """The log or manifest is damaged beyond the tolerated torn tail.

    A torn *tail* (crash mid-append on the final segment) is normal and
    self-healing; a torn record anywhere else, a CRC mismatch behind
    intact records, a generation gap, or an unreadable manifest is not.
    """


class WalWriteError(WalError):
    """An append could not be made durable; the batch was NOT applied.

    The HTTP tier maps this to a structured 503: the write failed
    cleanly, the engine still serves its pre-batch state, and the
    client may retry.
    """


class FollowerLagError(WalError):
    """A follower read demanded a generation the replica has not reached.

    The HTTP tier maps this to a structured 503 (retry-after semantics):
    the replica is healthy, merely behind the client's consistency
    token.
    """


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One logged batch: its generation and the wire-shaped mutations.

    ``token`` is the client-supplied idempotency token of the batch, if
    any — replay repopulates the engine's dedup map from it, so a
    client retrying a mutation across a primary restart still gets the
    original generation back instead of a double-apply.
    """

    generation: int
    mutations: tuple[Mapping[str, Any], ...]
    token: str | None = None


def _segment_name(start_generation: int) -> str:
    return f"{_SEGMENT_PREFIX}{start_generation:016d}{_SEGMENT_SUFFIX}"


def _segment_start(path: Path) -> int:
    stem = path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        raise WalCorruptionError(
            f"segment file {path.name!r} is not named by a start generation"
        ) from None


def _list_segments(directory: Path) -> list[Path]:
    segments = [
        path
        for path in directory.iterdir()
        if path.name.startswith(_SEGMENT_PREFIX)
        and path.name.endswith(_SEGMENT_SUFFIX)
    ]
    return sorted(segments, key=_segment_start)


def _encode_record(
    generation: int,
    mutations: Sequence[Mapping[str, Any]],
    token: str | None = None,
) -> bytes:
    record: dict[str, Any] = {"g": generation, "m": list(mutations)}
    if token is not None:
        record["t"] = token
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _scan_records(
    raw: bytes,
) -> tuple[list[WalRecord], int, str | None]:
    """Parse one segment's bytes into records.

    Returns ``(records, clean_end_offset, torn_reason)``; ``torn_reason``
    is ``None`` on a clean end-of-file, otherwise a description of why
    parsing stopped (everything from ``clean_end_offset`` on is torn).
    """
    records: list[WalRecord] = []
    offset = 0
    total = len(raw)
    while True:
        if offset + _HEADER.size > total:
            reason = (
                None
                if offset == total
                else (
                    f"truncated record header at offset {offset} "
                    f"({total - offset} of {_HEADER.size} header bytes)"
                )
            )
            return records, offset, reason
        length, crc = _HEADER.unpack_from(raw, offset)
        if length > _MAX_RECORD_BYTES:
            return (
                records,
                offset,
                f"implausible record length {length} at offset {offset}",
            )
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            return (
                records,
                offset,
                f"truncated record payload at offset {offset} "
                f"({total - start} of {length} payload bytes)",
            )
        payload = raw[start:end]
        actual_crc = zlib.crc32(payload)
        if actual_crc != crc:
            return (
                records,
                offset,
                f"record checksum mismatch at offset {offset}: expected "
                f"CRC 0x{crc:08x}, got 0x{actual_crc:08x}",
            )
        try:
            decoded = json.loads(payload)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return (
                records,
                offset,
                f"record payload at offset {offset} is not JSON",
            )
        if (
            not isinstance(decoded, dict)
            or not isinstance(decoded.get("g"), int)
            or isinstance(decoded.get("g"), bool)
            or decoded["g"] < 1
            or not isinstance(decoded.get("m"), list)
            or not decoded["m"]
            or not all(isinstance(item, dict) for item in decoded["m"])
            or not (
                decoded.get("t") is None or isinstance(decoded.get("t"), str)
            )
        ):
            return (
                records,
                offset,
                f"malformed record payload at offset {offset}",
            )
        records.append(
            WalRecord(
                generation=decoded["g"],
                mutations=tuple(decoded["m"]),
                token=decoded.get("t"),
            )
        )
        offset = end


def _corruption_message(path: Path, torn_reason: str, is_tail: bool) -> str:
    """Name the failure class: recoverable torn tail vs mid-log damage.

    A torn *tail* (final segment, crash mid-append) is self-healing —
    reopening the writer truncates it — so its message says exactly
    that.  Damage behind intact records or in a non-final segment is
    unrecoverable corruption and the message must never suggest
    truncation would fix it.
    """
    if is_tail:
        return (
            f"recoverable torn tail in segment {path.name}: {torn_reason}; "
            "reopening the write-ahead log writer truncates it away"
        )
    return (
        f"mid-log corruption in segment {path.name}: {torn_reason}; "
        "the log cannot be replayed past this point — restore from a "
        "snapshot or a replica"
    )


def _read_bytes(path: Path, opener: Opener) -> bytes:
    try:
        with opener(str(path), "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise WalError(f"cannot read {path.name}: {exc}") from None


def read_records(
    directory: str | Path,
    *,
    after: int = 0,
    opener: Opener = open,
    tolerate_torn_tail: bool = True,
) -> Iterator[WalRecord]:
    """Yield logged records with generation ``> after``, in log order.

    Segments whose entire generation range lies at or below ``after``
    are skipped without being read.  A torn tail on the *final* segment
    ends iteration (``tolerate_torn_tail=True``, the reader/follower
    stance — the primary may be mid-append right now); anywhere else a
    torn record raises :class:`WalCorruptionError`.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise WalError(f"no write-ahead log directory at {directory}")
    segments = _list_segments(directory)
    for index, path in enumerate(segments):
        if (
            index + 1 < len(segments)
            and _segment_start(segments[index + 1]) <= after + 1
        ):
            continue  # every record in this segment is <= after
        records, _, torn_reason = _scan_records(_read_bytes(path, opener))
        if torn_reason is not None and not (
            tolerate_torn_tail and index == len(segments) - 1
        ):
            raise WalCorruptionError(
                _corruption_message(path, torn_reason, index == len(segments) - 1)
            )
        for record in records:
            if record.generation > after:
                yield record
        if torn_reason is not None:
            return


def _load_manifest(directory: Path, opener: Opener) -> dict[str, Any]:
    path = directory / _MANIFEST_NAME
    if not path.exists():
        return {
            "format": _MANIFEST_FORMAT,
            "snapshot": None,
            "snapshot_generation": 0,
            "segments": [],
        }
    raw = _read_bytes(path, opener)
    try:
        manifest = json.loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WalCorruptionError(f"{_MANIFEST_NAME} is not JSON: {exc}") from None
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != _MANIFEST_FORMAT
        or not isinstance(manifest.get("snapshot_generation"), int)
        or manifest["snapshot_generation"] < 0
    ):
        raise WalCorruptionError(f"{_MANIFEST_NAME} has an unsupported layout")
    return manifest


def load_snapshot(
    directory: str | Path, *, opener: Opener = open
) -> tuple[int, dict[str, Any]] | None:
    """``(generation, database document)`` of the manifest's snapshot.

    ``None`` when the log has never been snapshotted.  Raises
    :class:`WalCorruptionError` when the manifest names a snapshot that
    is missing or malformed — a half-deleted log is not silently
    downgraded to "no snapshot", because replaying from generation 0
    against compacted segments would fabricate a gap.
    """
    directory = Path(directory)
    manifest = _load_manifest(directory, opener)
    name = manifest.get("snapshot")
    if name is None:
        return None
    path = directory / str(name)
    if not path.exists():
        raise WalCorruptionError(
            f"{_MANIFEST_NAME} names snapshot {name!r} but the file is missing"
        )
    try:
        payload = json.loads(_read_bytes(path, opener))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WalCorruptionError(f"snapshot {name!r} is not JSON: {exc}") from None
    database = payload.get("database") if isinstance(payload, dict) else None
    if (
        not isinstance(database, dict)
        or payload.get("format") != _SNAPSHOT_FORMAT
        or database.get("format") != _DATABASE_FORMAT
        or payload.get("generation") != manifest["snapshot_generation"]
    ):
        raise WalCorruptionError(
            f"snapshot {name!r} is not a format-{_SNAPSHOT_FORMAT} snapshot "
            "at the manifest's generation"
        )
    return manifest["snapshot_generation"], {
        key: value for key, value in database.items() if key != "format"
    }


class WriteAheadLog:
    """A segmented, CRC-framed, append-only mutation log (the writer).

    One process owns a log directory for writing at a time; followers
    (:class:`FollowerEngine`) read the same directory concurrently.
    Opening the writer performs torn-tail recovery: the final segment is
    scanned and truncated back to its last intact record, so a crash
    mid-append never poisons the next run.

    Parameters
    ----------
    directory:
        The log directory (created if missing): segment files named
        ``wal-<start generation>.log``, ``MANIFEST.json`` and at most
        one ``snapshot-<generation>.json``.
    fsync:
        ``"always"`` — ``os.fsync`` after every append (survives machine
        crashes); ``"never"`` — flush to the OS only (survives process
        crashes; an ingest-benchmark and test-suite knob, and an honest
        choice when a follower provides redundancy).
    segment_bytes:
        Roll to a new segment once the active one reaches this size.
    opener:
        Injectable ``open``-alike for fault testing.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "always",
        segment_bytes: int = 4 << 20,
        opener: Opener = open,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be positive")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._segment_bytes = segment_bytes
        # All file I/O flows through the fault-injection guard: inert
        # (raw handles, one None check per open) unless a chaos plan is
        # armed via repro.faults.armed().
        opener = faults.guarded_opener(opener, "wal")
        self._opener = opener
        # Re-entrant: write_snapshot compacts under the same lock.
        # fsync-sanctioned — flushing the log under it IS the write-
        # ahead guarantee.
        self._lock = concurrency.ordered_rlock(
            "wal.log", concurrency.LEVEL_WAL, fsync_safe=True
        )
        self._file: Any | None = None
        self._file_path: Path | None = None
        self._file_size = 0
        self._failed = False
        self._closed = False
        # Counters for the stats endpoint (guarded by self._lock).
        self.records_appended = 0
        self.bytes_appended = 0
        self.syncs = 0
        self.truncated_bytes = 0
        self.snapshots_written = 0
        self.segments_compacted = 0
        self._manifest = _load_manifest(self._directory, opener)
        self._last_generation = self._manifest["snapshot_generation"]
        self._open_tail()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def fsync_policy(self) -> str:
        return self._fsync

    @property
    def last_generation(self) -> int:
        """Generation of the newest durable record (or snapshot)."""
        with self._lock:
            return self._last_generation

    @property
    def snapshot_generation(self) -> int:
        """Generation the manifest's snapshot covers (0 = none)."""
        with self._lock:
            return self._manifest["snapshot_generation"]

    @property
    def failed(self) -> bool:
        """True once an append failure could not be rolled back."""
        with self._lock:
            return self._failed

    def to_dict(self) -> dict[str, Any]:
        """The ``durability`` section of ``GET /api/stats``."""
        with self._lock:
            segments = _list_segments(self._directory)
            return {
                "directory": str(self._directory),
                "fsync": self._fsync,
                "last_generation": self._last_generation,
                "snapshot_generation": self._manifest["snapshot_generation"],
                "segments": len(segments),
                "records_appended": self.records_appended,
                "bytes_appended": self.bytes_appended,
                "syncs": self.syncs,
                "truncated_bytes": self.truncated_bytes,
                "snapshots_written": self.snapshots_written,
                "segments_compacted": self.segments_compacted,
                "failed": self._failed,
            }

    # ------------------------------------------------------------------
    # Opening (torn-tail recovery)
    # ------------------------------------------------------------------
    def _open_tail(self) -> None:
        segments = _list_segments(self._directory)
        last_generation = self._last_generation
        for index, path in enumerate(segments):
            is_last = index == len(segments) - 1
            records, clean_end, torn_reason = _scan_records(
                _read_bytes(path, self._opener)
            )
            if torn_reason is not None:
                if not is_last:
                    raise WalCorruptionError(
                        _corruption_message(path, torn_reason, False)
                    )
                self._truncate_file(path, clean_end)
            if records:
                last_generation = max(last_generation, records[-1].generation)
            if is_last:
                self._file_path = path
                self._file_size = clean_end
        self._last_generation = last_generation

    def _truncate_file(self, path: Path, size: int) -> None:
        try:
            with self._opener(str(path), "r+b") as handle:
                handle.seek(0, os.SEEK_END)
                torn = handle.tell() - size
                handle.truncate(size)
        except OSError as exc:
            raise WalError(
                f"cannot truncate torn tail of {path.name}: {exc}"
            ) from None
        self.truncated_bytes += max(torn, 0)

    # ------------------------------------------------------------------
    # Appending (the write-ahead step)
    # ------------------------------------------------------------------
    def append(
        self,
        generation: int,
        mutations: Sequence[Mapping[str, Any]],
        *,
        token: str | None = None,
    ) -> None:
        """Durably log one batch as generation ``generation``.

        ``token`` is the client's idempotency token, persisted in the
        record so recovery and followers rebuild the dedup map.  Raises
        :class:`WalWriteError` when the frame could not be made
        durable; the log is rolled back to its pre-append state (or, if
        even that fails, marked failed so every later append refuses
        fast rather than risking a half-written tail).
        """
        if not mutations:
            raise WalError("refusing to log an empty mutation batch")
        with self._lock:
            if self._closed:
                raise WalWriteError("write-ahead log is closed")
            if self._failed:
                raise WalWriteError(
                    "write-ahead log previously failed mid-append and could "
                    "not roll back; reopen the log (torn-tail recovery) "
                    "before accepting writes"
                )
            if generation != self._last_generation + 1:
                raise WalError(
                    f"non-contiguous append: expected generation "
                    f"{self._last_generation + 1}, got {generation}"
                )
            frame = _encode_record(generation, mutations, token)
            handle = self._ensure_segment(generation)
            offset = self._file_size
            try:
                handle.write(frame)
                handle.flush()
                if self._fsync == "always":
                    self._sync(handle)
                    self.syncs += 1
            except (OSError, ValueError) as exc:
                self._rollback_append(offset, exc)
            self._file_size = offset + len(frame)
            self._last_generation = generation
            self.records_appended += 1
            self.bytes_appended += len(frame)

    def _ensure_segment(self, generation: int) -> Any:
        if self._file_path is not None and self._file_size >= self._segment_bytes:
            self._close_file()
            self._file_path = None
            self._file_size = 0
        if self._file is None:
            if self._file_path is None:
                self._file_path = self._directory / _segment_name(generation)
                self._file_size = 0
            try:
                self._file = self._opener(str(self._file_path), "ab")
            except OSError as exc:
                raise WalWriteError(
                    f"cannot open segment {self._file_path.name}: {exc}"
                ) from None
        return self._file

    @staticmethod
    def _sync(handle: Any) -> None:
        concurrency.note_fsync("wal")
        sync = getattr(handle, "sync", None)
        if sync is not None:
            sync()
        else:
            os.fsync(handle.fileno())

    def _rollback_append(self, offset: int, exc: Exception) -> None:
        try:
            self._file.truncate(offset)
            self._file.flush()
        except (OSError, ValueError):
            # The partial frame could not be removed: poison the writer.
            # The torn tail stays on disk, exactly the state a crash
            # would leave, and the next open truncates it away.
            self._failed = True
            self._close_file(quietly=True)
        raise WalWriteError(
            f"write-ahead log append failed: {exc}; the batch was NOT applied"
        ) from exc

    def _close_file(self, *, quietly: bool = False) -> None:
        if self._file is None:
            return
        try:
            self._file.close()
        except OSError:
            if not quietly:
                raise
        finally:
            self._file = None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self, *, after: int = 0) -> list[WalRecord]:
        """All durable records with generation ``> after`` (recovery path)."""
        with self._lock:
            self._flush()
            return list(
                read_records(
                    self._directory,
                    after=after,
                    opener=self._opener,
                    tolerate_torn_tail=False,
                )
            )

    def _flush(self) -> None:
        if self._file is not None:
            try:
                self._file.flush()
            except (OSError, ValueError):
                # Best-effort pre-read flush: a failing handle surfaces
                # as a structured WalWriteError on the next append, not
                # mid-read.
                pass

    # ------------------------------------------------------------------
    # Snapshots + compaction
    # ------------------------------------------------------------------
    def write_snapshot(
        self, generation: int, database_doc: dict[str, Any]
    ) -> dict[str, Any]:
        """Persist a snapshot covering ``generation``; compact the log.

        ``database_doc`` is a :func:`repro.core.codec.database_to_doc`
        document; the snapshot wraps it with its own ``format`` field
        inside the envelope's.

        The snapshot file and the manifest are both written atomically
        (temp file + ``os.replace``), in that order, so every crash
        point leaves either the old manifest (pointing at the old,
        intact snapshot) or the new one (pointing at the new, intact
        snapshot).  Segments whose entire range the snapshot covers are
        then deleted — except the active segment, which the next append
        continues.
        """
        with self._lock:
            if self._closed:
                raise WalWriteError("write-ahead log is closed")
            if generation < self._manifest["snapshot_generation"]:
                raise WalError(
                    f"snapshot generation {generation} would regress the "
                    f"manifest's {self._manifest['snapshot_generation']}"
                )
            if generation > self._last_generation:
                raise WalError(
                    f"snapshot generation {generation} is ahead of the log "
                    f"({self._last_generation})"
                )
            name = f"snapshot-{generation:016d}.json"
            payload = {
                "format": _SNAPSHOT_FORMAT,
                "generation": generation,
                "database": {"format": _DATABASE_FORMAT, **database_doc},
            }
            previous = self._manifest.get("snapshot")
            self._write_atomically(name, json.dumps(payload))
            self._manifest = {
                "format": _MANIFEST_FORMAT,
                "snapshot": name,
                "snapshot_generation": generation,
                "segments": [
                    path.name for path in _list_segments(self._directory)
                ],
            }
            self._write_atomically(
                _MANIFEST_NAME, json.dumps(self._manifest)
            )
            # Compact only once the new manifest is durable: a crash
            # before this line leaves extra segments (recovery skips
            # them via the generation filter), never missing ones.  The
            # manifest's segment list is informational — readers always
            # discover segments by listing the directory.
            compacted = self._compact(generation)
            if previous is not None and previous != name:
                (self._directory / previous).unlink(missing_ok=True)
            self.snapshots_written += 1
            self.segments_compacted += compacted
            return {
                "snapshot": name,
                "generation": generation,
                "segments_compacted": compacted,
            }

    def _write_atomically(self, name: str, text: str) -> None:
        path = self._directory / name
        tmp = self._directory / (name + ".tmp")
        try:
            with self._opener(str(tmp), "wb") as handle:
                handle.write(text.encode("utf-8"))
                handle.flush()
                if self._fsync == "always":
                    self._sync(handle)
            os.replace(tmp, path)
        except (OSError, ValueError) as exc:
            tmp.unlink(missing_ok=True)
            raise WalWriteError(f"cannot write {name}: {exc}") from exc

    def _compact(self, covered_generation: int) -> int:
        """Delete segments whose records all lie at or below the snapshot."""
        segments = _list_segments(self._directory)
        compacted = 0
        for index, path in enumerate(segments):
            is_last = index == len(segments) - 1
            if is_last:
                break  # never delete the active segment
            if _segment_start(segments[index + 1]) <= covered_generation + 1:
                path.unlink(missing_ok=True)
                compacted += 1
        return compacted

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the active segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._flush()
            self._close_file(quietly=True)
            self._closed = True


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What :func:`recover_engine` reconstructed."""

    generation: int
    snapshot_generation: int
    records_replayed: int
    mutations_replayed: int
    objects: int

    def to_dict(self) -> dict[str, int]:
        return {
            "generation": self.generation,
            "snapshot_generation": self.snapshot_generation,
            "records_replayed": self.records_replayed,
            "mutations_replayed": self.mutations_replayed,
            "objects": self.objects,
        }


def _replay(
    records: Iterator[WalRecord] | Sequence[WalRecord],
    generation_of: Callable[[], int],
    apply: Callable[[Sequence[Any], str | None], Any],
) -> tuple[int, int]:
    """The shared replay loop: decode, gap-check, apply, verify.

    ``generation_of``/``apply`` abstract over the target — a live
    :class:`~repro.service.api.YaskEngine` (follower polling) or a bare
    :class:`~repro.core.mutations.MutableDatabase` (bulk recovery).
    Both targets run the identical sequential-semantics normalisation,
    so a record that replays to any generation other than its own is a
    corrupt log, not a mode difference.
    """
    from repro.service.protocol import ProtocolError, mutation_from_dict

    records_applied = 0
    mutations_applied = 0
    for record in records:
        generation = generation_of()
        if record.generation <= generation:
            continue
        if record.generation != generation + 1:
            raise WalCorruptionError(
                f"generation gap: log jumps to {record.generation} but the "
                f"engine is at {generation}"
            )
        try:
            mutations = [
                mutation_from_dict(item, max_keywords=None)
                for item in record.mutations
            ]
        except ProtocolError as exc:
            raise WalCorruptionError(
                f"record {record.generation} holds a malformed mutation: {exc}"
            ) from None
        report = apply(mutations, record.token)
        if report.generation != record.generation:
            raise WalCorruptionError(
                f"record {record.generation} replayed as generation "
                f"{report.generation}; the log disagrees with sequential "
                "semantics"
            )
        records_applied += 1
        mutations_applied += len(mutations)
    return records_applied, mutations_applied


def replay_into(
    engine: "YaskEngine", records: Iterator[WalRecord] | Sequence[WalRecord]
) -> tuple[int, int]:
    """Replay logged records through the engine's normal mutation path.

    Returns ``(records_applied, mutations_applied)``.  Records at or
    below the engine's current generation are skipped — the
    double-replay guard: recovery, follower polling and an operator
    accidentally replaying the same log twice are all idempotent.  A
    generation *gap* raises :class:`WalCorruptionError` (records lost,
    or a follower outrun by compaction).
    """
    return _replay(
        records,
        lambda: engine.generation,
        lambda mutations, token: engine.apply_mutations(
            mutations, batch_token=token
        ),
    )


def _recovered_database(
    directory: Path,
    database: "SpatialDatabase | None",
    opener: Opener,
    *,
    tolerate_torn_tail: bool,
) -> tuple["SpatialDatabase", int, int, int, int]:
    """Reconstruct the durable database state by bulk replay.

    Loads the manifest's snapshot (or adopts ``database``, the seed
    state, when the log predates any snapshot) and replays every record
    past it at the *database* layer — full sequential-semantics
    normalisation and generation checking, but none of the engine's
    incremental index maintenance, which recovery would only throw away
    rebuilding the engine anyway.  Returns ``(database,
    base_generation, final_generation, records, mutations, tokens)``;
    the caller builds the engine (indexes, kernel, shards) once, over
    the final state, seeding it with the replayed idempotency tokens so
    client retries dedup across the restart.
    """
    from repro.core.mutations import MutableDatabase

    snapshot = load_snapshot(directory, opener=opener)
    if snapshot is not None:
        base_generation, payload = snapshot
        try:
            database = database_from_doc(payload)
        except DocumentError as exc:
            raise WalCorruptionError(f"snapshot is malformed: {exc}") from None
    elif database is None:
        raise WalError(
            f"log at {directory} has no snapshot; pass the seed database "
            "the log was started over to replay from generation 0"
        )
    else:
        base_generation = 0
    coordinator = MutableDatabase(database, start_generation=base_generation)
    records_applied, mutations_applied = _replay(
        read_records(
            directory,
            after=base_generation,
            opener=opener,
            tolerate_torn_tail=tolerate_torn_tail,
        ),
        lambda: coordinator.generation,
        lambda mutations, token: coordinator.apply(mutations, token=token),
    )
    return (
        database,
        base_generation,
        coordinator.generation,
        records_applied,
        mutations_applied,
        coordinator.known_tokens(),
    )


def recover_engine(
    directory: str | Path,
    *,
    database: "SpatialDatabase | None" = None,
    attach: bool = True,
    fsync: str = "always",
    segment_bytes: int = 4 << 20,
    opener: Opener = open,
    **engine_kwargs: Any,
) -> tuple["YaskEngine", RecoveryReport]:
    """Reconstruct the exact pre-crash engine from a log directory.

    Opens the log as the writer (torn-tail truncation), loads the
    manifest's snapshot — or ``database``, the seed state, when the log
    predates any snapshot — and bulk-replays every record past it at
    the database layer before building the engine's indexes exactly
    once over the final state (far cheaper than paying incremental
    index maintenance per replayed batch, and bit-for-bit identical:
    the live-mutation property suite pins incremental maintenance to
    the rebuilt result).  ``attach=True`` (default) leaves the log
    attached to the engine so new batches keep appending;
    ``engine_kwargs`` (``shards=…``, ``partitioner=…``, …) configure
    the rebuilt engine.
    """
    from repro.service.api import YaskEngine

    log = WriteAheadLog(
        directory, fsync=fsync, segment_bytes=segment_bytes, opener=opener
    )
    try:
        final_db, base_generation, generation, records, mutations, tokens = (
            _recovered_database(
                log.directory, database, opener, tolerate_torn_tail=False
            )
        )
        engine = YaskEngine(
            final_db,
            base_generation=generation,
            batch_tokens=tokens,
            **engine_kwargs,
        )
    except BaseException:
        log.close()
        raise
    if attach:
        engine.attach_wal(log)
    else:
        log.close()
    return engine, RecoveryReport(
        generation=engine.generation,
        snapshot_generation=base_generation,
        records_replayed=records,
        mutations_replayed=mutations,
        objects=len(engine.database),
    )


# ----------------------------------------------------------------------
# Followers (read replicas tailing the log)
# ----------------------------------------------------------------------
class FollowerEngine:
    """A read-only replica built by tailing a primary's log directory.

    The follower bootstraps exactly like recovery — snapshot (or seed
    database) plus replay — but *never writes*: it does not truncate
    torn tails (the primary may be mid-append; the torn record simply
    becomes visible on a later poll) and its engine has no log attached,
    so a stray mutation against it fails loudly.

    :meth:`poll` is cheap when nothing changed (one directory listing
    and one ``stat``), so the serving tier polls before every read.
    :meth:`read` honours the ``min_generation`` consistency token: a
    client that observed the primary acknowledge generation ``g`` can
    demand reads reflect at least ``g``, and gets a structured
    :class:`FollowerLagError` (HTTP 503) instead of stale data when the
    replica has not caught up.

    If the primary compacts away segments the follower has not read
    yet (its lag exceeded the snapshot cadence), polling detects the
    generation gap, confirms the manifest's snapshot has moved past the
    replica, and *re-bootstraps in place* from that newer snapshot —
    the engine object is swapped under the follower lock, no restart
    required.  :attr:`rebootstraps` counts these events; serving tiers
    holding a reference to :attr:`engine` must re-read the property
    after each poll (the HTTP server does).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        database: "SpatialDatabase | None" = None,
        opener: Opener = open,
        **engine_kwargs: Any,
    ) -> None:
        self._directory = Path(directory)
        if not self._directory.is_dir():
            raise WalError(
                f"no write-ahead log directory at {self._directory}"
            )
        # Follower file I/O gets its own injection prefix so chaos
        # plans can fail replica tailing without touching the primary.
        opener = faults.guarded_opener(opener, "follower.wal")
        self._opener = opener
        self._engine_kwargs = engine_kwargs
        # Below the engine lock: poll() holds it while replaying into
        # engine.apply_mutations (engine write lock, level 20).
        self._lock = concurrency.ordered_lock(
            "wal.follower", concurrency.LEVEL_FOLLOWER
        )
        from repro.service.api import YaskEngine

        final_db, self._base_generation, generation, applied, _, tokens = (
            _recovered_database(
                self._directory, database, opener, tolerate_torn_tail=True
            )
        )
        self._engine = YaskEngine(
            final_db,
            base_generation=generation,
            batch_tokens=tokens,
            **engine_kwargs,
        )
        self._records_applied = applied
        self._cursor: tuple[str, int] | None = None
        self.polls = 0
        self.poll_skips = 0
        self.rebootstraps = 0
        self.poll()

    @property
    def engine(self) -> "YaskEngine":
        """The replica engine — serve reads from it, never writes."""
        return self._engine

    @property
    def generation(self) -> int:
        return self._engine.generation

    @property
    def directory(self) -> Path:
        return self._directory

    def _tail_unchanged(self) -> bool:
        try:
            segments = _list_segments(self._directory)
        except OSError:
            return False
        if not segments:
            return self._cursor is None
        last = segments[-1]
        try:
            cursor = (last.name, last.stat().st_size)
        except OSError:
            return False
        if cursor == self._cursor:
            return True
        self._cursor = cursor
        return False

    def poll(self) -> int:
        """Apply any newly durable records; returns how many were applied.

        When the tail has a generation gap because the primary's
        compaction outran this replica, the follower re-bootstraps from
        the newer snapshot instead of dying: the return value then
        counts the generations the engine advanced, so callers that
        invalidate caches on ``applied > 0`` stay correct.
        """
        faults.trip("follower.poll")
        with self._lock:
            self.polls += 1
            if self._tail_unchanged():
                self.poll_skips += 1
                return 0
            try:
                applied, _ = replay_into(
                    self._engine,
                    read_records(
                        self._directory,
                        after=self._engine.generation,
                        opener=self._opener,
                        tolerate_torn_tail=True,
                    ),
                )
            except WalCorruptionError:
                snapshot_generation = _load_manifest(
                    self._directory, self._opener
                )["snapshot_generation"]
                if snapshot_generation <= self._engine.generation:
                    # Not compaction outrunning us — genuine damage.
                    raise
                applied = self._rebootstrap()
            self._records_applied += applied
            return applied

    def _rebootstrap(self) -> int:
        """Rebuild the replica engine from the newest snapshot, in place.

        Called under the follower lock when compaction removed the
        segments between the replica's generation and the primary's.
        Returns the number of generations advanced (always >= 1).
        """
        from repro.service.api import YaskEngine

        final_db, base_generation, generation, _, _, tokens = (
            _recovered_database(
                self._directory, None, self._opener, tolerate_torn_tail=True
            )
        )
        previous = self._engine
        before = previous.generation
        self._engine = YaskEngine(
            final_db,
            base_generation=generation,
            batch_tokens=tokens,
            **self._engine_kwargs,
        )
        self._base_generation = base_generation
        self.rebootstraps += 1
        previous.close()
        return max(1, generation - before)

    def read(
        self,
        query: "SpatialKeywordQuery",
        *,
        min_generation: int | None = None,
    ) -> tuple["QueryResult", int]:
        """Serve one top-k read, returning ``(result, generation)``.

        Polls first, then enforces the consistency token: the returned
        generation is taken under the same read lock as the query, so
        the pair is never torn — the result *is* that generation's
        answer.
        """
        self.poll()
        if (
            min_generation is not None
            and self._engine.generation < min_generation
        ):
            raise FollowerLagError(
                f"follower is at generation {self._engine.generation}; the "
                f"read requires at least {min_generation} — retry shortly"
            )
        # Nested read acquisition is safe by the ReadWriteLock's
        # readers-preference design; pairing generation and result under
        # one read view is what makes the token end-to-end sound.
        with self._engine.read_view():
            generation = self._engine.generation
            result = self._engine.query(query)
        return result, generation

    def to_dict(self) -> dict[str, Any]:
        """The ``durability`` section a follower server reports."""
        with self._lock:
            return {
                "enabled": True,
                "role": "follower",
                "directory": str(self._directory),
                "generation": self._engine.generation,
                "snapshot_generation": self._base_generation,
                "records_applied": self._records_applied,
                "polls": self.polls,
                "poll_skips": self.poll_skips,
                "rebootstraps": self.rebootstraps,
            }

    def close(self) -> None:
        self._engine.close()
