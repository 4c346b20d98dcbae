"""Local log manager with USN-style LSN assignment.

This class is the paper's Section 3.2.1 algorithm.  On every append the
log manager assigns

    ``LSN = max(page_LSN passed by the updater, Local_Max_LSN) + 1``

which guarantees (a) LSNs are strictly increasing *within this log*
across records for different pages, and (b) the LSN sequence *per page*
is strictly increasing across the whole multi-system complex — because
any system that updates a page after us sees our LSN in the page header
and is pushed above it.

``Local_Max_LSN`` additionally absorbs maxima received from other
systems (:meth:`observe_remote_max`), the Lamport-clock exchange of
Section 3.5 that keeps LSNs close together across systems so the
Commit_LSN optimization stays effective.

The log itself is a byte-faithful append-only buffer of serialized
records with an explicit stable-storage boundary; :meth:`crash`
discards the unflushed tail, exactly what a power failure does.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.config import NULL_LSN
from repro.common.lsn import LogAddress, Lsn, addresses_for
from repro.common.seams import Seams
from repro.common.stats import (
    LOG_ARCHIVE_SCANS,
    LOG_BYTES_ARCHIVED,
    LOG_BYTES_SCANNED,
    LOG_BYTES_WRITTEN,
    LOG_FORCES,
    LOG_FORCES_COALESCED,
    LOG_RECORDS_WRITTEN,
)
from repro.faults import points as fp
from repro.obs import events as ev
from repro.wal.records import (
    LogRecord,
    record_spans,
    stamp_and_encode,
    stamp_and_encode_batch,
)


class LogManager:
    """One system's local log (SD) or the server's single log (CS)."""

    def __init__(self, system_id: int,
                 seams: Optional[Seams] = None) -> None:
        self.system_id = system_id
        self.stats, self.tracer, self._injector = seams or Seams.of()
        # Pre-resolved counter handles: the append path bumps these on
        # every record, so skipping the registry's string hashing there
        # is the cheapest real win in the whole hot lane.
        self._records_written = self.stats.handle(LOG_RECORDS_WRITTEN)
        self._bytes_written = self.stats.handle(LOG_BYTES_WRITTEN)
        self._bytes_scanned = self.stats.handle(LOG_BYTES_SCANNED)
        self._forces = self.stats.handle(LOG_FORCES)
        self._buffer = bytearray()
        self._flushed_len = 0
        self.local_max_lsn: Lsn = NULL_LSN
        # Byte offset of the BEGIN_CHECKPOINT record of the most recent
        # *completed* checkpoint.  Models the WAL "master record" kept
        # on stable storage, so it survives :meth:`crash` — but callers
        # must only set it after forcing the checkpoint records.
        self.master_record_offset: Optional[int] = None
        # Everything before this offset has been moved to archive
        # storage (image-copy tapes in 1992 terms).  Restart recovery
        # never needs it; media recovery may, and such reads are
        # counted separately.  Offsets remain stable across archiving.
        self.archived_offset = 0

    # ------------------------------------------------------------------
    # LSN assignment (the paper's core algorithm)
    # ------------------------------------------------------------------
    def next_lsn(self, page_lsn: Lsn = NULL_LSN) -> Lsn:
        """The LSN the next append would be assigned, without appending."""
        return max(page_lsn, self.local_max_lsn) + 1

    def append(self, record: LogRecord, page_lsn: Lsn = NULL_LSN) -> LogAddress:
        """Assign an LSN to ``record`` and append it to the log.

        ``page_lsn`` is the current page_LSN of the page being updated
        (the updater "passes to the log manager the page_LSN value").
        For records not tied to a page (commit, checkpoint) the default
        NULL_LSN makes the rule degenerate to ``Local_Max_LSN + 1``.

        Returns the record's logical :class:`LogAddress`; the assigned
        LSN is stamped into ``record.lsn``.
        """
        system_id = self.system_id
        local_max = self.local_max_lsn
        lsn = (page_lsn if page_lsn > local_max else local_max) + 1
        # Encode first: a record that does not fit its kind's header
        # shape raises before the clock moves.
        data = stamp_and_encode(record, lsn, system_id)
        self.local_max_lsn = lsn
        offset = self._append_bytes(data)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.LOG_APPEND,
                system=system_id,
                lsn=int(lsn),
                kind=record.kind.name,
                txn=record.txn_id,
                page=record.page_id,
                offset=offset,
            )
        return LogAddress(system_id, offset)

    def append_many(
        self,
        records: Sequence[LogRecord],
        page_lsns: Optional[Sequence[Lsn]] = None,
        prev_lsn: Optional[Lsn] = None,
    ) -> List[LogAddress]:
        """Batch form of :meth:`append` — the WAL fast lane.

        Semantically identical to calling :meth:`append` once per
        record (same LSN assignment, same stamped fields, same trace
        events when tracing is on), but the batch serializes into the
        log buffer with a single extend and bumps each counter once,
        so large batches approach the cost of the serialization alone.

        ``page_lsns`` optionally carries one page_LSN per record (the
        value the updater would have passed to :meth:`append`); omitted
        it defaults to NULL_LSN for every record, the common shape for
        control/filler batches.  ``prev_lsn`` optionally chains the
        batch as one transaction's records: the first record's
        ``prev_lsn`` becomes it, each later one's the LSN stamped on the
        record before, so the caller need not predict LSNs.
        """
        if page_lsns is not None and len(page_lsns) != len(records):
            raise ValueError(
                f"append_many: {len(records)} records but "
                f"{len(page_lsns)} page_lsns"
            )
        if not records:
            return []
        system_id = self.system_id
        parts, lsn = stamp_and_encode_batch(
            records, self.local_max_lsn, system_id, page_lsns, prev_lsn
        )
        offset = len(self._buffer)
        offsets: List[int] = []
        note_offset = offsets.append
        for data in parts:
            note_offset(offset)
            offset += len(data)
        self.local_max_lsn = lsn
        blob = b"".join(parts)
        self._buffer += blob
        self._records_written.bump(len(records))
        self._bytes_written.bump(len(blob))
        if self.tracer.enabled:
            for record, record_offset in zip(records, offsets):
                self.tracer.emit(
                    ev.LOG_APPEND,
                    system=system_id,
                    lsn=int(record.lsn),
                    kind=record.kind.name,
                    txn=record.txn_id,
                    page=record.page_id,
                    offset=record_offset,
                )
        return addresses_for(system_id, offsets)

    def append_raw(self, data: bytes) -> int:
        """Append pre-serialized records verbatim (CS server path);
        returns the byte offset they start at.

        The server "appends them, as they are, to its log file"
        (Section 3.1): LSNs inside the shipped records are untouched.
        ``Local_Max_LSN`` still absorbs the maximum seen so the server's
        own control records sort above everything it has stored.
        """
        return self.append_parsed(data, max(
            (lsn for lsn, _, _ in record_spans(data)), default=NULL_LSN))

    def append_parsed(self, data: bytes, max_lsn: Lsn) -> int:
        """:meth:`append_raw` for a caller that already parsed ``data``
        and knows the highest LSN in it (the standby parses each shipped
        record once, for its duplicate screen and redo test).
        """
        if max_lsn > self.local_max_lsn:
            self.local_max_lsn = max_lsn
        offset = self._append_bytes(data, count_records=False)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.LOG_APPEND_RAW,
                system=self.system_id,
                nbytes=len(data),
                local_max=int(self.local_max_lsn),
            )
        return offset

    def _append_bytes(self, data: bytes, count_records: bool = True) -> int:
        """Append ``data``; returns the byte offset it starts at."""
        offset = len(self._buffer)
        self._buffer += data
        if count_records:
            self._records_written.value += 1
        self._bytes_written.value += len(data)
        return offset

    def observe_remote_max(self, remote_max_lsn: Lsn) -> None:
        """Lamport merge of another system's Local_Max_LSN (Section 3.5)."""
        before = self.local_max_lsn
        if remote_max_lsn > self.local_max_lsn:
            self.local_max_lsn = remote_max_lsn
        if self.tracer.enabled:
            self.tracer.emit(
                ev.LSN_OBSERVE,
                system=self.system_id,
                remote=int(remote_max_lsn),
                before=int(before),
                after=int(self.local_max_lsn),
            )

    # ------------------------------------------------------------------
    # stable storage boundary
    # ------------------------------------------------------------------
    @property
    def end_offset(self) -> int:
        """Current end-of-log byte offset (one past the last record)."""
        return len(self._buffer)

    @property
    def flushed_offset(self) -> int:
        """Bytes of log on stable storage."""
        return self._flushed_len

    def force(self, up_to: Optional[int] = None) -> None:
        """Flush the log to stable storage through byte offset ``up_to``
        (default: everything).  Counts one log-force I/O when the
        boundary actually advances — repeated forces of already-stable
        prefixes are free, as in real group-commit implementations.
        """
        target = len(self._buffer) if up_to is None else min(up_to, len(self._buffer))
        if target > self._flushed_len:
            if self.tracer.enabled:
                # Guarded span: the kwargs dict and handle are only
                # built when tracing — force is on the commit hot path.
                with self.tracer.span(
                    ev.SPAN_LOG_FORCE, system=self.system_id, up_to=target
                ):
                    self._advance_stable(target)
            else:
                self._advance_stable(target)

    def _advance_stable(self, target: int) -> None:
        """Advance the stable boundary to ``target`` (> current)."""
        if self._injector.enabled:
            # Consulted only when a real device write would happen,
            # and before the stable boundary moves: an injected
            # log-device failure leaves the log exactly as it was.
            self._injector.fire(
                fp.LOG_FORCE, system=self.system_id, up_to=target
            )
        self._flushed_len = target
        self._forces.bump()
        if self.tracer.enabled:
            self.tracer.emit(
                ev.LOG_FORCE, system=self.system_id, up_to=target
            )

    def force_through(self, offsets: Iterable[int]) -> int:
        """Coalesce a set of force requests into one stable write.

        Group commit / batch flush lane: each offset in ``offsets`` is
        a boundary some caller needs stable — on the slow path each
        not-yet-stable boundary would have cost its own
        :meth:`force`.  Here all pending requests are satisfied by a
        single force through the maximum boundary; every request
        beyond the first that actually needed I/O is counted as
        coalesced (``LOG_FORCES_COALESCED``).

        Returns the number of force requests coalesced away (0 when
        nothing was pending or only one request needed the write).
        """
        flushed = self._flushed_len
        pending = [offset for offset in offsets if offset > flushed]
        if not pending:
            return 0
        coalesced = len(pending) - 1
        if coalesced:
            self.stats.incr(LOG_FORCES_COALESCED, coalesced)
        self.force(up_to=max(pending))
        return coalesced

    def is_stable(self, offset_end: int) -> bool:
        """Is every byte before ``offset_end`` on stable storage?"""
        return offset_end <= self._flushed_len

    # ------------------------------------------------------------------
    # archiving (active-log truncation)
    # ------------------------------------------------------------------
    @property
    def active_bytes(self) -> int:
        """Bytes still on the active log device (not yet archived)."""
        return len(self._buffer) - self.archived_offset

    def archive_up_to(self, offset: int) -> int:
        """Move the stable prefix before ``offset`` to archive storage.

        The caller (see :func:`repro.recovery.checkpoint.archive_log`)
        must have established that restart recovery can never need the
        prefix: it lies before the last checkpoint's BEGIN record, every
        dirty page's RecAddr and every active transaction's first
        record.  Returns the bytes newly archived.
        """
        if offset > self._flushed_len:
            raise ValueError("cannot archive unforced log")
        moved = max(0, offset - self.archived_offset)
        if moved:
            self.archived_offset = offset
            self.stats.incr(LOG_BYTES_ARCHIVED, moved)
        return moved

    # ------------------------------------------------------------------
    # failure & scanning
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose the volatile tail, keeping only the flushed prefix."""
        del self._buffer[self._flushed_len:]

    def recover_local_max(self) -> Lsn:
        """Rebuild Local_Max_LSN from the log after a restart.

        A restarted system must not assign LSNs below ones it already
        wrote; scanning the stable log for the maximum reinitialises the
        Lamport clock.  (Remote maxima re-arrive via normal traffic.)
        The scan starts at the last completed checkpoint: its
        BEGIN_CHECKPOINT record was stamped ``Local_Max_LSN + 1`` by
        :meth:`append`, so it dominates every earlier record —
        :meth:`append_raw`'d client batches included, whose LSNs do not
        increase along the log.  Without a checkpoint the active portion
        is scanned; the archive is consulted only if that is empty.
        """
        start = max(self.archived_offset, self.master_record_offset or 0)
        maximum = self._max_lsn_from(start)
        if maximum == NULL_LSN and start:
            maximum = self._max_lsn_from(0)
        self.local_max_lsn = maximum
        return maximum

    def _max_lsn_from(self, offset: int) -> Lsn:
        spans = record_spans(self._scan_bytes(offset))
        return max((lsn for lsn, _, _ in spans), default=NULL_LSN)

    def scan(
        self,
        from_offset: int = 0,
        include_unflushed: bool = True,
    ) -> Iterator[Tuple[LogAddress, LogRecord]]:
        """Yield ``(address, record)`` in log order from ``from_offset``.

        Restart recovery scans the stable prefix only
        (``include_unflushed=False`` after :meth:`crash` is a no-op
        distinction, but live invariant checks use it).
        """
        data = self._scan_bytes(
            from_offset,
            len(self._buffer) if include_unflushed else self._flushed_len)
        system_id = self.system_id
        offset = 0
        length = len(data)
        while offset < length:
            record, offset_next = LogRecord.from_bytes(data, offset)
            yield LogAddress(system_id, from_offset + offset), record
            offset = offset_next

    def _scan_bytes(self, from_offset: int, end: Optional[int] = None) -> bytes:
        """The log bytes a scan from ``from_offset`` to ``end`` (default:
        the end of the log) reads, counted as that scan."""
        if end is None:
            end = len(self._buffer)
        if from_offset < self.archived_offset:
            # The scan reaches into archived territory (media recovery
            # fetching the tapes); account for it.
            self.stats.incr(LOG_ARCHIVE_SCANS)
        if from_offset >= end:
            return b""
        return self._read_window(from_offset, end)

    def _read_window(self, from_offset: int, end: int) -> bytes:
        """One counted copy of the log bytes in ``[from_offset, end)``
        (appends during a scan may resize the live buffer)."""
        self._bytes_scanned.bump(end - from_offset)
        with memoryview(self._buffer) as view:
            return bytes(view[from_offset:end])

    def read_stable(self, from_offset: int) -> bytes:
        """The forced log bytes from ``from_offset`` on, verbatim.

        The log shipper's read: only forced records may leave the
        primary, and they leave as the bytes the log holds.  Whole
        records when ``from_offset`` is a record boundary — the stable
        boundary always is one.
        """
        if from_offset >= self._flushed_len:
            return b""
        return self._read_window(from_offset, self._flushed_len)

    def read_record_at(self, offset: int) -> LogRecord:
        """Parse the single record starting at byte ``offset``.

        Zero-copy: the record is parsed straight out of the live log
        buffer through a short-lived memoryview instead of snapshotting
        the whole log for one record (recovery's redo pass calls this
        in a loop).
        """
        with memoryview(self._buffer) as view:
            record, _ = LogRecord.from_bytes(view, offset)
        return record

    def record_count(self) -> int:
        """Total records currently in the log (including unflushed)."""
        return len(record_spans(self._scan_bytes(0)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LogManager(system={self.system_id}, bytes={len(self._buffer)}, "
            f"flushed={self._flushed_len}, local_max_lsn={self.local_max_lsn})"
        )
