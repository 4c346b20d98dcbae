"""VAXcluster-style single global log (paper Section 4.1).

DEC's VAX DBMS / Rdb/VMS kept **one global log on a shared disk** for
all systems.  Every transfer of records into the global log requires a
global lock to serialize space allocation — "acquiring a global lock
involves sending and receiving messages."  To amortize that, each
transaction first fills a process-private buffer, then moves records to
a per-system log cache, and only a log force (commit, or WAL before a
page write) pays the global lock.

Consequences the paper points out, both modelled here:

* the scheme works only because of **force-before-commit** (modified
  pages go to disk before commit is logged) and purely physical
  logging — cached records from two transactions on one system can
  reach the global log out of update order;
* every commit costs a global-lock round trip, which the USN scheme's
  private local logs avoid entirely (experiment E10).
"""

from __future__ import annotations

from typing import Dict, List

from repro.buffer.buffer_pool import BufferPool
from repro.common.errors import ReproError
from repro.common.seams import Seams
from repro.common.stats import (
    GLOBAL_LOG_LOCK_MESSAGES,
    GLOBAL_LOG_LOCKS,
    MESSAGES_SENT,
)
from repro.storage.disk import SharedDisk
from repro.storage.page import Page, PageType
from repro.wal.log_manager import LogManager
from repro.wal.records import (
    LogRecord,
    PageOp,
    RecordKind,
    encode_op,
    encode_overwrite,
)


class _GlobalLog:
    """The single shared log file, guarded by a global lock."""

    def __init__(self, seams: Seams) -> None:
        self.stats = seams.stats
        self.log = LogManager(0, seams)

    def transfer(self, from_system: int, records: List[LogRecord]) -> None:
        """Move a system's cached records into the global log.

        One global-lock acquisition (two messages: request + grant) per
        transfer, regardless of how many records move — that is the
        amortization the VAX scheme relies on, and it is still one lock
        per force.
        """
        self.stats.incr(GLOBAL_LOG_LOCKS)
        self.stats.incr(MESSAGES_SENT, 2)
        self.stats.incr(GLOBAL_LOG_LOCK_MESSAGES, 2)
        for record in records:
            self.log.append(record)
        self.log.force()


class GlobalLogComplex:
    """A small SD complex whose systems share one global log."""

    def __init__(
        self,
        n_data_pages: int = 1024,
        data_start: int = 8,
    ) -> None:
        self.seams = Seams.of()
        self.stats = self.seams.stats
        self.disk = SharedDisk(data_start + n_data_pages, self.seams)
        self.global_log = _GlobalLog(self.seams)
        self.systems: Dict[int, "GlobalLogSystem"] = {}
        self.data_start = data_start
        self.n_data_pages = n_data_pages

    def add_system(self, system_id: int) -> "GlobalLogSystem":
        if system_id in self.systems:
            raise ReproError(f"system {system_id} already exists")
        system = GlobalLogSystem(system_id, self)
        self.systems[system_id] = system
        return system

    def format_page(self, page_id: int) -> None:
        """Utility pre-format (allocation is out of scope here)."""
        page = Page()
        page.format(page_id, PageType.DATA)
        self.disk.write_page(page)


class GlobalLogSystem:
    """One system: private log cache, force-before-commit policy."""

    def __init__(self, system_id: int, complex_: GlobalLogComplex) -> None:
        self.system_id = system_id
        self.complex = complex_
        self.stats = complex_.stats
        # A throwaway local log manager exists only to satisfy the
        # buffer pool's WAL plumbing; the force path is overridden by
        # the force-before-commit discipline below.
        self._wal_stub = LogManager(system_id, complex_.seams)
        self.pool = BufferPool(complex_.disk, self._wal_stub, capacity=64,
                               seams=complex_.seams)
        self._log_cache: List[LogRecord] = []
        self._txn_dirty: Dict[int, List[int]] = {}
        self._usn = 0  # their page "USN" used only for buffer coherency

    # ------------------------------------------------------------------
    def update(self, txn_id: int, page_id: int, slot: int,
               payload: bytes) -> None:
        """Update a record; the log record goes to the local cache."""
        page = self.pool.fix(page_id)
        try:
            old = page.read_record(slot)
            if old is None:
                raise ReproError(f"page {page_id} slot {slot} is empty")
            page.update_record(slot, payload)
            self._usn += 1
            # reprolint: disable=R001 -- baseline abuses page_lsn as a
            # coherency USN; its recovery never consults the field.
            page.page_lsn = self._usn
            redo, undo = encode_overwrite(old, payload)
            record = LogRecord(
                kind=RecordKind.UPDATE, txn_id=txn_id,
                page_id=page_id, slot=slot, redo=redo, undo=undo,
            )
            self._log_cache.append(record)
            self.pool.bcb(page_id).dirty = True
            self._txn_dirty.setdefault(txn_id, []).append(page_id)
        finally:
            self.pool.unfix(page_id)

    def insert(self, txn_id: int, page_id: int, payload: bytes) -> int:
        page = self.pool.fix(page_id)
        try:
            slot = page.insert_record(payload)
            self._usn += 1
            # reprolint: disable=R001 -- coherency USN, as in update().
            page.page_lsn = self._usn
            record = LogRecord(
                kind=RecordKind.UPDATE, txn_id=txn_id,
                page_id=page_id, slot=slot,
                redo=encode_op(PageOp.INSERT, payload),
                undo=encode_op(PageOp.DELETE),
            )
            self._log_cache.append(record)
            self.pool.bcb(page_id).dirty = True
            self._txn_dirty.setdefault(txn_id, []).append(page_id)
            return slot
        finally:
            self.pool.unfix(page_id)

    def commit(self, txn_id: int) -> None:
        """Force-before-commit: flush the transaction's pages to disk,
        then force the cached records plus the commit record to the
        global log (one global lock)."""
        for page_id in sorted(set(self._txn_dirty.pop(txn_id, []))):
            if self.pool.contains(page_id) and self.pool.is_dirty(page_id):
                self.pool.write_page(page_id)
        self._log_cache.append(
            LogRecord(kind=RecordKind.COMMIT, txn_id=txn_id)
        )
        self.complex.global_log.transfer(self.system_id, self._log_cache)
        self._log_cache = []
