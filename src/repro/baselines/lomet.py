"""Lomet's multi-log recovery scheme [Lome90] as a baseline.

Lomet's design (paper Section 4.2):

* each **page** has a private LSN sequence: every update sets
  ``page_LSN = previous + 1``;
* each log record stores the page's LSN *before* the update — the
  before-state identifier (**BSI**) — and redo applies a record iff
  ``page_LSN == BSI``;
* to keep the per-page sequence alive across deallocation, the space
  map entry for a deallocated page must store the page's **exact full
  LSN** (47–63× the 1-bit DB2 entry, depending on 6- vs 8-byte LSNs);
* merging local logs needs both the page number and the LSN compared,
  because a local log is not LSN-sorted;
* mass delete must discover every emptied page's current LSN, forcing
  a read of each page.

This module implements the scheme faithfully enough to *recover
correctly* — the point of the comparison is not that Lomet is wrong
(it isn't) but that it is more expensive on exactly the axes
experiments E3–E6 measure.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.buffer.buffer_pool import BufferPool
from repro.common.config import NULL_LSN
from repro.common.errors import ReproError
from repro.common.lsn import LogAddress, Lsn
from repro.common.seams import Seams
from repro.common.stats import StatsRegistry
from repro.storage.disk import SharedDisk
from repro.storage.image_copy import ImageCopy
from repro.storage.page import Page, PageType
from repro.storage.space_map import LometSpaceMap, format_volume
from repro.wal.log_manager import LogManager
from repro.wal.merge import lomet_merge
from repro.wal.records import (
    LogRecord,
    PageOp,
    RecordKind,
    encode_op,
    encode_overwrite,
)
from repro.recovery.apply import apply_redo, stamp_page_lsn

_BSI_BYTES = 8


def bsi_of(record: LogRecord) -> Lsn:
    """The before-state identifier carried in a Lomet log record."""
    return int.from_bytes(record.extra[:_BSI_BYTES], "little")


class LometLogManager(LogManager):
    """Per-page LSN assignment: new LSN = page's previous LSN + 1.

    The record's ``extra`` field stores the BSI.  Note the consequence
    the paper highlights: successive records in this log, relating to
    different pages, may have lower as well as higher LSNs — there is
    no log-wide monotonicity to merge by.
    """

    def append(self, record: LogRecord, page_lsn: Lsn = NULL_LSN) -> LogAddress:
        record.extra = page_lsn.to_bytes(_BSI_BYTES, "little")
        record.lsn = page_lsn + 1
        record.system_id = self.system_id
        if record.lsn > self.local_max_lsn:
            self.local_max_lsn = record.lsn
        offset = self._append_bytes(record.to_bytes())
        return LogAddress(self.system_id, offset)

    def observe_remote_max(self, remote_max_lsn: Lsn) -> None:
        """Lomet's scheme has no cross-system LSN exchange."""


class LometComplex:
    """Shared disk + Lomet space map shared by several systems."""

    def __init__(
        self,
        n_data_pages: int = 2048,
        data_start: int = 64,
        smp_start: int = 1,
        lsn_bytes: int = 8,
    ) -> None:
        self.seams = Seams.of()
        self.stats = self.seams.stats
        self.disk = SharedDisk(data_start + n_data_pages + 64, self.seams)
        self.space_map = LometSpaceMap(
            smp_start=smp_start, data_start=data_start,
            n_data_pages=n_data_pages, lsn_bytes=lsn_bytes,
        )
        self.systems: Dict[int, "LometSystem"] = {}
        format_volume(self.disk, self.space_map)

    def add_system(self, system_id: int, **kwargs) -> "LometSystem":
        if system_id in self.systems:
            raise ReproError(f"system {system_id} already exists")
        system = LometSystem(system_id, self, **kwargs)
        self.systems[system_id] = system
        return system

    def local_logs(self) -> List[LogManager]:
        return [system.log for system in self.systems.values()]


class LometSystem:
    """One system running the Lomet scheme.

    Pages move between systems by forcing to disk first (the medium
    transfer scheme again), handled here by simply writing after every
    operation sequence via :meth:`flush` — the Lomet experiments are
    about logging/space/merge costs, not buffer coherency, so the
    engine keeps page handling deliberately minimal while remaining
    recovery-correct.
    """

    def __init__(self, system_id: int, complex_: LometComplex,
                 buffer_capacity: int = 128) -> None:
        self.system_id = system_id
        self.complex = complex_
        self.stats = complex_.stats
        self.log = LometLogManager(system_id, complex_.seams)
        self.pool = BufferPool(complex_.disk, self.log,
                               capacity=buffer_capacity, seams=complex_.seams)

    # ------------------------------------------------------------------
    # data operations
    # ------------------------------------------------------------------
    def insert(self, page_id: int, payload: bytes) -> int:
        page = self.pool.fix(page_id)
        try:
            slot = page.insert_record(payload)
            self._log(page, RecordKind.UPDATE, slot,
                      redo=encode_op(PageOp.INSERT, payload),
                      undo=encode_op(PageOp.DELETE))
            return slot
        finally:
            self.pool.unfix(page_id)

    def update(self, page_id: int, slot: int, payload: bytes) -> None:
        page = self.pool.fix(page_id)
        try:
            old = page.read_record(slot)
            if old is None:
                raise ReproError(f"page {page_id} slot {slot} is empty")
            page.update_record(slot, payload)
            redo, undo = encode_overwrite(old, payload)
            self._log(page, RecordKind.UPDATE, slot, redo=redo, undo=undo)
        finally:
            self.pool.unfix(page_id)

    def _log(self, page: Page, kind: RecordKind, slot: int,
             redo: bytes, undo: bytes = b"") -> LogRecord:
        record = LogRecord(kind=kind, page_id=page.page_id, slot=slot,
                           redo=redo, undo=undo)
        addr = self.log.append(record, page_lsn=page.page_lsn)
        stamp_page_lsn(page, record.lsn)
        self.pool.note_update(page.page_id, record.lsn, addr.offset,
                              self.log.end_offset)
        return record

    # ------------------------------------------------------------------
    # allocation — where Lomet pays (Section 4.2)
    # ------------------------------------------------------------------
    def allocate_page(self, page_type: PageType = PageType.DATA,
                      page_id: Optional[int] = None) -> int:
        """Reallocate a page using the SMP-stored exact LSN.

        Like the paper's scheme, no data-page read happens *here*; the
        cost was paid at deallocation time, when the exact LSN had to be
        captured into the (huge) SMP entry.
        """
        geometry = self.complex.space_map
        chosen = page_id if page_id is not None else self._find_free_page()
        if chosen is None:
            raise ReproError("no free pages left")
        slot = geometry.slot_for(chosen)
        smp_page = self.pool.fix(slot.smp_page_id)
        try:
            allocated, dealloc_lsn = geometry.read_entry(smp_page, slot.index)
            if allocated:
                raise ReproError(f"page {chosen} is already allocated")
            geometry.write_allocated(smp_page, slot.index)
            self._log(smp_page, RecordKind.SMP_UPDATE, 0,
                      redo=encode_op(PageOp.NOOP))
        finally:
            self.pool.unfix(slot.smp_page_id)
        fmt = LogRecord(kind=RecordKind.FORMAT_PAGE, page_id=chosen,
                        redo=encode_op(PageOp.FORMAT, bytes([int(page_type)])))
        addr = self.log.append(fmt, page_lsn=dealloc_lsn)
        fresh = Page()
        fresh.format(chosen, page_type, page_lsn=fmt.lsn)
        if self.pool.contains(chosen):
            # A stale buffered copy of the dead page may remain, even
            # dirty; its content is moot once deallocated.
            self.pool.drop_page(chosen, allow_dirty=True)
        self.pool.install_page(fresh, dirty=False)
        self.pool.note_update(chosen, fmt.lsn, addr.offset,
                              self.log.end_offset)
        self.pool.unfix(chosen)
        return chosen

    def deallocate_page(self, page_id: int) -> None:
        """Deallocation must capture the page's exact current LSN."""
        geometry = self.complex.space_map
        slot = geometry.slot_for(page_id)
        page = self.pool.fix(page_id)  # must see the page to know its LSN
        try:
            exact_lsn = page.page_lsn
        finally:
            self.pool.unfix(page_id)
        smp_page = self.pool.fix(slot.smp_page_id)
        try:
            geometry.write_deallocated(smp_page, slot.index, exact_lsn)
            self._log(smp_page, RecordKind.SMP_UPDATE, 0,
                      redo=encode_op(PageOp.NOOP))
        finally:
            self.pool.unfix(slot.smp_page_id)

    def mass_delete(self, page_ids: Iterable[int]) -> Tuple[int, int]:
        """Empty many pages at once.

        Unlike the DB2/USN fast path, every page must be **read** so
        its exact LSN can be recorded in the space map, and one SMP
        entry is written (and logged) per page.  Returns ``(page_reads,
        log_records)`` for experiment E6.
        """
        page_reads = 0
        log_records = 0
        for page_id in sorted(set(page_ids)):
            if not self.pool.contains(page_id):
                page_reads += 1
            self.deallocate_page(page_id)
            log_records += 1
        return page_reads, log_records

    def _find_free_page(self) -> Optional[int]:
        geometry = self.complex.space_map
        for smp_page_id in geometry.smp_page_ids():
            smp_page = self.pool.fix(smp_page_id)
            try:
                first_page_id, limit = geometry.coverage(smp_page_id)
                index = geometry.first_free(smp_page, limit)
                if index is not None:
                    return first_page_id + index
            finally:
                self.pool.unfix(smp_page_id)
        return None

    def flush(self) -> None:
        self.pool.flush_all()


# ----------------------------------------------------------------------
# Lomet media recovery: redo iff page_LSN == BSI
# ----------------------------------------------------------------------
def lomet_recover_page(
    page_id: int,
    image_copy: Optional[ImageCopy],
    logs: Iterable[LogManager],
    stats: Optional[StatsRegistry] = None,
) -> Page:
    """Rebuild a page under Lomet's redo test, from the (page, LSN)
    merged stream."""
    if image_copy is not None and image_copy.has_page(page_id):
        page = image_copy.restore_page(page_id)
    else:
        page = Page()
        page.format(page_id, PageType.FREE)
    for _, record in lomet_merge(logs, stats=stats):
        if record.page_id != page_id:
            continue
        if page.page_lsn == bsi_of(record):
            apply_redo(page, record)
    return page
