"""Buffer pool with steal/no-force policy and WAL enforcement.

Policy corners (Section 1.4 of the paper):

* **no-force** — commits do not write pages to disk; restart redo
  reapplies whatever was lost.
* **steal** — dirty pages may be written to disk (e.g. on eviction)
  before their transactions commit; undo removes them if needed.
* **WAL** — before a dirty page is written, the log is forced through
  the address just past the page's most recent update record (tracked
  in the BCB, Section 3.3).  While the pool's log owner is degraded its
  log device is down, so no such force can happen: a write that needs
  one raises :class:`DegradedModeError`, and eviction passes over the
  frames that would need one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.config import DEFAULT_BUFFER_POOL_PAGES, NULL_LSN
from repro.common.errors import (
    BufferPoolFullError,
    DegradedModeError,
    WALViolationError,
)
from repro.common.lsn import Lsn
from repro.common.seams import Seams
from repro.common.stats import BUFFER_BATCH_FLUSHES, DEGRADED_REJECTIONS
from repro.buffer.bcb import BufferControlBlock
from repro.faults import points as fp
from repro.obs import events as ev
from repro.storage.disk import SharedDisk
from repro.storage.page import Page
from repro.wal.log_manager import LogManager


class BufferPool:
    """LRU buffer pool over a shared disk, wired to a local log manager.

    ``on_before_write`` is an optional hook invoked with the BCB just
    before a page write reaches the disk; the SD coherency layer uses it
    to observe page migrations, and tests use it for fault injection.
    """

    def __init__(
        self,
        disk: SharedDisk,
        log: LogManager,
        capacity: int = DEFAULT_BUFFER_POOL_PAGES,
        enforce_wal: bool = True,
        on_before_write: Optional[Callable[[BufferControlBlock], None]] = None,
        seams: Optional[Seams] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("buffer pool needs at least one frame")
        self.disk = disk
        self.log = log
        self.capacity = capacity
        self.enforce_wal = enforce_wal
        self.on_before_write = on_before_write
        _, self.tracer, self._injector = seams or Seams.of()
        self._frames: "OrderedDict[int, BufferControlBlock]" = OrderedDict()
        #: Instant-restart seam: when set, called with the page id on
        #: every frame miss *before* the disk read, so a lazily
        #: recovered page's redo chain is applied to disk first
        #: (:mod:`repro.recovery.instant`).  ``None`` — the default —
        #: keeps the classic fix path byte-identical.
        self.recovery_intercept: Optional[Callable[[int], None]] = None
        #: The :class:`~repro.recovery.owner.LogOwner` this pool
        #: belongs to, which sets it; its ``degraded`` flag gates the
        #: WAL enforcement point.
        self.owner: Optional[Any] = None

    # ------------------------------------------------------------------
    # fixing
    # ------------------------------------------------------------------
    def fix(self, page_id: int) -> Page:
        """Pin ``page_id`` in the pool, reading it from disk on a miss."""
        bcb = self._frames.get(page_id)
        if bcb is None:
            if self.recovery_intercept is not None:
                self.recovery_intercept(page_id)
            self._make_room()
            page = self.disk.read_page(page_id)
            bcb = BufferControlBlock(page=page)
            self._frames[page_id] = bcb
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.PAGE_READ, system=self.log.system_id, page=page_id
                )
        self._frames.move_to_end(page_id)
        bcb.fix_count += 1
        return bcb.page

    def unfix(self, page_id: int) -> None:
        """Release one pin on ``page_id``."""
        # A hit skips the _require frame; only a miss calls it, to raise.
        bcb = self._frames.get(page_id) or self._require(page_id)
        if bcb.fix_count <= 0:
            raise ValueError(f"page {page_id} is not fixed")
        bcb.fix_count -= 1

    def install_page(self, page: Page, dirty: bool = True) -> Page:
        """Place a page into the pool *without a disk read*.

        Two callers: page reallocation (the formatted page never touches
        disk first — the optimization experiment E5 measures) and
        cross-system transfer in SD (the receiving pool gets the image
        directly).  The page arrives fixed once.
        """
        if page.page_id in self._frames:
            raise ValueError(f"page {page.page_id} already buffered")
        self._make_room()
        bcb = BufferControlBlock(page=page, dirty=dirty, fix_count=1)
        self._frames[page.page_id] = bcb
        return page

    def put_page(self, page: Page) -> None:
        """Replace (or install) a page's in-memory image, no disk I/O.

        The CS server uses this when a client ships a page back: the
        received image supersedes whatever the server had cached.
        """
        bcb = self._frames.get(page.page_id)
        if bcb is None:
            self._make_room()
            self._frames[page.page_id] = BufferControlBlock(page=page)
        else:
            bcb.page = page
        self._frames.move_to_end(page.page_id)

    def receive_dirty(self, page: Page, rec_lsn: Lsn, rec_addr: int,
                      last_update_end: int) -> None:
        """CS server receive path for a dirty page (Section 3.2.2).

        ``rec_addr`` is the server-log address the client's RecLSN maps
        to.  If the server *already* holds a dirty version, the old
        RecAddr is retained (the paper is explicit about this: the
        earlier dirtying is the redo bound).
        """
        self.put_page(page)
        bcb = self._frames[page.page_id]
        if not bcb.dirty:
            bcb.dirty = True
            bcb.rec_lsn = rec_lsn
            bcb.rec_addr = rec_addr
        bcb.last_update_end = max(bcb.last_update_end, last_update_end)

    # ------------------------------------------------------------------
    # update bookkeeping
    # ------------------------------------------------------------------
    def note_update(self, page_id: int, lsn: Lsn, record_offset: int,
                    record_end: int) -> None:
        """Tell the pool an update to ``page_id`` was just logged."""
        bcb = self._frames.get(page_id) or self._require(page_id)
        bcb.note_update(lsn, record_offset, record_end)

    def bcb(self, page_id: int) -> BufferControlBlock:
        """The BCB for a buffered page (introspection/tests)."""
        return self._require(page_id)

    def contains(self, page_id: int) -> bool:
        return page_id in self._frames

    def is_dirty(self, page_id: int) -> bool:
        bcb = self._frames.get(page_id)
        return bcb is not None and bcb.dirty

    # ------------------------------------------------------------------
    # writing (WAL enforcement point)
    # ------------------------------------------------------------------
    def write_page(self, page_id: int) -> None:
        """Force ``page_id`` to disk, honouring the WAL protocol."""
        bcb = self._require(page_id)
        if bcb.dirty and bcb.last_update_end:
            if not self.log.is_stable(bcb.last_update_end):
                owner = self.owner
                if owner is not None and owner.degraded:
                    self._refuse_force(page_id)
                if not self.enforce_wal:
                    raise WALViolationError(
                        f"page {page_id}: log not stable through "
                        f"offset {bcb.last_update_end} and WAL forcing disabled"
                    )
                self.log.force(up_to=bcb.last_update_end)
        self._write_stable(page_id, bcb)

    def _write_stable(self, page_id: int, bcb: BufferControlBlock) -> None:
        """Write a page whose WAL obligation is already satisfied.

        The per-page half of :meth:`write_page`: before-write hook,
        disk write, clean marking, trace — everything except the log
        force, which the batch lane pays once for a whole flush set.
        """
        if self.on_before_write is not None:
            self.on_before_write(bcb)
        if self._injector.enabled:
            # The classic crash window: WAL obligation satisfied, page
            # write about to hit the disk.
            self._injector.fire(
                fp.BUFFER_WRITE, system=self.log.system_id, page=page_id
            )
        self.disk.write_page(bcb.page)
        bcb.mark_clean()
        if self.tracer.enabled:
            self.tracer.emit(
                ev.PAGE_WRITE,
                system=self.log.system_id,
                page=page_id,
                page_lsn=int(bcb.page.page_lsn),
            )

    def flush_pages(self, page_ids: Iterable[int]) -> int:
        """Write a set of pages with one coalesced WAL force.

        The batch fast lane: where N ``write_page`` calls force the log
        N times (each through its own page's last-update boundary), a
        batch computes the set's maximum boundary and forces once —
        the deferred-force shape of every group-commit design.  Page
        writes themselves (``on_before_write`` hook included) still
        happen per page, in the order given.

        With ``enforce_wal`` disabled the whole batch is validated
        before any page touches disk, so a WAL violation surfaces with
        every page image intact; so is it while the owner is degraded,
        where a page that needs the force raises
        :class:`DegradedModeError`.  Returns the number of pages
        written.
        """
        ids = list(page_ids)
        frames = self._frames
        try:
            bcbs = [frames[page_id] for page_id in ids]
        except KeyError:
            bcbs = [self._require(page_id) for page_id in ids]
        boundaries: List[int] = []
        flushed = self.log.flushed_offset
        owner = self.owner
        degraded = owner is not None and owner.degraded
        for page_id, bcb in zip(ids, bcbs):
            if bcb.dirty and bcb.last_update_end:
                if bcb.last_update_end > flushed:
                    if not self.enforce_wal:
                        raise WALViolationError(
                            f"page {page_id}: log not stable through "
                            f"offset {bcb.last_update_end} and WAL "
                            "forcing disabled"
                        )
                    boundaries.append(bcb.last_update_end)
                    if degraded:
                        self._refuse_force(page_id)
        if boundaries:
            self.log.force_through(boundaries)
        if ids and self.on_before_write is None \
                and not self._injector.enabled and not self.tracer.enabled:
            # Slab fast lane: no hook, no fault point, no per-page
            # events to emit — the whole set rides one batched disk
            # call (same stored bytes and counter totals as the loop).
            self.disk.write_many([bcb.page for bcb in bcbs], page_ids=ids)
            for bcb in bcbs:
                # mark_clean(), inlined: the attribute stores are the
                # whole body and this loop rides the flush hot path.
                bcb.dirty = False
                bcb.rec_lsn = NULL_LSN
                bcb.rec_addr = None
                bcb.last_update_end = 0
        else:
            for page_id, bcb in zip(ids, bcbs):
                self._write_stable(page_id, bcb)
        if ids:
            self.log.stats.incr(BUFFER_BATCH_FLUSHES)
        return len(ids)

    def _refuse_force(self, page_id: int) -> None:
        """Reject writing ``page_id``: its log records are not stable,
        and the force that would make them so needs the log device the
        degraded owner has lost (Section 2, problem 2: a page reaches
        disk only after its log records do)."""
        owner = self.owner
        owner.stats.incr(DEGRADED_REJECTIONS)
        raise DegradedModeError(
            f"{owner._label()} is read-only (degraded): page {page_id} "
            f"needs a log force to be written")

    def flush_all(self) -> int:
        """Write every dirty page (quiesce / clean shutdown).

        Rides the batch lane: one log force covers the whole set.
        """
        return self.flush_pages(
            page_id for page_id, bcb in self._frames.items() if bcb.dirty
        )

    def drop_page(self, page_id: int, allow_dirty: bool = False) -> None:
        """Remove a page from the pool without writing it.

        The SD coherency protocol invalidates clean cached copies when
        another system takes a write lock; dropping a dirty page is only
        legal during crash simulation (``allow_dirty=True``).
        """
        bcb = self._frames.get(page_id)
        if bcb is None:
            return
        if bcb.dirty and not allow_dirty:
            raise ValueError(f"refusing to drop dirty page {page_id}")
        if bcb.fix_count and not allow_dirty:
            raise ValueError(f"refusing to drop fixed page {page_id}")
        del self._frames[page_id]

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _make_room(self) -> None:
        if len(self._frames) < self.capacity:
            return
        owner = self.owner
        degraded = owner is not None and owner.degraded
        refused = None
        # reprolint: disable=R012 -- LRU order IS insertion order here;
        # the dict sequence is deterministic and sorting would change
        # the eviction policy.
        for page_id, bcb in self._frames.items():  # LRU order
            if bcb.fix_count == 0:
                was_dirty = bcb.dirty
                if was_dirty:
                    if degraded and bcb.last_update_end and \
                            not self.log.is_stable(bcb.last_update_end):
                        # Writing it would force the lost log device.
                        refused = page_id
                        continue
                    self.write_page(page_id)
                del self._frames[page_id]
                if self.tracer.enabled:
                    self.tracer.emit(
                        ev.PAGE_EVICT,
                        system=self.log.system_id,
                        page=page_id,
                        dirty=was_dirty,
                    )
                return
        if refused is not None:
            self._refuse_force(refused)
        raise BufferPoolFullError(
            f"all {self.capacity} frames fixed; cannot evict"
        )

    # ------------------------------------------------------------------
    # checkpoint & crash support
    # ------------------------------------------------------------------
    def dirty_page_table(self) -> Dict[int, Tuple[Lsn, int]]:
        """``{page_id: (RecLSN, RecAddr)}`` for every dirty page.

        This is the buffer-pool summary a checkpoint records
        (Section 3.2.2); restart redo starts at the minimum RecAddr.
        """
        table: Dict[int, Tuple[Lsn, int]] = {}
        for page_id, bcb in self._frames.items():
            if bcb.dirty:
                table[page_id] = (bcb.rec_lsn, bcb.rec_addr or 0)
        return table

    def crash(self) -> None:
        """Lose the entire pool (system failure)."""
        self._frames.clear()

    def pages(self) -> Iterator[BufferControlBlock]:
        return iter(self._frames.values())

    def __len__(self) -> int:
        return len(self._frames)

    def _require(self, page_id: int) -> BufferControlBlock:
        bcb = self._frames.get(page_id)
        if bcb is None:
            raise KeyError(f"page {page_id} is not buffered")
        return bcb

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dirty = sum(1 for b in self._frames.values() if b.dirty)
        return (
            f"BufferPool(frames={len(self._frames)}/{self.capacity}, "
            f"dirty={dirty})"
        )
