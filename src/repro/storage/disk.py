"""Simulated shared disk.

One :class:`SharedDisk` instance plays the role of the disk farm in
Figure 1: in the shared-disks architecture every DBMS instance reads and
writes it directly; in client-server only the server touches it.

The disk maintains CRC32 checksums on write and verifies them on read,
counts I/Os in its world's :class:`~repro.common.stats.StatsRegistry`,
emits disk-level trace events through the world's tracer (both from
the one ``seams`` argument, :mod:`repro.common.seams`), and offers
fault hooks on two levels: the ad-hoc :meth:`lose_page` /
:meth:`corrupt_page` pokes the media-recovery experiment (E9) uses,
and the world's plan-driven fault injector (:mod:`repro.faults`) consulted
at the ``disk.write`` / ``disk.read`` fault points — a torn write
persists a half-old/half-new image whose checksum check fails on the
next read, exactly how real torn writes are discovered.

Pages live in large fixed-size ``bytearray`` extents (the slab); each
stored page is addressed through cached ``memoryview`` windows (full
image, checksum head, checksum tail).  A write is one copy into the
window plus an in-place ``pack_into`` of the streamed CRC; a read
verifies through the cached windows and hands out either a private
image (:meth:`read_page`) or a borrowed copy-on-write view
(:meth:`read_page_view`).  Extents are never resized — growing a
``bytearray`` with live ``memoryview`` exports raises ``BufferError`` —
so the slab grows by appending extents.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.config import PAGE_SIZE
from repro.common.errors import FaultInjectedError, MediaError, TornPageError
from repro.common.seams import Seams
from repro.common.stats import DISK_PAGE_READS, DISK_PAGE_WRITES
from repro.faults import points as fp
from repro.faults.injector import FAIL
from repro.obs import events as ev
from repro.storage.page import Page, PageType

# Checksum covers everything except the 4-byte checksum field itself
# (header bytes 17..20, see the header layout in repro.storage.page).
_CKSUM_OFFSET = 17
_CKSUM_END = 21
_CKSUM = struct.Struct("<I")

#: Pages per slab extent.  Extents are fixed-size so the cached page
#: windows exported over them stay valid for the disk's lifetime.
EXTENT_PAGES = 64

#: The cached windows of one stored page: (full image, bytes before the
#: checksum field, bytes after it).  Head+tail are exactly the CRC's
#: coverage, so a stamp is two ``zlib.crc32`` calls with no slicing.
_Windows = Tuple[memoryview, memoryview, memoryview]


class SharedDisk:
    """A page-addressed, checksummed, crash-consistent page store.

    Writes are atomic at page granularity (the classic WAL assumption).
    ``capacity`` bounds the page-id space; pages are materialised lazily
    so sparse databases are cheap.
    """

    def __init__(
        self,
        capacity: int = 1 << 20,
        seams: Optional[Seams] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("disk capacity must be positive")
        self.capacity = capacity
        self.stats, self.tracer, self._injector = seams or Seams.of()
        self._extents: List[bytearray] = []
        # page_id -> cached windows, in first-write order.
        self._views: Dict[int, _Windows] = {}
        self._lost: Set[int] = set()

    # ------------------------------------------------------------------
    # slab geometry
    # ------------------------------------------------------------------
    def _slab_window(self, page_id: int) -> _Windows:
        """The cached windows for ``page_id``, allocating its slot (and
        a new extent when the current one is full) on first write."""
        views = self._views.get(page_id)
        if views is None:
            slot = len(self._views)
            extent_index, index = divmod(slot, EXTENT_PAGES)
            if extent_index == len(self._extents):
                self._extents.append(bytearray(EXTENT_PAGES * PAGE_SIZE))
            base = memoryview(self._extents[extent_index])
            start = index * PAGE_SIZE
            views = (
                base[start:start + PAGE_SIZE],
                base[start:start + _CKSUM_OFFSET],
                base[start + _CKSUM_END:start + PAGE_SIZE],
            )
            self._views[page_id] = views
        return views

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def _check_page_id(self, page_id: int) -> None:
        if not 0 <= page_id < self.capacity:
            raise ValueError(
                f"page id {page_id} outside disk capacity {self.capacity}"
            )

    def write_page(self, page: Page) -> None:
        """Persist ``page``, stamping a fresh checksum into the image."""
        page_id = page.page_id
        self._check_page_id(page_id)
        if self._injector.enabled:
            try:
                self._injector.fire(fp.DISK_WRITE, page=page_id)
            except TornPageError:
                # The device failed mid-write: keep a half-new/half-old
                # image on disk, then let the tear surface to the
                # caller.  The stored checksum covers the *intended*
                # image, so the next read fails verification.
                self._store_torn_image(page)
                raise
        full, head, tail = self._slab_window(page_id)
        full[:] = page.raw_buffer()
        _CKSUM.pack_into(full, _CKSUM_OFFSET,
                         zlib.crc32(tail, zlib.crc32(head)))
        self._lost.discard(page_id)
        self.stats.incr(DISK_PAGE_WRITES)
        if self.tracer.enabled:
            self.tracer.emit(ev.DISK_WRITE, page=page_id,
                             page_lsn=int(page.page_lsn))

    def write_many(self, pages: Sequence[Page],
                   page_ids: Optional[Sequence[int]] = None) -> int:
        """Batch write — semantically identical to N :meth:`write_page`
        calls (same stored bytes, same counter totals, same events).

        The slab fast lane: with tracing and fault injection off (their
        per-page semantics need the per-call path) the loop is nothing
        but copy-into-window + streamed CRC + ``pack_into``, with the
        lookups bound once and the write counter bumped once for the
        whole batch.  ``page_ids``, when the caller already knows them
        (the buffer pool indexes frames by page id), skips re-parsing
        each page header.  Returns the number of pages written.
        """
        if not pages:
            return 0
        if page_ids is None:
            page_ids = [page.page_id for page in pages]
        if self._injector.enabled or self.tracer.enabled:
            for page in pages:
                self.write_page(page)
            return len(pages)
        crc = zlib.crc32
        pack = _CKSUM.pack_into
        views = self._views
        discard = self._lost.discard
        capacity = self.capacity
        for page, page_id in zip(pages, page_ids):
            if not 0 <= page_id < capacity:
                self._check_page_id(page_id)
            windows = views.get(page_id)
            if windows is None:
                windows = self._slab_window(page_id)
            full, head, tail = windows
            full[:] = page._buf
            pack(full, _CKSUM_OFFSET, crc(tail, crc(head)))
            discard(page_id)
        self.stats.incr(DISK_PAGE_WRITES, len(pages))
        return len(pages)

    def _store_torn_image(self, page: Page) -> None:
        half = PAGE_SIZE // 2
        full, head, tail = self._slab_window(page.page_id)
        # The only staging copy this path needs: the old back half,
        # saved before the intended image lands in the window.
        old_tail = bytes(full[half:])
        full[:] = page.raw_buffer()
        _CKSUM.pack_into(full, _CKSUM_OFFSET,
                         zlib.crc32(tail, zlib.crc32(head)))
        if full[half:] == old_tail:
            # Old and new agree on the back half; tear a byte anyway
            # so the torn write is deterministically detectable.
            full[PAGE_SIZE - 1] ^= 0xFF
        else:
            full[half:] = old_tail
        self._lost.discard(page.page_id)
        self.stats.incr(DISK_PAGE_WRITES)

    def read_page(self, page_id: int) -> Page:
        """Read a page; raises :class:`MediaError` for lost/corrupt pages.

        Reading a never-written page returns a zeroed (FREE) page, like
        a freshly formatted volume.  The returned page owns a private
        image — mutating it never touches the disk.
        """
        return self._read(page_id, borrowed=False)

    def read_page_view(self, page_id: int) -> Page:
        """Like :meth:`read_page`, but zero-copy: the returned page is
        a borrowed copy-on-write view of the stored image.

        Reads go straight through the stored bytes; the first mutation
        detaches the page onto a private copy (so disk state can never
        be altered behind the checksum's back).  The view aliases live
        storage: a later ``write_page`` of the same page *is* visible
        through a still-borrowed view, so callers wanting a stable
        snapshot must copy (or use :meth:`read_page`).
        """
        return self._read(page_id, borrowed=True)

    def _read(self, page_id: int, borrowed: bool) -> Page:
        self._check_page_id(page_id)
        if self._injector.enabled:
            try:
                self._injector.fire(fp.DISK_READ, page=page_id)
            except FaultInjectedError as exc:
                if exc.action == FAIL:
                    # An injected read failure is indistinguishable from
                    # a genuine media error: media recovery applies.
                    raise MediaError(
                        f"page {page_id} unreadable (injected media error)"
                    ) from exc
                raise
        self.stats.incr(DISK_PAGE_READS)
        if page_id in self._lost:
            raise MediaError(f"page {page_id} unreadable (media failure)")
        views = self._views.get(page_id)
        if views is None:
            return self._blank_page(page_id)
        full, head, tail = views
        if zlib.crc32(tail, zlib.crc32(head)) != \
                _CKSUM.unpack_from(full, _CKSUM_OFFSET)[0]:
            raise MediaError(
                f"page {page_id} failed checksum verification"
            )
        page = Page(full.toreadonly()) if borrowed else Page(bytearray(full))
        if self.tracer.enabled:
            self.tracer.emit(ev.DISK_READ, page=page_id)
        return page

    def _blank_page(self, page_id: int) -> Page:
        blank = Page()
        blank.format(page_id, PageType.FREE)
        if self.tracer.enabled:
            self.tracer.emit(ev.DISK_READ, page=page_id)
        return blank

    def page_exists(self, page_id: int) -> bool:
        """True if the page has ever been written (and not lost)."""
        return page_id in self._views and page_id not in self._lost

    def raw_image(self, page_id: int) -> bytes:
        """A private copy of the stored image, checksum included.

        The escape hatch for callers that must *own* the bytes — e.g.
        the archive dump (:meth:`ImageCopy.take
        <repro.storage.image_copy.ImageCopy.take>`): a slab window
        aliases live storage and would see every later write.
        """
        return bytes(self._views[page_id][0])

    def page_lsn_on_disk(self, page_id: int) -> Optional[int]:
        """page_LSN of the disk version without counting an I/O.

        Test/verification helper: lets invariant checks inspect the disk
        state non-invasively (zero-copy: reads through a borrowed view).
        """
        if page_id in self._lost:
            return None
        views = self._views.get(page_id)
        if views is None:
            return None
        return Page(views[0].toreadonly()).page_lsn

    def written_page_ids(self) -> Iterator[int]:
        """All page ids with a disk version, in ascending order."""
        return iter(sorted(self._views))

    def digest(self) -> str:
        """SHA-256 of the stored images: for each written page in
        page-id order, its id (8 bytes, little-endian) then its image,
        checksum included.  Counts no I/O."""
        digest = hashlib.sha256()
        for page_id in sorted(self._views):
            digest.update(page_id.to_bytes(8, "little"))
            digest.update(self._views[page_id][0])
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def lose_page(self, page_id: int) -> None:
        """Simulate a media failure: subsequent reads raise MediaError."""
        self._check_page_id(page_id)
        self._lost.add(page_id)
        if self.tracer.enabled:
            self.tracer.emit(ev.DISK_LOSE, page=page_id)

    def corrupt_page(self, page_id: int, byte_offset: int = 100) -> None:
        """Flip a byte in the stored image (checksum will catch it)."""
        if page_id not in self._views:
            raise ValueError(f"page {page_id} has no disk version to corrupt")
        if not 0 <= byte_offset < PAGE_SIZE:
            raise ValueError("byte offset outside the page")
        self._views[page_id][0][byte_offset] ^= 0xFF
        if self.tracer.enabled:
            self.tracer.emit(ev.DISK_CORRUPT, page=page_id,
                             offset=byte_offset)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SharedDisk(capacity={self.capacity}, "
            f"pages={len(self._views)}, lost={len(self._lost)})"
        )
