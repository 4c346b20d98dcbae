"""Slotted database pages with a packed binary header.

Layout (little-endian), total :data:`~repro.common.config.PAGE_SIZE`
bytes:

======================  =====  ==============================================
field                   bytes  meaning
======================  =====  ==============================================
page_id                 4      page number within the database
page_lsn                8      LSN/USN of the latest logged update (the
                               field the paper is about)
page_type               1      :class:`PageType`
slot_count              2      number of slot directory entries
free_offset             2      first free byte in the record area
checksum                4      CRC32 of the rest of the page (maintained by
                               the disk layer on write)
padding                 3
======================  =====  ==============================================

Records live in a record area growing forward from the header; the slot
directory grows backward from the end of the page, four bytes per slot
(``offset:u16, length:u16``).  A deleted record leaves a tombstone slot
(offset 0, length 0) so slot numbers remain stable — record-granularity
locks and log records name ``(page_id, slot)``.
"""

from __future__ import annotations

import enum
import struct
from typing import Iterator, List, Optional, Tuple, Union

from repro.common.config import (
    NULL_LSN,
    PAGE_DATA_SIZE,
    PAGE_HEADER_SIZE,
    PAGE_SIZE,
)
from repro.common.errors import CorruptPageError
from repro.common.lsn import Lsn

_HEADER = struct.Struct("<IQBHHI3x")
assert _HEADER.size == PAGE_HEADER_SIZE

# Single-field views of the header at fixed offsets.  The record hot
# path reads page_LSN and slot_count on every operation; one
# ``unpack_from`` beats unpacking all six fields (and, for a store,
# repacking them).
_PAGE_LSN = struct.Struct("<Q")
_PAGE_LSN_AT = 4
_SLOT_COUNT = struct.Struct("<H")
_SLOT_COUNT_AT = 13
assert struct.calcsize("<I") == _PAGE_LSN_AT
assert struct.calcsize("<IQB") == _SLOT_COUNT_AT

_SLOT = struct.Struct("<HH")
SLOT_SIZE = _SLOT.size

#: A page buffer is either privately owned (``bytearray``) or borrowed
#: (``memoryview`` over storage someone else owns — a disk slab window,
#: a classic stored image).  Borrowed pages are copy-on-write: the
#: first mutation detaches them onto a private ``bytearray``.
PageBuffer = Union[bytearray, memoryview]


class PageType(enum.IntEnum):
    """What a page holds; governs how its payload is interpreted."""

    FREE = 0          # deallocated / never formatted
    DATA = 1          # table records
    INDEX = 2         # index entries (reused heavily; see experiment E5)
    SPACE_MAP = 3     # allocation bitmap (SMP)
    LOMET_SPACE_MAP = 4  # Lomet-baseline SMP carrying full LSNs


class Page:
    """A mutable in-memory image of one database page.

    The same object is used in buffer pools on every system and, via
    :meth:`to_bytes` / :meth:`from_bytes`, as the disk representation.

    A page constructed over a ``memoryview`` (see :meth:`view`) is
    **borrowed**: reads go straight through the view (zero-copy), and
    the first mutation detaches the page onto a private ``bytearray``
    copy — so a borrowed page can never write through to the buffer it
    was viewing.  Pages over a ``bytearray`` are owned and mutate in
    place, exactly as before.
    """

    __slots__ = ("_buf", "_owned")

    def __init__(self, buf: Optional[PageBuffer] = None) -> None:
        if buf is None:
            buf = bytearray(PAGE_SIZE)
        if len(buf) != PAGE_SIZE:
            raise CorruptPageError(
                f"page buffer must be {PAGE_SIZE} bytes, got {len(buf)}"
            )
        self._buf = buf
        self._owned = not isinstance(buf, memoryview)

    @classmethod
    def view(cls, buf: PageBuffer) -> "Page":
        """A borrowed (copy-on-write) page over ``buf`` — zero-copy.

        ``buf`` may be any PAGE_SIZE buffer (``bytes``, ``bytearray``,
        ``memoryview``); the page never writes through it.
        """
        return cls(memoryview(buf))

    @property
    def is_borrowed(self) -> bool:
        """True while the page reads through a view it does not own."""
        return not self._owned

    def _ensure_owned(self) -> None:
        """Copy-on-write detach: first mutation of a borrowed page."""
        if not self._owned:
            self._buf = bytearray(self._buf)
            self._owned = True

    def raw_buffer(self) -> PageBuffer:
        """The backing buffer, zero-copy (storage-layer use only).

        Callers must treat the buffer as read-only; mutating it would
        bypass the copy-on-write discipline.
        """
        return self._buf

    # ------------------------------------------------------------------
    # header accessors
    # ------------------------------------------------------------------
    def _header(self) -> Tuple[int, int, int, int, int, int]:
        return _HEADER.unpack_from(self._buf, 0)

    def _set_header(
        self,
        page_id: int,
        page_lsn: int,
        page_type: int,
        slot_count: int,
        free_offset: int,
        checksum: int,
    ) -> None:
        _HEADER.pack_into(
            self._buf, 0, page_id, page_lsn, page_type, slot_count,
            free_offset, checksum,
        )

    @property
    def page_id(self) -> int:
        return self._header()[0]

    @property
    def page_lsn(self) -> Lsn:
        """The update sequence number of the page (paper, Section 3.2)."""
        return _PAGE_LSN.unpack_from(self._buf, _PAGE_LSN_AT)[0]

    @page_lsn.setter
    def page_lsn(self, value: Lsn) -> None:
        if value < 0:
            raise ValueError("page_lsn cannot be negative")
        self._ensure_owned()
        _PAGE_LSN.pack_into(self._buf, _PAGE_LSN_AT, value)

    @property
    def page_type(self) -> PageType:
        return PageType(self._header()[2])

    @property
    def slot_count(self) -> int:
        return _SLOT_COUNT.unpack_from(self._buf, _SLOT_COUNT_AT)[0]

    @property
    def free_offset(self) -> int:
        return self._header()[4]

    @property
    def checksum(self) -> int:
        return self._header()[5]

    def set_checksum(self, value: int) -> None:
        self._ensure_owned()
        h = list(self._header())
        h[5] = value
        self._set_header(*h)

    # ------------------------------------------------------------------
    # formatting
    # ------------------------------------------------------------------
    def format(
        self, page_id: int, page_type: PageType, page_lsn: Lsn = NULL_LSN
    ) -> None:
        """(Re)initialise the page as empty.

        Used both when a page is first allocated and when a previously
        deallocated page is *reallocated without being read from disk* —
        in that case the caller must supply a ``page_lsn`` derived from
        the covering space map page (paper, Section 3.4).
        """
        self._ensure_owned()
        self._buf[:] = bytes(PAGE_SIZE)
        self._set_header(page_id, page_lsn, int(page_type),
                         0, PAGE_HEADER_SIZE, 0)

    # ------------------------------------------------------------------
    # slot directory helpers
    # ------------------------------------------------------------------
    def _slot_pos(self, slot: int) -> int:
        return PAGE_SIZE - SLOT_SIZE * (slot + 1)

    def _read_slot(self, slot: int) -> Tuple[int, int]:
        buf = self._buf
        if not 0 <= slot < _SLOT_COUNT.unpack_from(buf, _SLOT_COUNT_AT)[0]:
            raise IndexError(f"slot {slot} out of range on page {self.page_id}")
        return _SLOT.unpack_from(buf, self._slot_pos(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self._buf, self._slot_pos(slot), offset, length)

    def free_space(self) -> int:
        """Bytes available for a new record *including* its slot entry."""
        dir_start = PAGE_SIZE - SLOT_SIZE * self.slot_count
        return dir_start - self.free_offset

    # ------------------------------------------------------------------
    # record operations
    # ------------------------------------------------------------------
    def insert_record(self, payload: bytes) -> int:
        """Insert ``payload`` and return its slot number.

        Reuses a tombstone slot when one exists so slot numbers stay
        dense under churn; otherwise grows the directory.
        """
        if not payload:
            raise ValueError("records must be non-empty")
        self._ensure_owned()
        slot = self._find_tombstone()
        extra = 0 if slot is not None else SLOT_SIZE
        if len(payload) + extra > self.free_space():
            self._compact()
            if len(payload) + extra > self.free_space():
                raise CorruptPageError(
                    f"page {self.page_id} full "
                    f"({self.free_space()} bytes free, need {len(payload) + extra})"
                )
        offset = self.free_offset
        self._buf[offset:offset + len(payload)] = payload
        h = list(self._header())
        if slot is None:
            slot = self.slot_count
            h[3] = slot + 1
        h[4] = offset + len(payload)
        self._set_header(*h)
        self._write_slot(slot, offset, len(payload))
        return slot

    def insert_record_at(self, slot: int, payload: bytes) -> None:
        """Insert ``payload`` into a specific slot (redo path).

        Restart redo replays logged inserts physiologically: the log
        record names the slot the original insert chose, and replay must
        land the record in exactly that slot.  The slot must be beyond
        the current directory or a tombstone.
        """
        if not payload:
            raise ValueError("records must be non-empty")
        self._ensure_owned()
        if slot < self.slot_count and self._read_slot(slot)[1] != 0:
            raise CorruptPageError(
                f"slot {slot} on page {self.page_id} already occupied"
            )
        new_slots = max(0, slot + 1 - self.slot_count)
        need = len(payload) + SLOT_SIZE * new_slots
        if need > self.free_space():
            self._compact()
            if need > self.free_space():
                raise CorruptPageError(
                    f"page {self.page_id} full (redo insert at slot {slot})"
                )
        offset = self.free_offset
        self._buf[offset:offset + len(payload)] = payload
        h = list(self._header())
        if slot >= self.slot_count:
            # Materialise intermediate slots as tombstones.
            for s in range(self.slot_count, slot + 1):
                h[3] = s + 1
                self._set_header(*h)
                self._write_slot(s, 0, 0)
        h = list(self._header())
        h[4] = offset + len(payload)
        self._set_header(*h)
        self._write_slot(slot, offset, len(payload))

    def read_record(self, slot: int) -> Optional[bytes]:
        """Payload stored in ``slot``, or ``None`` for a tombstone."""
        offset, length = self._read_slot(slot)
        if length == 0:
            return None
        return bytes(self._buf[offset:offset + length])

    def update_record(self, slot: int, payload: bytes) -> None:
        """Replace the payload in ``slot`` (record must exist)."""
        if not payload:
            raise ValueError("records must be non-empty")
        self._ensure_owned()
        offset, length = self._read_slot(slot)
        if length == 0:
            raise CorruptPageError(
                f"slot {slot} on page {self.page_id} is a tombstone"
            )
        if len(payload) <= length:
            self._buf[offset:offset + len(payload)] = payload
            if len(payload) != length:
                self._write_slot(slot, offset, len(payload))
            return
        # Grow: move the record to fresh space at the end of the area.
        if len(payload) > self.free_space():
            self._compact()
            offset, length = self._read_slot(slot)
            if len(payload) > self.free_space():
                raise CorruptPageError(
                    f"page {self.page_id} full updating slot {slot}"
                )
        new_offset = self.free_offset
        self._buf[new_offset:new_offset + len(payload)] = payload
        h = list(self._header())
        h[4] = new_offset + len(payload)
        self._set_header(*h)
        self._write_slot(slot, new_offset, len(payload))

    def delete_record(self, slot: int) -> None:
        """Tombstone ``slot``; its space is reclaimed on compaction."""
        self._ensure_owned()
        offset, length = self._read_slot(slot)
        if length == 0:
            raise CorruptPageError(
                f"slot {slot} on page {self.page_id} already deleted"
            )
        self._write_slot(slot, 0, 0)

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(slot, payload)`` for every live record."""
        for slot in range(self.slot_count):
            payload = self.read_record(slot)
            if payload is not None:
                yield slot, payload

    def record_count(self) -> int:
        """Number of live (non-tombstone) records."""
        return sum(1 for _ in self.records())

    def is_empty(self) -> bool:
        """True when no live record remains (candidate for dealloc)."""
        return self.record_count() == 0

    def _find_tombstone(self) -> Optional[int]:
        for slot in range(self.slot_count):
            if self._read_slot(slot)[1] == 0:
                return slot
        return None

    def _compact(self) -> None:
        """Rewrite the record area densely, preserving slot numbers."""
        self._ensure_owned()
        live: List[Tuple[int, bytes]] = []
        for slot in range(self.slot_count):
            offset, length = self._read_slot(slot)
            if length:
                live.append((slot, bytes(self._buf[offset:offset + length])))
        offset = PAGE_HEADER_SIZE
        for slot, payload in live:
            self._buf[offset:offset + len(payload)] = payload
            self._write_slot(slot, offset, len(payload))
            offset += len(payload)
        h = list(self._header())
        h[4] = offset
        self._set_header(*h)

    # ------------------------------------------------------------------
    # raw payload access (used by space map pages, which are bitmaps
    # rather than slotted records)
    # ------------------------------------------------------------------
    def read_payload(self, offset: int, length: int) -> bytes:
        """Read raw bytes from the data area (payload coordinates)."""
        if offset < 0 or offset + length > PAGE_DATA_SIZE:
            raise IndexError("payload read out of range")
        start = PAGE_HEADER_SIZE + offset
        return bytes(self._buf[start:start + length])

    def write_payload(self, offset: int, data: bytes) -> None:
        """Write raw bytes into the data area (payload coordinates)."""
        if offset < 0 or offset + len(data) > PAGE_DATA_SIZE:
            raise IndexError("payload write out of range")
        self._ensure_owned()
        start = PAGE_HEADER_SIZE + offset
        self._buf[start:start + len(data)] = data

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural sanity check of the header and slot directory.

        Checksums (maintained by the disk layer) catch bit rot; this
        catches *logic* corruption — impossible offsets, overlapping
        regions, slots pointing outside the record area.  Raises
        :class:`CorruptPageError` on the first problem found.
        """
        page_id, _, page_type, slot_count, free_offset, _ = self._header()
        try:
            PageType(page_type)
        except ValueError:
            raise CorruptPageError(
                f"page {page_id}: unknown page type {page_type}"
            )
        dir_start = PAGE_SIZE - SLOT_SIZE * slot_count
        if not PAGE_HEADER_SIZE <= free_offset <= dir_start:
            raise CorruptPageError(
                f"page {page_id}: free_offset {free_offset} outside "
                f"[{PAGE_HEADER_SIZE}, {dir_start}]"
            )
        for slot in range(slot_count):
            offset, length = self._read_slot(slot)
            if length == 0:
                continue  # tombstone
            if offset < PAGE_HEADER_SIZE or offset + length > free_offset:
                raise CorruptPageError(
                    f"page {page_id}: slot {slot} spans "
                    f"[{offset}, {offset + length}) outside the record area"
                )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The full on-disk image of the page."""
        return bytes(self._buf)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Page":
        """Reconstruct a page from its on-disk image."""
        return cls(bytearray(data))

    def copy(self) -> "Page":
        """Deep copy (used for image copies and cross-system transfer)."""
        return Page(bytearray(self._buf))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Page(id={self.page_id}, lsn={self.page_lsn}, "
            f"type={self.page_type.name}, slots={self.slot_count})"
        )
