"""Space map pages (SMPs): allocation state for data pages.

Two codecs over the same :class:`~repro.storage.page.Page` payload:

* :class:`SpaceMap` — the DB2-style layout the paper defends: **one bit
  per data page** (allocated / deallocated).  The SMP's own ``page_LSN``
  is the value the paper's reallocation rule leans on (Section 3.4): the
  deallocation of page P updates P's SMP, so the USN assignment rule
  forces the SMP's LSN above P's last LSN; a later reallocation reads
  the SMP anyway and can therefore stamp the new format record with an
  LSN above anything ever placed on P — **without reading P from disk**.

* :class:`LometSpaceMap` — the baseline layout Lomet's scheme requires
  (Section 4.2): a **full LSN per data page** recording the exact
  page_LSN at deallocation time.  The paper quantifies the overhead as
  47–63× depending on 6- vs 8-byte LSNs; experiment E4 measures it.

Both classes are *codecs plus id arithmetic*: they read and write entry
state inside SMP pages that the caller owns (typically fixed in a buffer
pool, with mutations logged like any other page update).  They hold no
state of their own beyond the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.common.config import PAGE_DATA_SIZE
from repro.common.lsn import Lsn
from repro.storage.page import Page, PageType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.disk import SharedDisk

# The space-overhead comparison in the paper considers both LSN widths.
LOMET_LSN_BYTES_CHOICES = (6, 8)


def smp_entries_per_page() -> int:
    """Data pages covered by one bitmap SMP (one bit each)."""
    return PAGE_DATA_SIZE * 8


def lomet_entries_per_page(lsn_bytes: int = 8) -> int:
    """Data pages covered by one Lomet SMP (one LSN each)."""
    if lsn_bytes not in LOMET_LSN_BYTES_CHOICES:
        raise ValueError(f"lsn_bytes must be one of {LOMET_LSN_BYTES_CHOICES}")
    return PAGE_DATA_SIZE // lsn_bytes


@dataclass(frozen=True)
class SmpSlot:
    """Where a data page's allocation entry lives: (SMP page id, index)."""

    smp_page_id: int
    index: int


class _Geometry:
    """Shared id arithmetic for both SMP layouts."""

    #: The page type the layout's SMP pages are formatted with.
    page_type: PageType

    def __init__(
        self,
        smp_start: int,
        data_start: int,
        n_data_pages: int,
        entries_per_page: int,
    ) -> None:
        if n_data_pages <= 0:
            raise ValueError("need at least one data page")
        self.smp_start = smp_start
        self.data_start = data_start
        self.n_data_pages = n_data_pages
        self.entries_per_page = entries_per_page
        self.n_smp_pages = -(-n_data_pages // entries_per_page)  # ceil div
        smp_end = smp_start + self.n_smp_pages
        if smp_start <= data_start < smp_end or smp_start < data_start + n_data_pages <= smp_end:
            if not (data_start >= smp_end or data_start + n_data_pages <= smp_start):
                raise ValueError("SMP region overlaps the data region")

    def slot_for(self, data_page_id: int) -> SmpSlot:
        """Locate the SMP entry describing ``data_page_id``."""
        idx = data_page_id - self.data_start
        if not 0 <= idx < self.n_data_pages:
            raise ValueError(
                f"page {data_page_id} outside data region "
                f"[{self.data_start}, {self.data_start + self.n_data_pages})"
            )
        return SmpSlot(
            smp_page_id=self.smp_start + idx // self.entries_per_page,
            index=idx % self.entries_per_page,
        )

    def smp_page_ids(self) -> range:
        return range(self.smp_start, self.smp_start + self.n_smp_pages)

    def coverage(self, smp_page_id: int) -> Tuple[int, int]:
        """``(first data page id, entries in use)`` of one SMP page —
        the last SMP page is usually only partly used."""
        base = (smp_page_id - self.smp_start) * self.entries_per_page
        return (self.data_start + base,
                min(self.entries_per_page, self.n_data_pages - base))


def format_volume(disk: "SharedDisk", space_map: _Geometry) -> None:
    """Volume initialisation: write every SMP page of ``space_map`` to
    ``disk``, formatted with its layout's page type.

    Not logged (volume initialisation predates the log), so whatever
    builds a volume runs this one step: an SD complex, the CS server,
    a standby mirroring its primary, the Lomet baseline.
    """
    for smp_page_id in space_map.smp_page_ids():
        page = Page()
        page.format(smp_page_id, space_map.page_type)
        disk.write_page(page)


def _first_non_ff(smp_page: Page, nbytes: int) -> Optional[int]:
    """Offset of the first payload byte below ``nbytes`` that is not
    0xFF (None when all are) — one C-level scan, which is what lets a
    free-entry search skip the allocated prefix without a Python loop."""
    raw = smp_page.read_payload(0, nbytes)
    offset = nbytes - len(raw.lstrip(b"\xff"))
    return offset if offset < nbytes else None


class SpaceMap(_Geometry):
    """DB2-style one-bit-per-page space map (the paper's layout)."""

    page_type = PageType.SPACE_MAP
    bits_per_entry = 1

    def __init__(self, smp_start: int, data_start: int, n_data_pages: int) -> None:
        super().__init__(smp_start, data_start, n_data_pages,
                         smp_entries_per_page())

    @staticmethod
    def read_allocated(smp_page: Page, index: int) -> bool:
        """Is the covered data page currently allocated?"""
        byte = smp_page.read_payload(index // 8, 1)[0]
        return bool(byte & (1 << (index % 8)))

    @staticmethod
    def first_free(smp_page: Page, limit: int) -> Optional[int]:
        """Lowest index below ``limit`` whose page is deallocated."""
        offset = _first_non_ff(smp_page, (limit + 7) // 8)
        if offset is None:
            return None
        byte = smp_page.read_payload(offset, 1)[0]
        # Lowest clear bit of ``byte``: the only bit set in ~byte & (byte + 1).
        index = offset * 8 + (~byte & (byte + 1)).bit_length() - 1
        return index if index < limit else None

    @staticmethod
    def write_allocated(smp_page: Page, index: int, allocated: bool) -> None:
        """Flip the allocation bit.  Caller logs this as an SMP update."""
        offset = index // 8
        byte = smp_page.read_payload(offset, 1)[0]
        mask = 1 << (index % 8)
        byte = (byte | mask) if allocated else (byte & ~mask)
        smp_page.write_payload(offset, bytes([byte]))

    @staticmethod
    def encode_entry_update(index: int, allocated: bool) -> bytes:
        """Redo/undo payload for logging one bit flip."""
        return bytes([index & 0xFF, (index >> 8) & 0xFF, int(allocated)])

    @staticmethod
    def decode_entry_update(payload: bytes) -> Tuple[int, bool]:
        index = payload[0] | (payload[1] << 8)
        return index, bool(payload[2])

    @staticmethod
    def apply_entry_update(smp_page: Page, payload: bytes) -> None:
        """Apply a logged bit flip during redo."""
        index, allocated = SpaceMap.decode_entry_update(payload)
        SpaceMap.write_allocated(smp_page, index, allocated)

    # ------------------------------------------------------------------
    # range updates: the mass-delete fast path (Section 4.2 / E6)
    # ------------------------------------------------------------------
    @staticmethod
    def write_range(smp_page: Page, start: int, count: int,
                    allocated: bool) -> None:
        """Flip ``count`` consecutive bits starting at ``start``.

        DB2's segmented-tablespace mass delete "just visits the space
        map pages and marks all the corresponding pages as being empty"
        — one logged range update per SMP page, no data-page reads.
        """
        for index in range(start, start + count):
            SpaceMap.write_allocated(smp_page, index, allocated)

    @staticmethod
    def encode_range_update(start: int, count: int, allocated: bool) -> bytes:
        return bytes([
            start & 0xFF, (start >> 8) & 0xFF,
            count & 0xFF, (count >> 8) & 0xFF,
            int(allocated),
        ])

    @staticmethod
    def decode_range_update(payload: bytes) -> Tuple[int, int, bool]:
        start = payload[0] | (payload[1] << 8)
        count = payload[2] | (payload[3] << 8)
        return start, count, bool(payload[4])

    @staticmethod
    def apply_range_update(smp_page: Page, payload: bytes) -> None:
        start, count, allocated = SpaceMap.decode_range_update(payload)
        SpaceMap.write_range(smp_page, start, count, allocated)


# Sentinel for "page is allocated" in a Lomet SMP entry: all-ones.
def _lomet_allocated_sentinel(lsn_bytes: int) -> int:
    return (1 << (8 * lsn_bytes)) - 1


class LometSpaceMap(_Geometry):
    """Lomet-baseline space map: full page_LSN per deallocated page.

    The entry for a deallocated page stores the exact LSN the page
    carried at deallocation time (needed because Lomet's redo test is
    ``page_LSN == BSI``, so the reallocation format record must continue
    the page's private LSN sequence).  Allocated pages hold an all-ones
    sentinel.
    """

    page_type = PageType.LOMET_SPACE_MAP

    def __init__(
        self,
        smp_start: int,
        data_start: int,
        n_data_pages: int,
        lsn_bytes: int = 8,
    ) -> None:
        super().__init__(smp_start, data_start, n_data_pages,
                         lomet_entries_per_page(lsn_bytes))
        self.lsn_bytes = lsn_bytes
        self.bits_per_entry = lsn_bytes * 8
        self._allocated = _lomet_allocated_sentinel(lsn_bytes)

    def read_entry(self, smp_page: Page, index: int) -> Tuple[bool, Lsn]:
        """Return ``(allocated, dealloc_lsn)`` for the covered page.

        ``dealloc_lsn`` is meaningful only when ``allocated`` is False.
        """
        raw = smp_page.read_payload(index * self.lsn_bytes, self.lsn_bytes)
        value = int.from_bytes(raw, "little")
        if value == self._allocated:
            return True, 0
        return False, value

    def first_free(self, smp_page: Page, limit: int) -> Optional[int]:
        """Lowest index below ``limit`` whose page is deallocated: the
        entry holding the first byte that is not part of a sentinel."""
        offset = _first_non_ff(smp_page, limit * self.lsn_bytes)
        return None if offset is None else offset // self.lsn_bytes

    def write_allocated(self, smp_page: Page, index: int) -> None:
        """Mark the covered page allocated (entry becomes the sentinel)."""
        smp_page.write_payload(
            index * self.lsn_bytes,
            self._allocated.to_bytes(self.lsn_bytes, "little"),
        )

    def write_deallocated(self, smp_page: Page, index: int, lsn: Lsn) -> None:
        """Mark deallocated, recording the page's exact current LSN.

        This is the expensive requirement the paper criticises: the
        caller must *know* the page's LSN, which for operations like
        mass delete forces a read of every emptied page (experiment E6).
        """
        if not 0 <= lsn < self._allocated:
            raise ValueError(f"LSN {lsn} unrepresentable in {self.lsn_bytes} bytes")
        smp_page.write_payload(
            index * self.lsn_bytes, lsn.to_bytes(self.lsn_bytes, "little")
        )

    def overhead_factor(self) -> float:
        """Entry size in bits relative to the 1-bit DB2 layout."""
        return self.bits_per_entry / SpaceMap.bits_per_entry
