"""E4 — space map overhead: DB2's 1 bit vs Lomet's full LSN per page.

Paper claim (Section 4.2): "In DB2, only one bit is used to track the
allocated/deallocated status of index pages.  Lomet's scheme would
increase that overhead 47-63 times, depending on whether the LSN is a
6 byte or 8 byte quantity!"

The bench reports, for databases of 10^4..10^6 pages, the number of
space map pages each layout needs and the per-entry bit overhead, and
checks the 47-63x claim exactly.
"""

from repro.harness import Table, format_factor, print_banner
from repro.storage.page import Page, PageType
from repro.storage.space_map import (
    LometSpaceMap,
    SpaceMap,
    lomet_entries_per_page,
    smp_entries_per_page,
)

from _common import assert_pinned


def smp_pages_needed(n_data_pages, entries_per_page):
    return -(-n_data_pages // entries_per_page)


def run_experiment():
    rows = []
    for n_pages in (10_000, 100_000, 1_000_000):
        bitmap = smp_pages_needed(n_pages, smp_entries_per_page())
        lomet6 = smp_pages_needed(n_pages, lomet_entries_per_page(6))
        lomet8 = smp_pages_needed(n_pages, lomet_entries_per_page(8))
        rows.append((n_pages, bitmap, lomet6, lomet8,
                     format_factor(lomet6, bitmap),
                     format_factor(lomet8, bitmap)))
    return rows


def lomet_maps():
    """The 6-byte and 8-byte LSN Lomet space maps."""
    return tuple(LometSpaceMap(smp_start=1, data_start=10, n_data_pages=10,
                               lsn_bytes=lsn_bytes) for lsn_bytes in (6, 8))


def tables(rows):
    table = Table(["data pages", "bitmap SMPs", "Lomet SMPs (6B)",
                   "Lomet SMPs (8B)", "factor 6B", "factor 8B"])
    for row in rows:
        table.add_row(*row)
    per_entry = Table(["layout", "bits/entry", "entries/SMP page",
                       "overhead vs 1 bit"])
    six, eight = lomet_maps()
    per_entry.add_row("DB2 bitmap", 1, smp_entries_per_page(), "1.0x")
    per_entry.add_row("Lomet 6-byte LSN", 48, lomet_entries_per_page(6),
                      f"{six.overhead_factor():.0f}x")
    per_entry.add_row("Lomet 8-byte LSN", 64, lomet_entries_per_page(8),
                      f"{eight.overhead_factor():.0f}x")
    return table, per_entry


def test_e4_smp_space_overhead(benchmark):
    rows = run_experiment()
    print_banner("E4", "space map overhead (47-63x claim)")
    pinned = tables(rows)
    for table in pinned:
        table.show()
    assert_pinned("E4", *pinned)

    six, eight = lomet_maps()
    # The paper counts the *increase*: 47x resp. 63x on top of the bit.
    assert six.overhead_factor() - 1 == 47
    assert eight.overhead_factor() - 1 == 63
    # Page-count blowup lands in the same band at scale.
    big = rows[-1]
    assert 40 <= big[2] / big[1] <= 48
    assert 56 <= big[3] / big[1] <= 64

    # Micro-benchmark: flipping one allocation bit (the hot operation).
    page = Page()
    page.format(1, PageType.SPACE_MAP)

    def flip():
        SpaceMap.write_allocated(page, 12345, True)
        SpaceMap.write_allocated(page, 12345, False)

    benchmark(flip)
