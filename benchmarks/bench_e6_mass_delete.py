"""E6 — mass delete of a segmented table (Section 4.2).

Paper claim: DB2 "just visits the space map pages and marks all the
corresponding pages as being empty.  None of the deallocated pages is
read from disk.  Log records are written only for the space map page
changes.  With the Lomet algorithm, this efficient implementation would
not be possible since it needs to record the current LSNs of those
emptied pages in the space map pages!  It would require the expensive
reads of all the pages."

The bench mass-deletes tables of 128..2048 pages under both schemes and
counts data-page reads and log records.
"""

from repro.baselines.lomet import LometComplex
from repro.common.stats import DISK_PAGE_READS, LOG_RECORDS_WRITTEN
from repro.harness import Table, format_factor, print_banner
from repro.storage.page import PageType

from _common import assert_pinned, build_sd


def run_usn(n_pages):
    sd, (s1,) = build_sd(1, n_data_pages=n_pages + 64)
    txn = s1.begin()
    pages = [s1.allocate_page(txn) for _ in range(n_pages)]
    s1.commit(txn)
    s1.pool.flush_all()
    # Make sure none of the table's pages is cached: the honest case.
    for page_id in pages:
        if s1.pool.contains(page_id):
            s1.pool.drop_page(page_id)
    reads_before = sd.stats.get(DISK_PAGE_READS)
    records_before = sd.stats.get(LOG_RECORDS_WRITTEN)
    txn = s1.begin()
    s1.mass_delete(txn, pages)
    s1.commit(txn)
    reads = sd.stats.get(DISK_PAGE_READS) - reads_before
    # Subtract the commit/end control records.
    records = sd.stats.get(LOG_RECORDS_WRITTEN) - records_before - 2
    return reads, records


def run_lomet(n_pages):
    complex_ = LometComplex(n_data_pages=n_pages + 64)
    s1 = complex_.add_system(1, buffer_capacity=32)
    pages = [s1.allocate_page() for _ in range(n_pages)]
    s1.flush()
    for page_id in pages:
        if s1.pool.contains(page_id):
            s1.pool.drop_page(page_id)
    reads_before = complex_.stats.get(DISK_PAGE_READS)
    records_before = complex_.stats.get(LOG_RECORDS_WRITTEN)
    s1.mass_delete(pages)
    reads = complex_.stats.get(DISK_PAGE_READS) - reads_before
    records = complex_.stats.get(LOG_RECORDS_WRITTEN) - records_before
    return reads, records


def run_experiment():
    rows = []
    for n_pages in (128, 512, 2048):
        usn_reads, usn_records = run_usn(n_pages)
        lomet_reads, lomet_records = run_lomet(n_pages)
        rows.append((n_pages, usn_reads, usn_records,
                     lomet_reads, lomet_records,
                     format_factor(lomet_reads + lomet_records,
                                   usn_reads + usn_records)))
    return rows


def tables(rows):
    table = Table(["table pages", "USN page reads", "USN log records",
                   "Lomet page reads", "Lomet log records",
                   "total cost factor"])
    for row in rows:
        table.add_row(*row)
    return (table,)


def test_e6_mass_delete(benchmark):
    rows = run_experiment()
    print_banner("E6", "mass delete of a segmented table")
    (table,) = tables(rows)
    table.show()
    assert_pinned("E6", table)
    for n_pages, usn_reads, usn_records, lomet_reads, lomet_records, _ in rows:
        assert usn_reads == 0, "USN mass delete must not read data pages"
        # One range record per SMP page touched.
        assert usn_records <= -(-n_pages // 1000) + 2
        # Every data page read, plus possible SMP re-reads under
        # buffer churn.
        assert n_pages <= lomet_reads <= n_pages + 16, \
            "Lomet must read every page"
        assert lomet_records == n_pages

    # Wall-clock: the USN mass delete at the largest size.
    sd, (s1,) = build_sd(1, n_data_pages=2048 + 64)
    txn = s1.begin()
    pages = [s1.allocate_page(txn) for _ in range(2048)]
    s1.commit(txn)
    s1.pool.flush_all()

    def mass_delete_and_undo():
        t = s1.begin()
        s1.mass_delete(t, pages)
        s1.rollback(t)   # restore so the benchmark can iterate

    benchmark(mass_delete_and_undo)
