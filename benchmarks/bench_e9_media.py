"""E9 — media recovery via image copy + merged local logs (Section 3.2.2).

Paper claims: a page lost to a media error is rebuilt from "a copy of
the page from the last image copy" plus redo of "this page's log
records from the logs of the different systems", merged by comparing
the LSN fields only.  Equal LSNs from different logs may be emitted in
either order because they must belong to different pages.

The bench builds multi-system history over many pages, snapshots an
image copy mid-way, continues updating, loses a batch of pages, and
rebuilds them; it verifies content and reports the merge work.
"""

from repro.common.stats import MERGE_COMPARISONS, StatsRegistry
from repro.harness import Table, print_banner
from repro.recovery.media import (
    recover_database_from_media,
    recover_page_from_media,
)
from repro.storage.image_copy import ImageCopy

from _common import assert_pinned, build_sd


def build_history(n_pages=12, rounds=40):
    sd, instances = build_sd(3, n_data_pages=256)
    s1 = instances[0]
    txn = s1.begin()
    handles = []
    for _ in range(n_pages):
        page_id = s1.allocate_page(txn)
        slot = s1.insert(txn, page_id, b"epoch0")
        handles.append((page_id, slot))
    s1.commit(txn)
    for instance in instances:
        instance.pool.flush_all()
    dump = ImageCopy.take(sd.disk)
    expected = {}
    for i in range(rounds):
        instance = instances[i % 3]
        page_id, slot = handles[i % n_pages]
        value = b"round%03d" % i
        txn = instance.begin()
        instance.update(txn, page_id, slot, value)
        instance.commit(txn)
        expected[(page_id, slot)] = value
    for handle in handles:
        expected.setdefault(handle, b"epoch0")
    return sd, dump, handles, expected


def run_experiment():
    sd, dump, handles, expected = build_history()
    lost = [page_id for page_id, _ in handles[:6]]
    for page_id in lost:
        sd.disk.lose_page(page_id)
    stats = StatsRegistry()
    rebuilt = recover_database_from_media(dump, sd.local_logs(), sd.disk,
                                          lost, stats=stats)
    for page_id, slot in handles[:6]:
        value = sd.disk.read_page(page_id).read_record(slot)
        assert value == expected[(page_id, slot)], (page_id, value)
    total_records = sum(log.record_count() for log in sd.local_logs())
    return rebuilt, stats.get(MERGE_COMPARISONS), total_records


def tables(results):
    rebuilt, comparisons, total_records = results
    table = Table(["pages rebuilt", "log records merged",
                   "LSN comparisons", "comparisons/record"])
    table.add_row(rebuilt, total_records, comparisons,
                  comparisons / max(total_records, 1))
    return (table,)


def test_e9_media_recovery(benchmark):
    results = run_experiment()
    rebuilt, comparisons, total_records = results
    print_banner("E9", "media recovery from image copy + merged logs")
    (table,) = tables(results)
    table.show()
    assert_pinned("E9", table)
    assert rebuilt == 6
    # LSN-only merge: O(log k) comparisons per record, k=3 logs.
    assert comparisons <= total_records * 4

    # Wall-clock: single-page rebuild.
    sd, dump, handles, expected = build_history()
    page_id, slot = handles[0]

    def rebuild():
        page = recover_page_from_media(page_id, dump, sd.local_logs())
        assert page.read_record(slot) == expected[(page_id, slot)]

    benchmark(rebuild)
