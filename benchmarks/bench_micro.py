"""Micro-benchmarks of the hot-path primitives.

Not paper experiments — engineering numbers for the substrate itself:
log append (the USN rule), slotted-page record ops, record
serialization, and a full engine update round trip.
"""

# reprolint: disable-file=R001 -- microbenchmarks measure raw page primitives
# below the WAL layer; nothing here is recovered.

import pytest

from repro.common.clock import wall_seconds
from repro.common.stats import (
    BUFFER_BATCH_FLUSHES,
    LOG_FORCES,
    LOG_FORCES_COALESCED,
)
from repro.storage.page import Page, PageType
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord, make_update

from _common import build_sd, committed_row, count_calls

BATCH = 64


def _fresh_records(n):
    return [
        make_update(1, i + 1, 100 + i, 0, redo=b"x" * 32, undo=b"y" * 32)
        for i in range(n)
    ]


def test_micro_log_append(benchmark):
    log = LogManager(1)
    record = make_update(1, 1, 100, 0, redo=b"x" * 32, undo=b"y" * 32)

    def append():
        log.append(record, page_lsn=0)

    benchmark(append)


def test_micro_log_append_many(benchmark):
    log = LogManager(1)
    records = _fresh_records(BATCH)

    def append_batch():
        log.append_many(records)

    benchmark(append_batch)


#: Builtin calls ``append_many`` spends per record: the header pack,
#: four ``len``s, three list appends and the ``LogAddress`` allocation.
APPEND_MANY_BUILTIN_CALLS_PER_RECORD = 9


def test_append_many_pays_no_per_record_call():
    """Acceptance gate: ``append_many`` makes the same handful of
    interpreted calls for 64 records as for 8 — none per record — and
    a pinned number of builtin calls per record (programmatic — counts,
    no timer).

    This was a wall-clock ratio, ``append_many`` >= 2x N single
    ``append`` calls (~2.2x measured), until the per-call lane diet
    took a single ``append`` from eight interpreted calls per record to
    three and the ratio to ~1.5x with the batch lane untouched.
    Counting the batch lane's own calls keeps the protection without
    the other lane in the denominator.
    """
    log = LogManager(1)
    small = _fresh_records(8)
    large = _fresh_records(BATCH)
    log.append_many(large)  # warm
    for page_lsns in (False, True):
        small_calls, small_builtin = count_calls(
            log.append_many, small, [0] * len(small) if page_lsns else None)
        large_calls, large_builtin = count_calls(
            log.append_many, large, [0] * len(large) if page_lsns else None)
        per_record = (large_builtin - small_builtin) / (len(large) - len(small))
        print(f"append_many page_lsns={page_lsns}: {large_calls} interpreted "
              f"calls per batch, {per_record:.1f} builtin calls per record")
        assert small_calls == large_calls <= 6, (
            f"append_many makes {small_calls} interpreted calls for "
            f"{len(small)} records and {large_calls} for {len(large)} "
            f"(need equal and <= 6)"
        )
        assert per_record <= APPEND_MANY_BUILTIN_CALLS_PER_RECORD, (
            f"append_many makes {per_record:.1f} builtin calls per record "
            f"(need <= {APPEND_MANY_BUILTIN_CALLS_PER_RECORD})"
        )


def _engine_with_dirty_pages(n):
    """One instance holding ``n`` dirty pages whose latest updates are
    not yet on stable log (uncommitted txn => WAL force needed)."""
    sd, (s1,) = build_sd(1, n_data_pages=256)
    rows = [committed_row(s1) for _ in range(n)]
    txn = s1.begin()
    for page_id, slot in rows:
        s1.update(txn, page_id, slot, b"dirty")
    return s1, [page_id for page_id, _ in rows]


def test_batch_flush_coalesces_forces():
    """Acceptance gate: the old per-page path issues N log forces where
    ``flush_pages`` issues exactly 1 (asserted via counters)."""
    n = 8

    old, old_pages = _engine_with_dirty_pages(n)
    before = old.log.stats.get(LOG_FORCES)
    for page_id in old_pages:  # ascending update order: worst case
        old.pool.write_page(page_id)
    old_forces = old.log.stats.get(LOG_FORCES) - before
    assert old_forces == n, f"per-page path forced {old_forces}x, not {n}x"

    new, new_pages = _engine_with_dirty_pages(n)
    forces0 = new.log.stats.get(LOG_FORCES)
    coalesced0 = new.log.stats.get(LOG_FORCES_COALESCED)
    flushes0 = new.log.stats.get(BUFFER_BATCH_FLUSHES)
    written = new.pool.flush_pages(new_pages)
    assert written == n
    assert new.log.stats.get(LOG_FORCES) - forces0 == 1
    assert new.log.stats.get(LOG_FORCES_COALESCED) - coalesced0 == n - 1
    assert new.log.stats.get(BUFFER_BATCH_FLUSHES) - flushes0 == 1
    for page_id in new_pages:
        assert new.log.is_stable(new.pool.bcb(page_id).last_update_end) \
            or not new.pool.is_dirty(page_id)


def test_micro_record_roundtrip(benchmark):
    record = make_update(1, 1, 100, 3, redo=b"x" * 64, undo=b"y" * 64)
    data = record.to_bytes()

    def roundtrip():
        LogRecord.from_bytes(data)

    benchmark(roundtrip)


def test_micro_page_insert_delete(benchmark):
    page = Page()
    page.format(1, PageType.DATA)
    payload = b"p" * 40

    def cycle():
        slot = page.insert_record(payload)
        page.delete_record(slot)

    benchmark(cycle)


def test_micro_page_serialization(benchmark):
    page = Page()
    page.format(1, PageType.DATA)
    for i in range(20):
        page.insert_record(b"row %02d" % i)

    def roundtrip():
        Page.from_bytes(page.to_bytes())

    benchmark(roundtrip)


def test_micro_engine_update_commit(benchmark):
    sd, (s1,) = build_sd(1, n_data_pages=256)
    page_id, slot = committed_row(s1)

    def txn_cycle():
        txn = s1.begin()
        s1.update(txn, page_id, slot, b"value")
        s1.commit(txn)

    benchmark(txn_cycle)


def _copy_per_op_stamped_image(page):
    """The pre-slab write path, reconstructed verbatim: the baseline
    the slab write lane is printed against (like the N-single-appends
    baseline above).

    Four full-page materialisations per write — ``to_bytes``, the
    ``bytearray`` working copy, the ``bytes`` round-trip for the
    checksum (whose slice-concat makes a fifth, page-sized temporary),
    and the probe page's final ``to_bytes``.
    """
    import zlib
    image = bytearray(page.to_bytes())
    flat = bytes(image)
    cksum = zlib.crc32(flat[:17] + flat[21:])
    probe = Page(image)
    probe.set_checksum(cksum)
    return probe.to_bytes()


#: Builtin calls ``write_many`` may spend per page on warm windows: five
#: today (the window lookup, two streamed ``crc32`` calls, the checksum
#: ``pack_into`` and the lost-set discard) plus one of slack.
WRITE_MANY_BUILTIN_CALLS_PER_PAGE = 6


def _data_pages(n, first_id=0):
    pages = []
    for i in range(n):
        page = Page()
        page.format(first_id + i, PageType.DATA)
        page.insert_record(b"x" * 64)
        pages.append(page)
    return pages


def test_write_many_pays_no_per_page_call():
    """Acceptance gate: the slab write lane (checksum stamped in place
    into a slab window via ``pack_into`` + streamed CRC, batched by
    ``write_many``) makes the same interpreted calls for 64 pages as
    for 8 — none per page — and a pinned number of builtin calls per
    page (programmatic — counts, no timer).

    This was a wall-clock ratio against the copy-per-operation write
    path (>= 2x at batch 64).  The ratio is still printed, and both
    sides must store the same checksummed images.
    """
    from repro.common.stats import DISK_PAGE_WRITES
    from repro.storage.disk import SharedDisk

    disk = SharedDisk()
    small = _data_pages(8)
    pages = _data_pages(BATCH, first_id=100)
    disk.write_many(small)  # warm: allocate every window
    disk.write_many(pages)
    small_ids = [page.page_id for page in small]
    page_ids = [page.page_id for page in pages]
    small_calls, small_builtin = count_calls(disk.write_many, small,
                                             small_ids)
    large_calls, large_builtin = count_calls(disk.write_many, pages,
                                             page_ids)

    def per_page_writes(batch):
        for page in batch:
            disk.write_page(page)

    per_page_calls, _ = count_calls(per_page_writes, pages)
    per_page = (large_builtin - small_builtin) / (len(pages) - len(small))
    print(f"write_many: {large_calls} interpreted calls per batch, "
          f"{per_page:.1f} builtin calls per page "
          f"(per-page write_page: {per_page_calls} interpreted calls "
          f"for {len(pages)} pages)")
    assert small_calls == large_calls, (
        f"write_many makes {small_calls} interpreted calls for "
        f"{len(small)} pages and {large_calls} for {len(pages)} "
        f"(need equal)"
    )
    assert per_page <= WRITE_MANY_BUILTIN_CALLS_PER_PAGE, (
        f"write_many makes {per_page:.1f} builtin calls per page "
        f"(need <= {WRITE_MANY_BUILTIN_CALLS_PER_PAGE})"
    )

    store = {}
    lost = set()
    stats = disk.stats

    def classic_loop():
        for page in pages:
            store[page.page_id] = _copy_per_op_stamped_image(page)
            lost.discard(page.page_id)
            stats.incr(DISK_PAGE_WRITES)

    def slab_batch():
        disk.write_many(pages, page_ids)

    classic_loop()  # warm both paths before timing
    slab_batch()
    classic_s = slab_s = float("inf")
    for _ in range(8):
        start = wall_seconds()
        for _ in range(20):
            classic_loop()
        classic_s = min(classic_s, wall_seconds() - start)
        start = wall_seconds()
        for _ in range(20):
            slab_batch()
        slab_s = min(slab_s, wall_seconds() - start)
    print(f"slab write_many speedup at batch {BATCH}: "
          f"{classic_s / slab_s:.2f}x "
          f"({classic_s * 1e3:.2f}ms vs {slab_s * 1e3:.2f}ms)")
    # Both sides stored the same checksummed images.
    for page in pages:
        assert disk.raw_image(page.page_id) == store[page.page_id]


def test_disabled_injector_is_zero_cost():
    """Acceptance gate: with no injector (the default null object) and
    with an enabled injector holding an empty plan, the chaos workload
    must be byte-identical — same trace, same counters.  The fault
    seams are guarded by a single ``enabled`` attribute check, so
    leaving them off cannot perturb a run."""
    from repro.faults import scenarios
    from repro.faults.injector import NULL_INJECTOR, FaultInjector, FaultPlan

    null_sd, null_tracer = scenarios.build_sd(NULL_INJECTOR, seed=0)
    scenarios.run_sd_workload(null_sd, 0)

    live_sd, live_tracer = scenarios.build_sd(
        FaultInjector(FaultPlan(seed=0)), seed=0)
    scenarios.run_sd_workload(live_sd, 0)

    assert live_tracer.dump_jsonl() == null_tracer.dump_jsonl()
    assert live_sd.stats.snapshot() == null_sd.stats.snapshot()


def test_span_tracing_off_is_zero_drift():
    """Acceptance gate for the span layer: running the chaos workload
    untraced (the NULL_TRACER default) must leave the stats counters
    identical to a traced run — the span seams are guarded by a single
    ``enabled`` check and mint no counters of their own, so turning
    tracing off cannot drift a benchmark."""
    from repro.faults import scenarios
    from repro.faults.injector import NULL_INJECTOR
    from repro.obs import events as ev
    from repro.sd.complex import SDComplex

    traced_sd, tracer = scenarios.build_sd(NULL_INJECTOR, seed=0)
    scenarios.run_sd_workload(traced_sd, 0)
    assert any(e.kind == ev.SPAN_BEGIN for e in tracer.events())

    untraced_sd = SDComplex(n_data_pages=64, injector=NULL_INJECTOR)
    for system_id in (1, 2):
        untraced_sd.add_instance(system_id)
    scenarios.run_sd_workload(untraced_sd, 0)

    assert untraced_sd.tracer.events() == []
    assert untraced_sd.stats.snapshot() == traced_sd.stats.snapshot()


def test_micro_injector_guard_overhead(benchmark):
    """The seam cost when faults are off: one attribute check per
    engine update/commit cycle (compare test_micro_engine_update_commit
    — the two must stay in the same ballpark)."""
    sd, (s1,) = build_sd(1, n_data_pages=256)
    assert not s1.injector.enabled
    page_id, slot = committed_row(s1)

    def txn_cycle():
        txn = s1.begin()
        s1.update(txn, page_id, slot, b"value")
        s1.commit(txn)

    benchmark(txn_cycle)
