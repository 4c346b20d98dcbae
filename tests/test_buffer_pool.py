"""Tests for the buffer pool: fixing, eviction, WAL enforcement."""

import pytest

from repro.common.errors import BufferPoolFullError, WALViolationError
from repro.common.seams import Seams
from repro.common.stats import (
    BUFFER_BATCH_FLUSHES,
    DISK_PAGE_READS,
    DISK_PAGE_WRITES,
    LOG_FORCES,
    LOG_FORCES_COALESCED,
)
from repro.buffer.buffer_pool import BufferPool
from repro.storage.disk import SharedDisk
from repro.storage.page import Page, PageType
from repro.wal.log_manager import LogManager
from repro.wal.records import make_update


def setup_pool(capacity=4, enforce_wal=True):
    seams = Seams.of()
    disk = SharedDisk(1000, seams)
    log = LogManager(1, seams)
    pool = BufferPool(disk, log, capacity=capacity, enforce_wal=enforce_wal)
    return pool, disk, log, seams.stats


def seed_page(disk, page_id, payload=b"seed"):
    page = Page()
    page.format(page_id, PageType.DATA)
    page.insert_record(payload)
    disk.write_page(page)


def log_an_update(pool, log, page_id):
    """Simulate the engine logging one update against a fixed page."""
    page = pool.bcb(page_id).page
    record = make_update(1, 1, page_id, 0, b"r", b"u")
    addr = log.append(record, page_lsn=page.page_lsn)
    page.page_lsn = record.lsn
    pool.note_update(page_id, record.lsn, addr.offset, log.end_offset)
    return record


class TestFixing:
    def test_miss_reads_from_disk(self):
        pool, disk, _, stats = setup_pool()
        seed_page(disk, 5)
        page = pool.fix(5)
        assert page.read_record(0) == b"seed"
        assert stats.get(DISK_PAGE_READS) == 1

    def test_hit_avoids_disk(self):
        pool, disk, _, stats = setup_pool()
        seed_page(disk, 5)
        pool.fix(5)
        pool.unfix(5)
        pool.fix(5)
        assert stats.get(DISK_PAGE_READS) == 1

    def test_unfix_without_fix_raises(self):
        pool, disk, _, _ = setup_pool()
        seed_page(disk, 5)
        pool.fix(5)
        pool.unfix(5)
        with pytest.raises(ValueError):
            pool.unfix(5)

    def test_install_page_skips_disk(self):
        pool, _, _, stats = setup_pool()
        page = Page()
        page.format(9, PageType.INDEX)
        pool.install_page(page)
        assert pool.contains(9)
        assert pool.bcb(9).fix_count == 1
        assert stats.get(DISK_PAGE_READS) == 0

    def test_install_duplicate_raises(self):
        pool, disk, _, _ = setup_pool()
        seed_page(disk, 5)
        pool.fix(5)
        dup = Page()
        dup.format(5, PageType.DATA)
        with pytest.raises(ValueError):
            pool.install_page(dup)


class TestEviction:
    def test_lru_evicts_clean_unfixed(self):
        pool, disk, _, _ = setup_pool(capacity=2)
        for page_id in (1, 2):
            seed_page(disk, page_id)
            pool.fix(page_id)
            pool.unfix(page_id)
        seed_page(disk, 3)
        pool.fix(3)
        assert not pool.contains(1)  # LRU victim
        assert pool.contains(2)

    def test_eviction_writes_dirty_victim(self):
        pool, disk, log, stats = setup_pool(capacity=1)
        seed_page(disk, 1)
        pool.fix(1)
        log_an_update(pool, log, 1)
        pool.unfix(1)
        seed_page(disk, 2)
        writes_before = stats.get(DISK_PAGE_WRITES)
        pool.fix(2)
        assert stats.get(DISK_PAGE_WRITES) == writes_before + 1
        assert not pool.contains(1)

    def test_all_fixed_raises(self):
        pool, disk, _, _ = setup_pool(capacity=2)
        for page_id in (1, 2):
            seed_page(disk, page_id)
            pool.fix(page_id)
        seed_page(disk, 3)
        with pytest.raises(BufferPoolFullError):
            pool.fix(3)

    def test_fix_count_pins(self):
        pool, disk, _, _ = setup_pool(capacity=2)
        seed_page(disk, 1)
        pool.fix(1)
        seed_page(disk, 2)
        pool.fix(2)
        pool.unfix(2)
        seed_page(disk, 3)
        pool.fix(3)
        assert pool.contains(1)      # pinned, spared
        assert not pool.contains(2)  # evicted instead


class TestWal:
    def test_write_forces_log_first(self):
        """Invariant I3: dirty page write forces the log through the
        last update's address."""
        pool, disk, log, stats = setup_pool()
        seed_page(disk, 1)
        pool.fix(1)
        log_an_update(pool, log, 1)
        assert log.flushed_offset == 0
        pool.write_page(1)
        assert log.flushed_offset >= pool_last_update_end(pool, log)
        assert stats.get(LOG_FORCES) == 1

    def test_wal_violation_surfaces_when_forcing_disabled(self):
        pool, disk, log, _ = setup_pool(enforce_wal=False)
        seed_page(disk, 1)
        pool.fix(1)
        log_an_update(pool, log, 1)
        with pytest.raises(WALViolationError):
            pool.write_page(1)

    def test_no_force_needed_if_log_already_stable(self):
        pool, disk, log, stats = setup_pool()
        seed_page(disk, 1)
        pool.fix(1)
        log_an_update(pool, log, 1)
        log.force()
        forces = stats.get(LOG_FORCES)
        pool.write_page(1)
        assert stats.get(LOG_FORCES) == forces

    def test_write_marks_clean(self):
        pool, disk, log, _ = setup_pool()
        seed_page(disk, 1)
        pool.fix(1)
        log_an_update(pool, log, 1)
        pool.write_page(1)
        bcb = pool.bcb(1)
        assert not bcb.dirty
        assert bcb.rec_addr is None


def pool_last_update_end(pool, log):
    # After write_page the BCB is reset; the log end bounds the record.
    return log.flushed_offset


class TestBcbTracking:
    def test_rec_addr_set_on_first_update_only(self):
        """Section 3.2.2: RecAddr is the address of the update that took
        the page from clean to dirty; later updates keep it."""
        pool, disk, log, _ = setup_pool()
        seed_page(disk, 1)
        pool.fix(1)
        log_an_update(pool, log, 1)
        first_addr = pool.bcb(1).rec_addr
        first_lsn = pool.bcb(1).rec_lsn
        log_an_update(pool, log, 1)
        assert pool.bcb(1).rec_addr == first_addr
        assert pool.bcb(1).rec_lsn == first_lsn

    def test_last_update_end_advances(self):
        pool, disk, log, _ = setup_pool()
        seed_page(disk, 1)
        pool.fix(1)
        log_an_update(pool, log, 1)
        end1 = pool.bcb(1).last_update_end
        log_an_update(pool, log, 1)
        assert pool.bcb(1).last_update_end > end1

    def test_dirty_page_table(self):
        pool, disk, log, _ = setup_pool()
        for page_id in (1, 2):
            seed_page(disk, page_id)
            pool.fix(page_id)
        log_an_update(pool, log, 1)
        dpt = pool.dirty_page_table()
        assert set(dpt) == {1}
        rec_lsn, rec_addr = dpt[1]
        assert rec_lsn == pool.bcb(1).rec_lsn
        assert rec_addr == pool.bcb(1).rec_addr

    def test_receive_dirty_retains_old_rec_addr(self):
        """CS server path: a second dirty receipt keeps the first
        RecAddr (paper Section 3.2.2, explicitly)."""
        pool, disk, log, _ = setup_pool()
        page = Page()
        page.format(7, PageType.DATA)
        pool.receive_dirty(page.copy(), rec_lsn=10, rec_addr=128,
                           last_update_end=256)
        pool.receive_dirty(page.copy(), rec_lsn=50, rec_addr=999,
                           last_update_end=1024)
        bcb = pool.bcb(7)
        assert bcb.rec_addr == 128
        assert bcb.rec_lsn == 10
        assert bcb.last_update_end == 1024


class TestDropAndCrash:
    def test_drop_clean_page(self):
        pool, disk, _, _ = setup_pool()
        seed_page(disk, 1)
        pool.fix(1)
        pool.unfix(1)
        pool.drop_page(1)
        assert not pool.contains(1)

    def test_drop_dirty_refuses(self):
        pool, disk, log, _ = setup_pool()
        seed_page(disk, 1)
        pool.fix(1)
        log_an_update(pool, log, 1)
        pool.unfix(1)
        with pytest.raises(ValueError):
            pool.drop_page(1)

    def test_drop_missing_is_noop(self):
        pool, _, _, _ = setup_pool()
        pool.drop_page(12345)

    def test_crash_empties_pool(self):
        pool, disk, log, _ = setup_pool()
        seed_page(disk, 1)
        pool.fix(1)
        log_an_update(pool, log, 1)
        pool.crash()
        assert len(pool) == 0

    def test_flush_all(self):
        pool, disk, log, stats = setup_pool()
        for page_id in (1, 2, 3):
            seed_page(disk, page_id)
            pool.fix(page_id)
            log_an_update(pool, log, page_id)
        writes_before = stats.get(DISK_PAGE_WRITES)
        pool.flush_all()
        assert stats.get(DISK_PAGE_WRITES) == writes_before + 3
        assert pool.dirty_page_table() == {}


class TestLruOrder:
    def test_rereference_resets_eviction_order(self):
        """A page re-fixed (or re-touched via put_page) moves to the MRU
        end; the LRU victim is always the least-recently-*used* page,
        not the least-recently-*loaded* one."""
        pool, disk, _, stats = setup_pool(capacity=3)
        for page_id in (1, 2, 3):
            seed_page(disk, page_id)
            pool.fix(page_id)
            pool.unfix(page_id)
        # Touch 1 again: eviction order becomes 2, 3, 1.
        pool.fix(1)
        pool.unfix(1)
        seed_page(disk, 4)
        pool.fix(4)  # evicts 2
        assert not pool.contains(2)
        assert pool.contains(1) and pool.contains(3)
        seed_page(disk, 5)
        pool.fix(5)  # evicts 3
        assert not pool.contains(3)
        assert pool.contains(1)

    def test_repeated_rereference_pins_hot_page_logically(self):
        pool, disk, _, _ = setup_pool(capacity=2)
        seed_page(disk, 1)
        seed_page(disk, 2)
        pool.fix(1)
        pool.unfix(1)
        for page_id in (2, 3, 4, 5):
            if page_id > 2:
                seed_page(disk, page_id)
            pool.fix(1)      # keep 1 hot before each new page arrives
            pool.unfix(1)
            pool.fix(page_id)
            pool.unfix(page_id)
        assert pool.contains(1)  # survived four eviction rounds


class TestBatchFlush:
    def _dirty_pages(self, pool, disk, log, page_ids):
        for page_id in page_ids:
            seed_page(disk, page_id)
            pool.fix(page_id)
            log_an_update(pool, log, page_id)
            pool.unfix(page_id)

    def test_flush_pages_forces_log_once(self):
        """Tentpole acceptance: one batch flush = exactly one LOG_FORCES
        bump, however many dirty pages are in the set."""
        pool, disk, log, stats = setup_pool(capacity=8)
        self._dirty_pages(pool, disk, log, [1, 2, 3, 4])
        assert stats.get(LOG_FORCES) == 0
        written = pool.flush_pages([1, 2, 3, 4])
        assert written == 4
        assert stats.get(LOG_FORCES) == 1
        assert stats.get(LOG_FORCES_COALESCED) == 3
        assert all(not pool.is_dirty(p) for p in (1, 2, 3, 4))

    def test_per_page_path_forces_n_times(self):
        """The slow-path contrast: page-at-a-time writes pay one force
        per page when each page's updates extend the log."""
        pool, disk, log, stats = setup_pool(capacity=8)
        self._dirty_pages(pool, disk, log, [1, 2, 3, 4])
        for page_id in (1, 2, 3, 4):
            pool.write_page(page_id)
        assert stats.get(LOG_FORCES) == 4

    def test_on_before_write_fires_per_page(self):
        seen = []
        pool, disk, log, stats = setup_pool(capacity=8)
        pool.on_before_write = lambda bcb: seen.append(bcb.page.page_id)
        self._dirty_pages(pool, disk, log, [1, 2, 3])
        pool.flush_pages([1, 2, 3])
        assert seen == [1, 2, 3]

    def test_flush_all_uses_batch_lane(self):
        pool, disk, log, stats = setup_pool(capacity=8)
        self._dirty_pages(pool, disk, log, [1, 2, 3])
        written = pool.flush_all()
        assert written == 3
        assert stats.get(LOG_FORCES) == 1
        assert stats.get(BUFFER_BATCH_FLUSHES) == 1

    def test_wal_violation_raised_before_any_write(self):
        pool, disk, log, stats = setup_pool(capacity=8, enforce_wal=False)
        self._dirty_pages(pool, disk, log, [1, 2])
        writes_before = stats.get(DISK_PAGE_WRITES)
        with pytest.raises(WALViolationError):
            pool.flush_pages([1, 2])
        assert stats.get(DISK_PAGE_WRITES) == writes_before

    def test_clean_pages_write_without_force(self):
        pool, disk, log, stats = setup_pool(capacity=8)
        for page_id in (1, 2):
            seed_page(disk, page_id)
            pool.fix(page_id)
            pool.unfix(page_id)
        pool.flush_pages([1, 2])
        assert stats.get(LOG_FORCES) == 0
