"""Tests for the three baseline schemes the paper compares against."""

import pytest

from repro import SDComplex
from repro.baselines.global_log import GlobalLogComplex
from repro.baselines.lomet import (
    LometComplex,
    LometLogManager,
    bsi_of,
    lomet_recover_page,
)
from repro.baselines.naive import NaiveDbmsInstance, NaiveLogManager
from repro.common.stats import GLOBAL_LOG_LOCKS, MERGE_COMPARISONS, StatsRegistry
from repro.storage.image_copy import ImageCopy
from repro.wal.records import make_update


class TestNaiveLogManager:
    def test_lsn_equals_address_plus_one(self):
        log = NaiveLogManager(1)
        first = make_update(1, 1, 10, 0, b"r", b"u")
        log.append(first)
        assert first.lsn == 1
        second = make_update(1, 1, 10, 0, b"r", b"u")
        log.append(second, page_lsn=10_000)   # hint ignored
        assert second.lsn == len(first.to_bytes()) + 1

    def test_remote_max_ignored(self):
        log = NaiveLogManager(1)
        log.observe_remote_max(99999)
        record = make_update(1, 1, 10, 0, b"r", b"u")
        log.append(record)
        assert record.lsn == 1

    def test_monotonic_within_log(self):
        log = NaiveLogManager(1)
        previous = 0
        for _ in range(10):
            record = make_update(1, 1, 10, 0, b"r", b"u")
            log.append(record)
            assert record.lsn > previous
            previous = record.lsn


class TestNaiveInstance:
    def test_instance_recovers_fine_in_isolation(self):
        """Single system: naive LSNs are perfectly sound (the paper's
        point is that only *multi*-system sharing breaks them)."""
        complex_ = SDComplex(n_data_pages=128)
        s1 = complex_.add_instance(1, instance_cls=NaiveDbmsInstance)
        txn = s1.begin()
        page_id = s1.allocate_page(txn)
        slot = s1.insert(txn, page_id, b"solo")
        s1.commit(txn)
        complex_.crash_instance(1)
        complex_.restart_instance(1)
        assert complex_.disk.read_page(page_id).read_record(slot) == b"solo"

    # The cross-system anomaly itself is covered in
    # tests/test_sd_complex.py::TestSection15Anomaly.


class TestLometScheme:
    def test_per_page_lsn_sequence(self):
        log = LometLogManager(1)
        record = make_update(1, 1, 10, 0, b"r", b"u")
        log.append(record, page_lsn=5)
        assert record.lsn == 6
        assert bsi_of(record) == 5

    def test_update_and_recover_correctly(self):
        """Lomet recovers correctly — the comparison is about cost."""
        complex_ = LometComplex(n_data_pages=128)
        s1 = complex_.add_system(1)
        s2 = complex_.add_system(2)
        page_id = s1.allocate_page()
        slot = s1.insert(page_id, b"v0")
        s1.flush()
        dump = ImageCopy.take(complex_.disk)
        s1.update(page_id, slot, b"v1")
        s1.flush()
        s2.update(page_id, slot, b"v2")
        s2.flush()
        page = lomet_recover_page(page_id, dump, complex_.local_logs())
        assert page.read_record(slot) == b"v2"

    def test_redo_is_exact_match_not_greater_than(self):
        """Applying the merged stream twice must be idempotent under
        the equality test."""
        complex_ = LometComplex(n_data_pages=128)
        s1 = complex_.add_system(1)
        page_id = s1.allocate_page()
        slot = s1.insert(page_id, b"a")
        s1.update(page_id, slot, b"b")
        s1.flush()
        page = lomet_recover_page(page_id, None, complex_.local_logs())
        lsn_after = page.page_lsn
        # Re-run recovery starting from the recovered page: no record
        # matches page_lsn == BSI anymore.
        page2 = lomet_recover_page(page_id, None, complex_.local_logs())
        assert page2.page_lsn == lsn_after

    def test_dealloc_records_exact_lsn_in_smp(self):
        complex_ = LometComplex(n_data_pages=128)
        s1 = complex_.add_system(1)
        page_id = s1.allocate_page()
        slot = s1.insert(page_id, b"x")
        page = s1.pool.fix(page_id)
        lsn_before_dealloc = page.page_lsn
        page.delete_record(slot)
        s1.pool.unfix(page_id)
        s1.deallocate_page(page_id)
        geometry = complex_.space_map
        smp_slot = geometry.slot_for(page_id)
        smp_page = s1.pool.fix(smp_slot.smp_page_id)
        allocated, stored = geometry.read_entry(smp_page, smp_slot.index)
        s1.pool.unfix(smp_slot.smp_page_id)
        assert not allocated
        assert stored == lsn_before_dealloc

    def test_realloc_continues_page_sequence(self):
        complex_ = LometComplex(n_data_pages=128)
        s1 = complex_.add_system(1)
        page_id = s1.allocate_page()
        slot = s1.insert(page_id, b"x")
        page = s1.pool.fix(page_id)
        page.delete_record(slot)
        old_lsn = page.page_lsn
        s1.pool.unfix(page_id)
        s1.deallocate_page(page_id)
        new_page_id = s1.allocate_page(page_id=page_id)
        assert new_page_id == page_id
        new_lsn = s1.pool.bcb(page_id).page.page_lsn
        assert new_lsn == old_lsn + 1   # the sequence continues exactly

    def test_mass_delete_reads_every_page(self):
        complex_ = LometComplex(n_data_pages=128)
        s1 = complex_.add_system(1)
        pages = [s1.allocate_page() for _ in range(8)]
        s1.flush()
        # Drop them from the pool so the reads are real.
        for page_id in pages:
            if s1.pool.contains(page_id):
                s1.pool.drop_page(page_id)
        reads_before = complex_.stats.get("disk.page_reads")
        page_reads, log_records = s1.mass_delete(pages)
        assert page_reads == 8
        assert log_records == 8          # one SMP record per page
        assert complex_.stats.get("disk.page_reads") - reads_before >= 8

    def test_merge_cost_exceeds_usn(self):
        """E3 shape check at unit scale."""
        complex_ = LometComplex(n_data_pages=128)
        s1 = complex_.add_system(1)
        s2 = complex_.add_system(2)
        page_a = s1.allocate_page()
        slot = s1.insert(page_a, b"x")
        s1.flush()
        for i in range(30):
            system = (s1, s2)[i % 2]
            system.update(page_a, slot, b"v%02d" % i)
            # Hand the page over medium-transfer style: force to disk
            # and drop, so the other system reads the fresh version.
            system.pool.write_page(page_a)
            system.pool.drop_page(page_a)
        lomet_stats = StatsRegistry()
        from repro.wal.merge import lomet_merge
        list(lomet_merge(complex_.local_logs(), stats=lomet_stats))
        assert lomet_stats.get(MERGE_COMPARISONS) > 0


class TestGlobalLogBaseline:
    def build(self, n_systems=2):
        complex_ = GlobalLogComplex(n_data_pages=64)
        systems = [complex_.add_system(i + 1) for i in range(n_systems)]
        for page_id in range(complex_.data_start,
                             complex_.data_start + 4):
            complex_.format_page(page_id)
        return complex_, systems

    def test_commit_takes_one_global_lock(self):
        complex_, (s1, _) = self.build()
        page = complex_.data_start
        slot = s1.insert(txn_id=1, page_id=page, payload=b"a")
        before = complex_.stats.get(GLOBAL_LOG_LOCKS)
        s1.commit(1)
        assert complex_.stats.get(GLOBAL_LOG_LOCKS) == before + 1

    def test_force_before_commit_writes_pages(self):
        complex_, (s1, _) = self.build()
        page = complex_.data_start
        s1.insert(txn_id=1, page_id=page, payload=b"a")
        writes_before = complex_.stats.get("disk.page_writes")
        s1.commit(1)
        assert complex_.stats.get("disk.page_writes") == writes_before + 1
        assert complex_.disk.read_page(page).read_record(0) == b"a"

    def test_lock_cost_scales_with_commits(self):
        complex_, (s1, s2) = self.build()
        page = complex_.data_start
        for txn in range(1, 11):
            system = (s1, s2)[txn % 2]
            system.insert(txn_id=txn, page_id=page + txn % 4,
                          payload=b"p")
            system.commit(txn)
        assert complex_.stats.get(GLOBAL_LOG_LOCKS) == 10

    def test_usn_scheme_needs_zero_global_log_locks(self):
        """The E10 contrast: private local logs never take the global
        log lock."""
        sd = SDComplex(n_data_pages=128)
        s1 = sd.add_instance(1)
        txn = s1.begin()
        page_id = s1.allocate_page(txn)
        s1.insert(txn, page_id, b"x")
        s1.commit(txn)
        assert sd.stats.get(GLOBAL_LOG_LOCKS) == 0

    def test_global_log_records_in_transfer_order(self):
        complex_, (s1, s2) = self.build()
        page = complex_.data_start
        s1.insert(txn_id=1, page_id=page, payload=b"a")
        s2.insert(txn_id=2, page_id=page + 1, payload=b"b")
        s2.commit(2)
        s1.commit(1)
        log = complex_.global_log.log
        txn_order = [r.txn_id for _, r in log.scan() if r.txn_id]
        # s2's records land first although s1 updated first: the cache
        # transfer order, not the update order, rules — exactly the
        # reordering the paper says ARIES-style logging cannot accept.
        assert txn_order[0] == 2
