"""Tests for the USN log manager — the paper's core algorithm."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import NULL_LSN
from repro.common.seams import Seams
from repro.common.stats import (
    LOG_FORCES,
    LOG_FORCES_COALESCED,
    LOG_RECORDS_WRITTEN,
    StatsRegistry,
)
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord, RecordKind, make_update


def rec(txn_id=1, page_id=10):
    return make_update(txn_id, 0, page_id, 0, redo=b"r", undo=b"u")


class TestUsnAssignment:
    def test_first_lsn_is_one(self):
        log = LogManager(1)
        log.append(rec())
        assert log.local_max_lsn == 1

    def test_sequential_without_hint(self):
        log = LogManager(1)
        lsns = []
        for _ in range(5):
            record = rec()
            log.append(record)
            lsns.append(record.lsn)
        assert lsns == [1, 2, 3, 4, 5]

    def test_page_lsn_hint_dominates(self):
        """Section 3.2.1: LSN = max(page_LSN, Local_Max_LSN) + 1."""
        log = LogManager(1)
        record = rec()
        log.append(record, page_lsn=100)
        assert record.lsn == 101
        assert log.local_max_lsn == 101

    def test_local_max_dominates_small_hint(self):
        log = LogManager(1)
        log.append(rec(), page_lsn=100)
        record = rec()
        log.append(record, page_lsn=5)
        assert record.lsn == 102

    def test_monotonic_across_pages(self):
        """Within one system, LSNs increase even across different pages
        (the property the LSN-only merge relies on)."""
        log = LogManager(1)
        previous = 0
        for page_id in (3, 1, 7, 1, 3):
            record = rec(page_id=page_id)
            log.append(record, page_lsn=previous // 2)
            assert record.lsn > previous
            previous = record.lsn

    def test_next_lsn_preview(self):
        log = LogManager(1)
        log.append(rec(), page_lsn=9)
        assert log.next_lsn() == 11
        assert log.next_lsn(page_lsn=50) == 51

    def test_append_stamps_system_id(self):
        log = LogManager(6)
        record = rec()
        log.append(record)
        assert record.system_id == 6

    @pytest.mark.parametrize("append", ["append", "append_many"])
    def test_out_of_shape_record_leaves_log_and_clock(self, append):
        log = LogManager(1)
        log.append(rec())
        misfit = LogRecord(RecordKind.COMMIT, txn_id=1, page_id=10)
        with pytest.raises(ValueError, match="header shape"):
            if append == "append":
                log.append(misfit, page_lsn=50)
            else:
                log.append_many([rec(), misfit])
        assert (log.local_max_lsn, log.end_offset) == (1, 29 + 2)
        assert log.record_count() == 1


class TestLamportExchange:
    def test_observe_remote_max_raises_clock(self):
        log = LogManager(1)
        log.append(rec())
        log.observe_remote_max(500)
        record = rec()
        log.append(record)
        assert record.lsn == 501

    def test_observe_smaller_value_ignored(self):
        log = LogManager(1)
        log.append(rec(), page_lsn=100)
        log.observe_remote_max(50)
        assert log.local_max_lsn == 101

    def test_two_systems_converge_through_exchange(self):
        a, b = LogManager(1), LogManager(2)
        for _ in range(10):
            a.append(rec())
        b.observe_remote_max(a.local_max_lsn)
        record = rec()
        b.append(record)
        assert record.lsn == 11


class TestStableStorage:
    def test_force_and_is_stable(self):
        log = LogManager(1)
        log.append(rec())
        end = log.end_offset
        assert not log.is_stable(end)
        log.force()
        assert log.is_stable(end)

    def test_partial_force(self):
        log = LogManager(1)
        log.append(rec())
        first_end = log.end_offset
        log.append(rec())
        log.force(up_to=first_end)
        assert log.is_stable(first_end)
        assert not log.is_stable(log.end_offset)

    def test_force_counts_only_when_advancing(self):
        stats = StatsRegistry()
        log = LogManager(1, Seams.of(stats))
        log.append(rec())
        log.force()
        log.force()
        log.force()
        assert stats.get(LOG_FORCES) == 1

    def test_crash_discards_unflushed_tail(self):
        log = LogManager(1)
        log.append(rec(txn_id=1))
        log.force()
        log.append(rec(txn_id=2))
        log.crash()
        survivors = [r.txn_id for _, r in log.scan()]
        assert survivors == [1]

    def test_crash_without_force_loses_everything(self):
        log = LogManager(1)
        log.append(rec())
        log.crash()
        assert log.record_count() == 0

    def test_recover_local_max(self):
        log = LogManager(1)
        log.append(rec(), page_lsn=400)
        log.force()
        log.crash()
        log.local_max_lsn = NULL_LSN
        assert log.recover_local_max() == 401


class TestScan:
    def test_scan_yields_addresses_in_order(self):
        log = LogManager(3)
        for _ in range(3):
            log.append(rec())
        entries = list(log.scan())
        assert [a.system_id for a, _ in entries] == [3, 3, 3]
        offsets = [a.offset for a, _ in entries]
        assert offsets == sorted(offsets)
        assert offsets[0] == 0

    def test_scan_from_offset(self):
        log = LogManager(1)
        log.append(rec(txn_id=1))
        second = log.end_offset
        log.append(rec(txn_id=2))
        records = [r.txn_id for _, r in log.scan(from_offset=second)]
        assert records == [2]

    def test_read_record_at(self):
        log = LogManager(1)
        log.append(rec(txn_id=1))
        offset = log.end_offset
        log.append(rec(txn_id=42))
        assert log.read_record_at(offset).txn_id == 42

    def test_records_written_counter(self):
        stats = StatsRegistry()
        log = LogManager(1, Seams.of(stats))
        log.append(rec())
        log.append(rec())
        assert stats.get(LOG_RECORDS_WRITTEN) == 2


class TestAppendRaw:
    def test_append_raw_preserves_lsns(self):
        client = LogManager(5)
        r1, r2 = rec(), rec()
        client.append(r1, page_lsn=100)
        client.append(r2)
        data = r1.to_bytes() + r2.to_bytes()

        server = LogManager(0)
        server.append_raw(data)
        stored = [r.lsn for _, r in server.scan()]
        assert stored == [101, 102]

    def test_append_raw_absorbs_max(self):
        server = LogManager(0)
        record = rec()
        record.lsn = 999
        server.append_raw(record.to_bytes())
        assert server.local_max_lsn == 999
        fresh = rec()
        server.append(fresh)
        assert fresh.lsn == 1000


@settings(max_examples=60, deadline=None)
@given(hints=st.lists(st.integers(0, 10_000), min_size=1, max_size=100))
def test_property_lsns_strictly_increase(hints):
    """Invariant I2: whatever page_LSN hints arrive, the local log's
    LSN sequence is strictly increasing."""
    log = LogManager(1)
    previous = 0
    for hint in hints:
        record = rec()
        log.append(record, page_lsn=hint)
        assert record.lsn > previous
        assert record.lsn > hint
        previous = record.lsn


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers(0, 1000)),
            st.tuples(st.just("observe"), st.integers(0, 5000)),
        ),
        min_size=1, max_size=80,
    )
)
def test_property_lamport_merge_never_decreases(ops):
    log = LogManager(1)
    previous_max = 0
    for kind, value in ops:
        if kind == "append":
            log.append(rec(), page_lsn=value)
        else:
            log.observe_remote_max(value)
        assert log.local_max_lsn >= previous_max
        previous_max = log.local_max_lsn


class TestAppendMany:
    """The batched append lane must be *semantically identical* to a
    loop of single appends — same LSNs, same bytes, same addresses."""

    def _batch(self, n=5):
        return [rec(txn_id=i + 1, page_id=10 + i) for i in range(n)]

    def test_matches_sequential_appends(self):
        slow, fast = LogManager(1), LogManager(1)
        slow_records, fast_records = self._batch(), self._batch()
        slow_addrs = [slow.append(r) for r in slow_records]
        fast_addrs = fast.append_many(fast_records)
        assert fast_addrs == slow_addrs
        assert [r.lsn for r in fast_records] == [r.lsn for r in slow_records]
        assert bytes(slow._buffer) == bytes(fast._buffer)
        assert slow.local_max_lsn == fast.local_max_lsn

    def test_matches_sequential_with_page_lsns(self):
        hints = [0, 100, 3, 100, 250]
        slow, fast = LogManager(1), LogManager(1)
        slow_records, fast_records = self._batch(), self._batch()
        slow_addrs = [
            slow.append(r, page_lsn=h) for r, h in zip(slow_records, hints)
        ]
        fast_addrs = fast.append_many(fast_records, page_lsns=hints)
        assert fast_addrs == slow_addrs
        assert [r.lsn for r in fast_records] == [r.lsn for r in slow_records]
        assert bytes(slow._buffer) == bytes(fast._buffer)

    def test_stamps_system_id(self):
        log = LogManager(7)
        records = self._batch()
        log.append_many(records)
        assert all(r.system_id == 7 for r in records)

    def test_counters_match_sequential(self):
        slow, fast = LogManager(1), LogManager(1)
        for r in self._batch():
            slow.append(r)
        fast.append_many(self._batch())
        assert (slow.stats.get(LOG_RECORDS_WRITTEN)
                == fast.stats.get(LOG_RECORDS_WRITTEN) == 5)
        assert slow.stats.snapshot() == fast.stats.snapshot()

    def test_length_mismatch_rejected(self):
        log = LogManager(1)
        with pytest.raises(ValueError):
            log.append_many(self._batch(3), page_lsns=[0, 0])

    def test_empty_batch(self):
        log = LogManager(1)
        assert log.append_many([]) == []
        assert log.local_max_lsn == NULL_LSN

    def test_records_scannable(self):
        log = LogManager(1)
        records = self._batch()
        addrs = log.append_many(records)
        scanned = list(log.scan())
        assert [a for a, _ in scanned] == addrs
        assert [r for _, r in scanned] == records

    def test_cached_encoding_survives_roundtrip(self):
        log = LogManager(1)
        records = self._batch()
        log.append_many(records)
        for record in records:
            clone, _ = LogRecord.from_bytes(record.to_bytes())
            assert clone == record


class TestForceThrough:
    def _log_with_offsets(self, n=4):
        log = LogManager(1)
        addrs = log.append_many([rec() for _ in range(n)])
        ends = [a.offset for a in addrs[1:]] + [log.end_offset]
        return log, ends

    def test_coalesces_into_one_force(self):
        log, ends = self._log_with_offsets()
        coalesced = log.force_through(ends)
        assert coalesced == len(ends) - 1
        assert log.stats.get(LOG_FORCES) == 1
        assert log.stats.get(LOG_FORCES_COALESCED) == len(ends) - 1
        assert log.flushed_offset == max(ends)

    def test_already_stable_offsets_are_free(self):
        log, ends = self._log_with_offsets()
        log.force()
        assert log.force_through(ends) == 0
        assert log.stats.get(LOG_FORCES) == 1
        assert log.stats.get(LOG_FORCES_COALESCED) == 0

    def test_single_pending_is_not_coalesced(self):
        log, ends = self._log_with_offsets()
        assert log.force_through([ends[0]]) == 0
        assert log.stats.get(LOG_FORCES) == 1
        assert log.stats.get(LOG_FORCES_COALESCED) == 0

    def test_partial_overlap(self):
        log, ends = self._log_with_offsets()
        log.force(up_to=ends[1])
        coalesced = log.force_through(ends)
        assert coalesced == len(ends) - 3  # first two already stable
        assert log.flushed_offset == max(ends)

    def test_empty_iterable(self):
        log, _ = self._log_with_offsets()
        assert log.force_through([]) == 0
        assert log.stats.get(LOG_FORCES) == 0
