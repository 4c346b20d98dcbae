"""Tests for the CS client log manager (virtual-storage buffering)."""

from repro.wal.client_log import ClientLogManager
from repro.wal.records import LogRecord, RecordKind, make_update


def rec(txn_id=1_000_001, page_id=10):
    return make_update(txn_id, 0, page_id, 0, redo=b"r", undo=b"u")


class TestLsnAssignment:
    def test_same_usn_rule_as_local_logs(self):
        log = ClientLogManager(1)
        record = rec()
        log.append(record, page_lsn=40)
        assert record.lsn == 41
        second = rec()
        log.append(second)
        assert second.lsn == 42

    def test_stamps_client_identity(self):
        """Section 3.1: client log records carry the client's identity."""
        log = ClientLogManager(9)
        record = rec()
        log.append(record)
        assert record.system_id == 9

    def test_observe_remote_max(self):
        log = ClientLogManager(1)
        log.observe_remote_max(300)
        record = rec()
        log.append(record)
        assert record.lsn == 301


class TestShipping:
    def test_ship_drains_pending(self):
        log = ClientLogManager(1)
        log.append(rec())
        log.append(rec())
        assert log.pending_count() == 2
        data = log.ship()
        assert len(data) > 0
        assert log.pending_count() == 0
        assert log.ship() == b""

    def test_shipped_bytes_parse_in_order(self):
        log = ClientLogManager(1)
        records = [rec(page_id=p) for p in (5, 6, 7)]
        for record in records:
            log.append(record)
        data = log.ship()
        parsed = [r for _, r in LogRecord.parse_stream(data)]
        assert [r.page_id for r in parsed] == [5, 6, 7]
        assert [r.lsn for r in parsed] == [1, 2, 3]


class TestRetainedRecords:
    def test_records_retained_across_ship_for_rollback(self):
        log = ClientLogManager(1)
        record = rec(txn_id=1_000_001)
        log.append(record)
        log.ship()
        assert log.records_of_txn(1_000_001) == [record]

    def test_commit_record_forgets_txn(self):
        log = ClientLogManager(1)
        log.append(rec(txn_id=1_000_001))
        log.append(LogRecord(kind=RecordKind.COMMIT, txn_id=1_000_001))
        assert log.records_of_txn(1_000_001) == []

    def test_end_record_is_not_special(self):
        """A rollback's END is retained like any record; the client
        forgets the transaction once the rollback has ended."""
        log = ClientLogManager(1)
        update = rec(txn_id=1_000_001)
        log.append(update)
        end = LogRecord(kind=RecordKind.END, txn_id=1_000_001)
        log.append(end)
        assert log.records_of_txn(1_000_001) == [update, end]

    def test_forget_txn(self):
        log = ClientLogManager(1)
        log.append(rec(txn_id=1_000_001))
        log.forget_txn(1_000_001)
        assert log.records_of_txn(1_000_001) == []

    def test_txns_tracked_independently(self):
        log = ClientLogManager(1)
        a = rec(txn_id=1_000_001)
        b = rec(txn_id=1_000_002)
        log.append(a)
        log.append(b)
        assert log.records_of_txn(1_000_001) == [a]
        assert log.records_of_txn(1_000_002) == [b]


class TestCrash:
    def test_crash_loses_everything(self):
        log = ClientLogManager(1)
        log.append(rec())
        log.crash()
        assert log.pending_count() == 0
        assert log.records_of_txn(1_000_001) == []
        assert log.local_max_lsn == 0
