"""Tests for the log inspection utilities."""

from repro import SDComplex
from repro.recovery.checkpoint import take_checkpoint
from repro.wal.inspect import (
    describe_record,
    dump_log,
    page_history,
    summarize_log,
    transaction_history,
)


def instance_with_history():
    sd = SDComplex(n_data_pages=128)
    s1 = sd.add_instance(1)
    txn = s1.begin()
    page_id = s1.allocate_page(txn)
    slot = s1.insert(txn, page_id, b"hello-world")
    s1.update(txn, page_id, slot, b"updated-bytes")
    s1.commit(txn)
    loser = s1.begin()
    s1.update(loser, page_id, slot, b"rolled-back")
    s1.rollback(loser)
    take_checkpoint(s1)
    return sd, s1, txn.txn_id, loser.txn_id, page_id


class TestDump:
    def test_dump_renders_every_record(self):
        sd, s1, *_ = instance_with_history()
        text = dump_log(s1.log)
        assert text.count("\n") == s1.log.record_count()  # header + lines
        assert "lsn=" in text
        assert "CMT" in text and "CLR" in text and "ECK" in text

    def test_dump_limit(self):
        sd, s1, *_ = instance_with_history()
        text = dump_log(s1.log, limit=2)
        assert "truncated" in text

    def test_header_fields(self):
        sd, s1, *_ = instance_with_history()
        header = dump_log(s1.log).splitlines()[0]
        assert "system 1" in header
        assert "Local_Max_LSN" in header

    def test_describe_record_checkpoint_payload(self):
        sd, s1, *_ = instance_with_history()
        lines = dump_log(s1.log).splitlines()
        eck = next(line for line in lines if "ECK" in line)
        assert "dpt=" in eck and "txns=" in eck


class TestSummaries:
    def test_summary_counts(self):
        sd, s1, txn_id, loser_id, page_id = instance_with_history()
        summary = summarize_log(s1.log)
        assert summary.records == s1.log.record_count()
        assert summary.by_kind["CMT"] == 1
        assert summary.by_kind["CLR"] == 1
        assert txn_id in summary.transactions
        assert page_id in summary.pages
        assert summary.last_lsn >= summary.first_lsn > 0
        assert "records" in summary.render()

    def test_bytes_by_kind_account_for_the_whole_log(self):
        sd, s1, *_ = instance_with_history()
        summary = summarize_log(s1.log)
        assert set(summary.bytes_by_kind) == set(summary.by_kind)
        assert sum(summary.bytes_by_kind.values()) == s1.log.end_offset
        # Control records are header-only: 27 bytes each.
        assert summary.bytes_by_kind["CMT"] == 27 * summary.by_kind["CMT"]
        assert summary.bytes_by_kind["END"] == 27 * summary.by_kind["END"]
        assert f"bytes {s1.log.end_offset}: " in summary.render()
        assert f"CMT={summary.bytes_by_kind['CMT']}" in summary.render()

    def test_transaction_history(self):
        sd, s1, txn_id, loser_id, _ = instance_with_history()
        history = transaction_history(s1.log, loser_id)
        assert any("CLR" in line for line in history)
        assert any("END" in line for line in history)

    def test_page_history_in_order(self):
        sd, s1, _, _, page_id = instance_with_history()
        history = page_history(s1.log, page_id)
        assert len(history) >= 4   # format, insert, update, loser, CLR
        # LSNs in the rendered lines are increasing (I2, readable form).
        lsns = [int(line.split("lsn=")[1].split()[0]) for line in history]
        assert lsns == sorted(lsns)
