"""Tests for the log inspection utilities."""

from repro import SDComplex
from repro.recovery.checkpoint import take_checkpoint
from repro.wal.log_manager import LogManager
from repro.wal.records import (
    LogRecord,
    PageOp,
    RecordKind,
    encode_op,
    make_update,
)
from repro.wal.inspect import (
    describe_record,
    dump_log,
    page_history,
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

    def test_lengths_add_up_and_fallbacks_are_marked(self):
        sd, s1, *_ = instance_with_history()
        lines = dump_log(s1.log).splitlines()[1:]
        sizes = [int(line.split()[2].rstrip("B")) for line in lines]
        assert sum(sizes) == s1.log.end_offset
        assert not any("+full" in line for line in lines)
        redo, undo = encode_op(PageOp.SET, b"r"), encode_op(PageOp.SET, b"u")
        log = LogManager(1)
        log.append(make_update(1, 1, 5, 0, redo, undo))
        log.append(LogRecord(RecordKind.UPDATE, txn_id=2**40, page_id=5,
                             slot=0, redo=redo, undo=undo))
        narrow, full = dump_log(log).splitlines()[1:]
        assert "  33B UPD t1 " in narrow
        assert "  52B UPD+full t1099511627776 " in full

    def test_equal_length_overwrite_prints_one_xor(self):
        """An equal-length overwrite and the CLR that undoes it each
        print one XOR operand, and the update prints no undo."""
        sd = SDComplex(n_data_pages=128)
        s1 = sd.add_instance(1)
        txn = s1.begin()
        page_id = s1.allocate_page(txn)
        slot = s1.insert(txn, page_id, b"hello-world")
        s1.commit(txn)
        loser = s1.begin()
        s1.update(loser, page_id, slot, b"HELLO-WORLD")
        s1.rollback(loser)
        lines = page_history(s1.log, page_id)
        update = next(line for line in lines
                      if f"UPD t{loser.txn_id} " in line)
        clr = next(line for line in lines if "CLR" in line)
        assert update.endswith("redo=XOR(11B)")
        assert "redo=XOR(11B)" in clr
        assert "  41B UPD" in update

    def test_describe_record_checkpoint_payload(self):
        sd, s1, *_ = instance_with_history()
        lines = dump_log(s1.log).splitlines()
        eck = next(line for line in lines if "ECK" in line)
        assert "dpt=" in eck and "txns=" in eck


class TestSummaries:
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
