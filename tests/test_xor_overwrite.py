"""Equal-length overwrites log one self-inverse XOR image: every
recovery path that redoes or undoes one reads back the committed value.

Each history overwrites one slot with values of one length, so every
update is an ``XOR`` record with no undo image and every CLR that
compensates one carries the same ``XOR`` operand.  The SD histories
alternate between two instances, so the slot's chain crosses systems
(page transfers under the medium and fast schemes, merged logs under
the fast one), and each crash leaves the disk behind the committed
value, so restart redo has to replay XOR records on an older base.
"""

import pytest

from repro import CsSystem, SDComplex
from repro.recovery.media import recover_page_from_media
from repro.replication import ReplicationConfig
from repro.storage.image_copy import ImageCopy
from repro.wal.records import PageOp, RecordKind

SCHEMES = ["medium", "fast"]
MODES = ["eager", "instant"]


def _sd(scheme="medium", mode="eager", replicate=None):
    sd = SDComplex(n_data_pages=64, transfer_scheme=scheme,
                   restart_mode=mode, replicate=replicate)
    return sd, sd.add_instance(1), sd.add_instance(2)


def _cs():
    cs = CsSystem(n_data_pages=64)
    return cs, cs.add_client(1), cs.add_client(2)


def _committed_row(engine, value):
    txn = engine.begin()
    page_id = engine.allocate_page(txn)
    slot = engine.insert(txn, page_id, value)
    engine.commit(txn)
    return page_id, slot


def _overwrite(engine, page_id, slot, value):
    txn = engine.begin()
    engine.update(txn, page_id, slot, value)
    engine.commit(txn)


def _read(engine, page_id, slot):
    txn = engine.begin()
    value = engine.read(txn, page_id, slot)
    engine.commit(txn)
    return value


def _xor_records(log_records):
    """The page records of one log that carry an XOR redo."""
    return [record for record in log_records
            if record.redo[:1] == bytes([PageOp.XOR])]


def _sd_base(sd, s1, s2):
    """A committed row on disk, then two committed cross-system
    overwrites held only in the buffer pools."""
    page_id, slot = _committed_row(s1, b"value-A0")
    s1.pool.flush_all()
    _overwrite(s2, page_id, slot, b"value-B1")
    _overwrite(s1, page_id, slot, b"value-C2")
    return page_id, slot


class TestChainRolledBack:
    """A→B→C in one transaction, rolled back to A."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sd(self, scheme):
        sd, s1, s2 = _sd(scheme)
        page_id, slot = _committed_row(s1, b"value-A0")
        s1.pool.flush_all()
        txn = s2.begin()
        for value in (b"value-B1", b"value-C2"):
            s2.update(txn, page_id, slot, value)
        s2.rollback(txn)
        records = [record for _, record in s2.log.scan()]
        clrs = [r for r in records if r.kind is RecordKind.CLR]
        assert len(_xor_records(records)) == 4 and len(clrs) == 2
        assert all(not r.undo for r in _xor_records(records))
        s2.log.force()
        sd.crash_instance(2)
        sd.restart_instance(2)
        assert _read(s1, page_id, slot) == b"value-A0"
        assert _read(s2, page_id, slot) == b"value-A0"

    def test_cs(self):
        cs, c1, c2 = _cs()
        page_id, slot = _committed_row(c1, b"value-A0")
        txn = c1.begin()
        for value in (b"value-B1", b"value-C2"):
            c1.update(txn, page_id, slot, value)
        c1.rollback(txn)
        assert _read(c1, page_id, slot) == b"value-A0"
        cs.crash_server()
        cs.restart_server()
        assert _read(c2, page_id, slot) == b"value-A0"


class TestSavepointThenReupdate:
    """B, savepoint, C, rollback to the savepoint, D, commit; then a
    crash before the page reaches disk."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sd(self, scheme, mode):
        sd, s1, s2 = _sd(scheme, mode)
        page_id, slot = _sd_base(sd, s1, s2)
        txn = s2.begin()
        s2.update(txn, page_id, slot, b"value-D3")
        s2.set_savepoint(txn, "sp")
        s2.update(txn, page_id, slot, b"value-E4")
        s2.rollback(txn, to_savepoint="sp")
        s2.update(txn, page_id, slot, b"value-F5")
        s2.commit(txn)
        assert sd.disk.read_page(page_id).read_record(slot) != b"value-F5"
        owner = sd.coherency.writer_of(page_id)
        sd.crash_instance(owner)
        sd.restart_instance(owner)
        assert _read(s1, page_id, slot) == b"value-F5"
        assert _read(s2, page_id, slot) == b"value-F5"

    def test_cs(self):
        cs, c1, c2 = _cs()
        page_id, slot = _committed_row(c1, b"value-A0")
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"value-D3")
        c1.set_savepoint(txn, "sp")
        c1.update(txn, page_id, slot, b"value-E4")
        c1.rollback(txn, to_savepoint="sp")
        c1.update(txn, page_id, slot, b"value-F5")
        c1.commit(txn)
        cs.crash_server()
        cs.restart_server()
        assert _read(c2, page_id, slot) == b"value-F5"


class TestCrashDuringRollback:
    """A loser's rollback is cut off after one XOR CLR: restart redoes
    that CLR and undoes the rest behind one more."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sd(self, scheme, mode):
        sd, s1, s2 = _sd(scheme, mode)
        page_id, slot = _sd_base(sd, s1, s2)
        loser = s2.begin()
        s2.update(loser, page_id, slot, b"value-D3")
        s2.set_savepoint(loser, "sp")
        s2.update(loser, page_id, slot, b"value-E4")
        s2.rollback(loser, to_savepoint="sp")
        s2.log.force()
        sd.crash_instance(2)
        summary = sd.restart_instance(2)
        assert (summary.loser_transactions, summary.clrs_written) == (1, 1)
        if mode == "eager":     # D3, E4 and the CLR, on disk's older base
            assert summary.records_redone >= 3
        assert _read(s1, page_id, slot) == b"value-C2"
        assert _read(s2, page_id, slot) == b"value-C2"

    def test_cs_client(self):
        cs, c1, c2 = _cs()
        page_id, slot = _committed_row(c1, b"value-A0")
        other_page, other_slot = _committed_row(c1, b"other-00")
        loser = c1.begin()
        c1.update(loser, page_id, slot, b"value-D3")
        c1.set_savepoint(loser, "sp")
        c1.update(loser, page_id, slot, b"value-E4")
        c1.rollback(loser, to_savepoint="sp")
        # A commit ships every buffered record, the loser's included.
        _overwrite(c1, other_page, other_slot, b"other-01")
        cs.crash_client(1)
        summary = cs.recover_client(1)
        assert (summary.loser_transactions, summary.clrs_written) == (1, 1)
        assert _read(c2, page_id, slot) == b"value-A0"
        assert _read(c2, other_page, other_slot) == b"other-01"


def test_media_recovery_from_an_image_copy():
    sd, s1, s2 = _sd()
    page_id, slot = _committed_row(s1, b"value-A0")
    s1.pool.flush_all()
    dump = ImageCopy.take(sd.disk)
    _overwrite(s2, page_id, slot, b"value-B1")
    loser = s1.begin()
    s1.update(loser, page_id, slot, b"value-X9")
    s1.rollback(loser)
    _overwrite(s1, page_id, slot, b"value-C2")
    sd.disk.lose_page(page_id)
    page = recover_page_from_media(page_id, dump, sd.local_logs(),
                                   disk=sd.disk)
    assert page.read_record(slot) == b"value-C2"
    assert sd.disk.read_page(page_id).read_record(slot) == b"value-C2"


def test_standby_applies_and_promotes():
    sd, s1, s2 = _sd(replicate=ReplicationConfig())
    standby = sd.replication.add_standby(9)
    page_id, slot = _committed_row(s1, b"value-A0")
    _overwrite(s2, page_id, slot, b"value-B1")
    loser = s1.begin()
    s1.update(loser, page_id, slot, b"value-X9")
    s1.rollback(loser)
    _overwrite(s1, page_id, slot, b"value-C2")
    sd.replication.drain()
    assert standby.disk.read_page(page_id).read_record(slot) == b"value-C2"
    reader = standby.promote().instances[standby.system_id]
    assert _read(reader, page_id, slot) == b"value-C2"
