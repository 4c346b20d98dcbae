"""Multi-slot records: every recovery path that redoes or undoes a
bulk page run reads back the committed value.

``update_many`` logs each run of consecutive ops on one page as one
``SLOTS`` record under one LSN.  Each history here writes runs of
equal-length values, so most records are ``XOR``-only and their own
inverse, and the CLR that compensates one carries the same operand.
The SD histories alternate between two instances, so a page's chain
crosses systems (page transfers under the medium and fast schemes,
merged logs under the fast one), and each crash leaves the disk behind
the committed value, so restart redo replays ``SLOTS`` records on an
older base.  The last classes mix equal-length overwrites with
length-changing ones (each logged on its own), update one slot twice in
one batch, and overrun one record's u16 redo length.
"""

import pytest

from repro import SDComplex
from repro.recovery.media import recover_page_from_media
from repro.replication import ReplicationConfig
from repro.storage.image_copy import ImageCopy
from repro.wal.records import (
    MAX_OPERAND,
    NO_SLOT,
    PageOp,
    RecordKind,
    iter_slots,
)

SCHEMES = ["medium", "fast"]
MODES = ["eager", "instant"]
SLOTS_PER_PAGE = 3


def _sd(scheme="medium", mode="eager", replicate=None):
    sd = SDComplex(n_data_pages=64, transfer_scheme=scheme,
                   restart_mode=mode, replicate=replicate)
    return sd, sd.add_instance(1), sd.add_instance(2)


def _values(tag):
    """One value per slot, all of one length for one-character tags."""
    return [b"slot%d-%s" % (slot, tag) for slot in range(SLOTS_PER_PAGE)]


def _committed_pages(engine, n_pages=2):
    """``n_pages`` committed pages of ``_values(b"A")``; returns the
    ``(page_id, slot)`` handles, page by page."""
    txn = engine.begin()
    handles = []
    for _ in range(n_pages):
        page_id = engine.allocate_page(txn)
        handles += [(page_id, engine.insert(txn, page_id, value))
                    for value in _values(b"A")]
    engine.commit(txn)
    return handles


def _plan(handles, tag):
    """Every handle overwritten with ``_values(tag)``, page by page:
    one run, so one ``SLOTS`` record, per page."""
    values = _values(tag)
    return [(page_id, slot, values[i % SLOTS_PER_PAGE])
            for i, (page_id, slot) in enumerate(handles)]


def _bulk(engine, handles, tag):
    txn = engine.begin()
    engine.update_many(txn, _plan(handles, tag))
    engine.commit(txn)


def _read_own(engine, txn, handles):
    return [engine.read(txn, page_id, slot) for page_id, slot in handles]


def _read(engine, handles):
    txn = engine.begin()
    values = _read_own(engine, txn, handles)
    engine.commit(txn)
    return values


def _expect(tag, handles):
    return [_values(tag)[i % SLOTS_PER_PAGE] for i in range(len(handles))]


def _slots_records(log):
    """The records of ``log`` whose redo is a ``SLOTS`` operation."""
    return [record for _, record in log.scan()
            if record.redo[:1] == bytes([PageOp.SLOTS])]


def _sd_base(sd, s1, s2):
    """Two committed pages on disk, then two committed cross-system
    bulk batches held only in the buffer pools."""
    handles = _committed_pages(s1)
    s1.pool.flush_all()
    _bulk(s2, handles, b"B")
    _bulk(s1, handles, b"C")
    return handles


class TestRolledBack:
    """A bulk batch rolled back in full, and one rolled back to a
    savepoint and updated again, on either transfer scheme."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rollback(self, scheme):
        sd, s1, s2 = _sd(scheme)
        handles = _sd_base(sd, s1, s2)
        txn = s2.begin()
        s2.update_many(txn, _plan(handles, b"X"))
        s2.rollback(txn)
        clrs = [r for _, r in s2.log.scan() if r.kind is RecordKind.CLR]
        assert len(clrs) == 2
        assert all(r.slot == NO_SLOT and r.redo[0] == PageOp.SLOTS
                   for r in clrs)
        assert _read(s1, handles) == _expect(b"C", handles)
        assert _read(s2, handles) == _expect(b"C", handles)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_savepoint_then_reupdate(self, scheme):
        sd, s1, s2 = _sd(scheme)
        handles = _sd_base(sd, s1, s2)
        txn = s2.begin()
        s2.update_many(txn, _plan(handles, b"D"))
        s2.set_savepoint(txn, "sp")
        s2.update_many(txn, _plan(handles, b"E"))
        s2.rollback(txn, to_savepoint="sp")
        assert _read_own(s2, txn, handles) == _expect(b"D", handles)
        s2.update_many(txn, _plan(handles, b"F"))
        s2.commit(txn)
        assert _read(s1, handles) == _expect(b"F", handles)


class TestCrash:
    """A crash before the batch commits (the loser is undone behind one
    CLR per record) and after it (its records are redone)."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_before_commit(self, scheme, mode):
        sd, s1, s2 = _sd(scheme, mode)
        handles = _sd_base(sd, s1, s2)
        loser = s2.begin()
        s2.update_many(loser, _plan(handles, b"X"))
        s2.log.force()
        sd.crash_instance(2)
        summary = sd.restart_instance(2)
        assert (summary.loser_transactions, summary.clrs_written) == (1, 2)
        assert _read(s1, handles) == _expect(b"C", handles)
        assert _read(s2, handles) == _expect(b"C", handles)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_after_commit(self, scheme, mode):
        sd, s1, s2 = _sd(scheme, mode)
        handles = _sd_base(sd, s1, s2)
        _bulk(s2, handles, b"D")
        owner = sd.coherency.writer_of(handles[0][0])
        assert sd.disk.read_page(handles[0][0]).read_record(
            handles[0][1]) != _expect(b"D", handles)[0]
        sd.crash_instance(owner)
        summary = sd.restart_instance(owner)
        if mode == "eager":
            assert summary.records_redone >= 2
        assert _read(s1, handles) == _expect(b"D", handles)
        assert _read(s2, handles) == _expect(b"D", handles)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_during_rollback(self, scheme, mode):
        """A loser's rollback is cut off after its second batch's
        ``SLOTS`` CLRs: restart redoes them and undoes the first
        batch behind one CLR per page."""
        sd, s1, s2 = _sd(scheme, mode)
        handles = _sd_base(sd, s1, s2)
        loser = s2.begin()
        s2.update_many(loser, _plan(handles, b"D"))
        s2.set_savepoint(loser, "sp")
        s2.update_many(loser, _plan(handles, b"E"))
        s2.rollback(loser, to_savepoint="sp")
        s2.log.force()
        sd.crash_instance(2)
        summary = sd.restart_instance(2)
        assert (summary.loser_transactions, summary.clrs_written) == (1, 2)
        if mode == "eager":     # D, E and the two CLRs, on disk's base
            assert summary.records_redone >= 6
        assert _read(s1, handles) == _expect(b"C", handles)
        assert _read(s2, handles) == _expect(b"C", handles)


def test_media_recovery_from_an_image_copy():
    sd, s1, s2 = _sd()
    handles = _committed_pages(s1)
    s1.pool.flush_all()
    dump = ImageCopy.take(sd.disk)
    _bulk(s2, handles, b"B")
    loser = s1.begin()
    s1.update_many(loser, _plan(handles, b"X"))
    s1.rollback(loser)
    _bulk(s1, handles, b"C")
    s1.pool.flush_all()
    for page_id in {page_id for page_id, _ in handles}:
        sd.disk.lose_page(page_id)
        page = recover_page_from_media(page_id, dump, sd.local_logs(),
                                       disk=sd.disk)
        assert [page.read_record(slot) for p, slot in handles
                if p == page_id] == _values(b"C")
    assert _read(s2, handles) == _expect(b"C", handles)


def test_standby_applies_and_promotes():
    sd, s1, s2 = _sd(replicate=ReplicationConfig())
    standby = sd.replication.add_standby(9)
    handles = _committed_pages(s1)
    _bulk(s2, handles, b"B")
    loser = s1.begin()
    s1.update_many(loser, _plan(handles, b"X"))
    s1.rollback(loser)
    _bulk(s1, handles, b"C")
    # The loser's two records and their two CLRs, then C's two.
    assert len(_slots_records(s1.log)) == 2 + 2 + 2
    sd.replication.drain()
    assert [standby.disk.read_page(page_id).read_record(slot)
            for page_id, slot in handles] == _expect(b"C", handles)
    reader = standby.promote().instances[standby.system_id]
    assert _read(reader, handles) == _expect(b"C", handles)


class TestMixedEntries:
    """One batch on one page that overwrites two slots with values of
    their own length (one ``SLOTS`` record of ``XOR`` entries) and a
    third with a longer one (its own ``SET`` record, as ``update``
    logs it)."""

    def _plan(self, handles):
        (page_id, s0), (_, s1), (_, s2) = handles[:SLOTS_PER_PAGE]
        return [(page_id, s0, b"slot0-M"), (page_id, s1, b"slot1-M"),
                (page_id, s2, b"slot2-is-longer-now")]

    def _expected(self, handles):
        return [b"slot0-M", b"slot1-M", b"slot2-is-longer-now"] \
            + _expect(b"C", handles)[SLOTS_PER_PAGE:]

    def test_record_shape_and_rollback(self):
        sd, s1, s2 = _sd()
        handles = _sd_base(sd, s1, s2)
        first = s2.log.end_offset
        txn = s2.begin()
        s2.update_many(txn, self._plan(handles))
        run, grow = [r for _, r in s2.log.scan(from_offset=first)]
        assert (run.slot, run.undo) == (NO_SLOT, b"")
        assert [op[0] for _, op in iter_slots(run.redo[1:])] == \
            [PageOp.XOR, PageOp.XOR]
        assert (grow.slot, grow.redo, grow.undo) == (
            handles[2][1], b"\x03slot2-is-longer-now", b"\x03slot2-C")
        s2.rollback(txn)
        assert _read(s1, handles) == _expect(b"C", handles)

    @pytest.mark.parametrize("mode", MODES)
    def test_crash_before_and_after_commit(self, mode):
        sd, s1, s2 = _sd(mode=mode)
        handles = _sd_base(sd, s1, s2)
        loser = s2.begin()
        s2.update_many(loser, self._plan(handles))
        s2.log.force()
        sd.crash_instance(2)
        summary = sd.restart_instance(2)
        assert (summary.loser_transactions, summary.clrs_written) == (1, 2)
        assert _read(s2, handles) == _expect(b"C", handles)
        txn = s2.begin()
        s2.update_many(txn, self._plan(handles))
        s2.commit(txn)
        sd.crash_instance(2)
        sd.restart_instance(2)
        assert _read(s1, handles) == self._expected(handles)


class TestSlotTwice:
    """One batch updates a slot twice: equal-length values leave one
    self-inverse ``XOR`` record; a length change in between splits the
    batch into a ``SET``, an ``XOR`` and a ``SET`` record, undone in
    reverse order."""

    @pytest.mark.parametrize("second", [b"slot0-Y", b"short"])
    @pytest.mark.parametrize("mode", MODES)
    def test_rollback_crash_and_redo(self, mode, second):
        sd, s1, s2 = _sd(mode=mode)
        handles = _sd_base(sd, s1, s2)
        (page_id, s0), (_, s1_slot) = handles[0], handles[1]
        plan = [(page_id, s0, second), (page_id, s1_slot, b"slot1-Y"),
                (page_id, s0, b"slot0-Z")]
        first = s2.log.end_offset
        txn = s2.begin()
        s2.update_many(txn, plan)
        records = [r for _, r in s2.log.scan(from_offset=first)]
        assert [r.slot for r in records] == (
            [NO_SLOT] if len(second) == len(b"slot0-Z")
            else [s0, s1_slot, s0])
        s2.rollback(txn)
        assert _read(s2, handles) == _expect(b"C", handles)
        txn = s2.begin()
        s2.update_many(txn, plan)
        s2.commit(txn)
        loser = s2.begin()
        s2.update_many(loser, plan[::-1])
        s2.log.force()
        sd.crash_instance(2)
        sd.restart_instance(2)
        expected = _expect(b"C", handles)
        expected[0], expected[1] = b"slot0-Z", b"slot1-Y"
        assert _read(s1, handles) == expected


class TestRunPastOneRecord:
    """A run whose ``XOR`` entries outgrow one record's u16 redo length
    goes on in further records on the same page; each commits, rolls
    back and is redone or undone at restart like any other."""

    @pytest.mark.parametrize("size, n_ops", [(4000, 20), (32, 2000)])
    @pytest.mark.parametrize("mode", MODES)
    def test_commit_rollback_and_restart(self, mode, size, n_ops):
        sd, s1, s2 = _sd(mode=mode)
        txn = s1.begin()
        page_id = s1.allocate_page(txn)
        slot = s1.insert(txn, page_id, b"A" * size)
        s1.commit(txn)
        s1.pool.flush_all()
        handle = [(page_id, slot)]

        def plan(tag):
            return [(page_id, slot, bytes([i % 26 + 97]) * (size - 1) + tag)
                    for i in range(n_ops)]

        last = plan(b"B")[-1][2]
        first = s2.log.end_offset
        txn = s2.begin()
        s2.update_many(txn, plan(b"X"))
        records = [r for _, r in s2.log.scan(from_offset=first)]
        assert len(records) >= 2
        assert all(len(r.redo) <= MAX_OPERAND and r.undo == b""
                   for r in records)
        assert sum(len(list(iter_slots(r.redo[1:]))) for r in records) \
            == n_ops
        s2.rollback(txn)
        assert _read(s1, handle) == [b"A" * size]
        txn = s2.begin()
        s2.update_many(txn, plan(b"B"))
        s2.commit(txn)
        loser = s2.begin()
        s2.update_many(loser, plan(b"X"))
        s2.log.force()
        sd.crash_instance(2)
        summary = sd.restart_instance(2)
        assert summary.clrs_written == len(records)
        assert _read(s1, handle) == [last]
        assert _read(s2, handle) == [last]
