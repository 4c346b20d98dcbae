"""Unit tests for physiological operation application (redo/undo)."""

import pytest

from repro.common.errors import CorruptPageError
from repro.recovery.apply import apply_op, apply_redo, apply_undo, inverse_op
from repro.storage.page import Page, PageType
from repro.storage.space_map import SpaceMap
from repro.wal.records import (
    NO_SLOT,
    PageOp,
    decode_op,
    encode_op,
    encode_overwrite,
    encode_page_run,
    make_clr,
    make_update,
)


def data_page():
    page = Page()
    page.format(9, PageType.DATA)
    return page


class TestApplyOp:
    def test_insert(self):
        page = data_page()
        apply_op(page, 2, PageOp.INSERT, b"payload")
        assert page.read_record(2) == b"payload"

    def test_delete(self):
        page = data_page()
        slot = page.insert_record(b"x")
        apply_op(page, slot, PageOp.DELETE, b"")
        assert page.read_record(slot) is None

    def test_set(self):
        page = data_page()
        slot = page.insert_record(b"old")
        apply_op(page, slot, PageOp.SET, b"new")
        assert page.read_record(slot) == b"new"

    def test_format(self):
        page = data_page()
        page.insert_record(b"junk")
        apply_op(page, 0, PageOp.FORMAT, bytes([int(PageType.INDEX)]))
        assert page.page_type == PageType.INDEX
        assert page.slot_count == 0
        assert page.page_id == 9   # identity preserved

    def test_smp_set(self):
        page = Page()
        page.format(1, PageType.SPACE_MAP)
        apply_op(page, 0, PageOp.SMP_SET,
                 SpaceMap.encode_entry_update(7, True))
        assert SpaceMap.read_allocated(page, 7)

    def test_smp_range(self):
        page = Page()
        page.format(1, PageType.SPACE_MAP)
        apply_op(page, 0, PageOp.SMP_SET_RANGE,
                 SpaceMap.encode_range_update(4, 3, True))
        assert all(SpaceMap.read_allocated(page, i) for i in (4, 5, 6))

    def test_noop(self):
        page = data_page()
        before = page.to_bytes()
        apply_op(page, 0, PageOp.NOOP, b"ignored")
        assert page.to_bytes() == before

    def test_xor_turns_old_into_new_and_back(self):
        page = data_page()
        slot = page.insert_record(b"old-value")
        redo, undo = encode_overwrite(b"old-value", b"new-value")
        assert undo == b""
        op, delta = decode_op(redo)
        apply_op(page, slot, op, delta)
        assert page.read_record(slot) == b"new-value"
        apply_op(page, slot, op, delta)
        assert page.read_record(slot) == b"old-value"

    @pytest.mark.parametrize("stored, held", [
        (None, "nothing"), (b"longer-value", "12 bytes"),
        (b"short", "5 bytes")], ids=["empty", "longer", "shorter"])
    def test_xor_that_does_not_fit_raises_and_writes_nothing(self, stored,
                                                              held):
        page = data_page()
        slot = page.insert_record(stored or b"doomed")
        if stored is None:
            page.delete_record(slot)
        before = page.to_bytes()
        with pytest.raises(CorruptPageError, match=(
                f"XOR record 42 does not fit slot {slot} on page 9: "
                f"9-byte operand, slot holds {held}")):
            apply_op(page, slot, PageOp.XOR, b"x" * 9, lsn=42)
        assert page.to_bytes() == before


class TestRedoUndo:
    def test_apply_redo_stamps_lsn(self):
        page = data_page()
        record = make_update(1, 1, 9, 0,
                             redo=encode_op(PageOp.INSERT, b"row"),
                             undo=encode_op(PageOp.DELETE))
        record.lsn = 77
        apply_redo(page, record)
        assert page.read_record(0) == b"row"
        assert page.page_lsn == 77

    def test_apply_undo_inverts_and_stamps_clr_lsn(self):
        page = data_page()
        slot = page.insert_record(b"old")
        record = make_update(1, 1, 9, slot,
                             redo=encode_op(PageOp.SET, b"new"),
                             undo=encode_op(PageOp.SET, b"old"))
        record.lsn = 10
        apply_redo(page, record)
        assert page.read_record(slot) == b"new"
        apply_undo(page, record, clr_lsn=11)
        assert page.read_record(slot) == b"old"
        assert page.page_lsn == 11

    def test_redo_undo_redo_cycle_is_consistent(self):
        """Repeating history: redo(clr) after undo lands on the same
        state as the original undo."""
        page = data_page()
        slot = page.insert_record(b"v0")
        update = make_update(1, 1, 9, slot,
                             redo=encode_op(PageOp.SET, b"v1"),
                             undo=encode_op(PageOp.SET, b"v0"))
        update.lsn = 5
        apply_redo(page, update)
        clr = make_clr(1, 1, 9, slot, redo=update.undo, undo_next_lsn=0)
        clr.lsn = 6
        apply_redo(page, clr)          # a CLR's redo IS the undo op
        assert page.read_record(slot) == b"v0"
        assert page.page_lsn == 6

    def test_undo_without_undo_info_raises(self):
        record = make_clr(1, 1, 9, 0, redo=b"\x06", undo_next_lsn=0)
        with pytest.raises(ValueError):
            inverse_op(record)

    def test_xor_update_is_its_own_undo_and_clr(self):
        """An XOR overwrite's undo is its redo: undo restores the old
        value, and the CLR that carries it redoes the same."""
        page = data_page()
        slot = page.insert_record(b"v0")
        redo, undo = encode_overwrite(b"v0", b"v1")
        update = make_update(1, 1, 9, slot, redo=redo, undo=undo)
        update.lsn = 5
        apply_redo(page, update)
        assert page.read_record(slot) == b"v1"
        assert inverse_op(update) == update.redo
        clr_redo = apply_undo(page, update, clr_lsn=6)
        assert (page.read_record(slot), page.page_lsn) == (b"v0", 6)
        assert clr_redo == update.redo
        apply_redo(page, update)
        clr = make_clr(1, 1, 9, slot, redo=clr_redo, undo_next_lsn=0)
        clr.lsn = 8
        apply_redo(page, clr)
        assert (page.read_record(slot), page.page_lsn) == (b"v0", 8)


class TestSlots:
    """A ``SLOTS`` record applies its ``XOR`` entries in order and is
    its own inverse."""

    def _page_run(self, olds, news):
        ((slot, redo),) = encode_page_run([
            (slot, encode_overwrite(old, new)[0])
            for slot, (old, new) in enumerate(zip(olds, news))])
        record = make_update(1, 1, 9, slot, redo=redo, undo=b"")
        record.lsn = 5
        return record

    def test_redo_undo_and_clr(self):
        page = data_page()
        olds = [b"v0", b"w0", b"x0"]
        news = [b"v1", b"w1", b"x1"]
        for old in olds:
            page.insert_record(old)
        record = self._page_run(olds, news)
        assert record.slot == NO_SLOT
        assert inverse_op(record) == record.redo
        apply_redo(page, record)
        assert [page.read_record(s) for s in range(3)] == news
        clr_redo = apply_undo(page, record, clr_lsn=6)
        assert [page.read_record(s) for s in range(3)] == olds
        assert page.page_lsn == 6
        apply_redo(page, record)
        clr = make_clr(1, 1, 9, NO_SLOT, redo=clr_redo, undo_next_lsn=0)
        clr.lsn = 8
        apply_redo(page, clr)
        assert [page.read_record(s) for s in range(3)] == olds

    @pytest.mark.parametrize("entry", [
        encode_op(PageOp.SLOTS),            # nested
        encode_op(PageOp.SET, b"a"),        # not its own inverse
    ])
    def test_entry_other_than_xor_is_rejected(self, entry):
        page = data_page()
        page.insert_record(b"v0")
        operand = (0).to_bytes(2, "little") + \
            len(entry).to_bytes(2, "little") + entry
        with pytest.raises(ValueError, match="holds a"):
            apply_op(page, NO_SLOT, PageOp.SLOTS, operand, lsn=42)
        assert page.read_record(0) == b"v0"
