"""Applying logged operations to pages (redo and undo paths).

Operations are physiological (Section 1.4 lineage): they name a page
and slot, and the operation is replayed against the page's current
organisation.  The page_LSN test decides *whether* to apply; this
module only knows *how* — including the one CLR writer,
:func:`compensate`, which every rollback and restart undo goes through.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.common.errors import CorruptPageError
from repro.common.lsn import Lsn
from repro.storage.page import Page, PageType
from repro.storage.space_map import SpaceMap
from repro.wal.records import (
    LogRecord,
    PageOp,
    decode_op,
    iter_slots,
    make_clr,
)


def stamp_page_lsn(page: Page, lsn: Lsn) -> None:
    """Advance ``page``'s page_LSN to ``lsn`` (WAL bookkeeping).

    This is the *only* sanctioned way to move a page_LSN outside this
    module and the page class itself (lint rule R001): callers must
    have appended the covering log record first, passing the old
    page_LSN to the log manager so the USN rule can observe it.
    """
    page.page_lsn = lsn


def apply_op(page: Page, slot: int, op: PageOp, data: bytes,
             lsn: Lsn = 0) -> None:
    """Apply one operation to ``page`` (no LSN bookkeeping here).

    ``lsn`` only names the record in a :class:`CorruptPageError`: an
    ``XOR`` whose slot is empty or of another length was not logged
    against this state (applied twice, or onto the wrong base), and
    applying it would write garbage.  A ``SLOTS`` operation applies its
    ``XOR`` entries in order, each at its own slot (``slot`` is
    ignored); an entry of any other operation is rejected, so every
    ``SLOTS`` record stays its own inverse.
    """
    if op == PageOp.XOR:
        old = page.read_record(slot)
        size = len(data)
        if old is None or len(old) != size:
            raise CorruptPageError(
                f"XOR record {lsn} does not fit slot {slot} on page "
                f"{page.page_id}: {size}-byte operand, slot holds "
                f"{'nothing' if old is None else f'{len(old)} bytes'}")
        page.update_record(slot, (
            int.from_bytes(old, "little") ^ int.from_bytes(data, "little")
        ).to_bytes(size, "little"))
    elif op == PageOp.INSERT:
        page.insert_record_at(slot, data)
    elif op == PageOp.DELETE:
        page.delete_record(slot)
    elif op == PageOp.SET:
        page.update_record(slot, data)
    elif op == PageOp.FORMAT:
        page.format(page.page_id, PageType(data[0]))
    elif op == PageOp.SMP_SET:
        SpaceMap.apply_entry_update(page, data)
    elif op == PageOp.SMP_SET_RANGE:
        SpaceMap.apply_range_update(page, data)
    elif op == PageOp.SLOTS:
        for entry_slot, payload in iter_slots(data):
            entry_op, entry_data = decode_op(payload)
            if entry_op != PageOp.XOR:
                raise ValueError(
                    f"SLOTS record {lsn} holds a {entry_op.name} entry")
            apply_op(page, entry_slot, entry_op, entry_data, lsn)
    elif op == PageOp.NOOP:
        pass
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown operation {op}")


def apply_redo(page: Page, record: LogRecord) -> None:
    """Apply ``record``'s redo operation and stamp its LSN on the page.

    Caller has already decided the record must be applied (the
    ``record.lsn > page.page_lsn`` test, Section 3.2.1 "Restart
    Processing").
    """
    op, data = decode_op(record.redo)
    apply_op(page, record.slot, op, data, record.lsn)
    page.page_lsn = record.lsn


def apply_payload(page: Page, slot: int, payload: bytes, lsn: Lsn) -> None:
    """Apply an encoded operation to ``page`` and stamp ``lsn``.

    The shared tail of every logged-update path: normal-processing undo
    (apply the record's undo op, stamp the CLR's LSN) and CS/SD replay
    of already-encoded operations.  Using this helper instead of an
    inline ``decode_op``/``apply_op``/``page_lsn=`` triple keeps every
    page_LSN advance inside this module (lint rule R001).
    """
    op, data = decode_op(payload)
    apply_op(page, slot, op, data, lsn)
    page.page_lsn = lsn


def compensate(log, page: Page, record: LogRecord, txn_id: int,
               prev_lsn: Lsn) -> Tuple[LogRecord, Any, Lsn]:
    """Undo ``record`` on ``page`` behind a CLR: the one CLR writer.

    Logs the CLR first (its LSN by the USN rule from the page's current
    page_LSN; ``log`` stamps its own system id), then applies the undo
    operation and stamps the CLR's LSN.  Returns ``(clr, address,
    page_lsn_prev)`` where ``address`` is whatever ``log.append``
    returns; pool bookkeeping and trace events stay with the caller.
    """
    page_lsn_prev = page.page_lsn
    undo = inverse_op(record)
    clr = make_clr(txn_id=txn_id, system_id=0, page_id=record.page_id,
                   slot=record.slot, redo=undo,
                   undo_next_lsn=record.prev_lsn, prev_lsn=prev_lsn)
    address = log.append(clr, page_lsn=page_lsn_prev)
    apply_payload(page, record.slot, undo, clr.lsn)
    return clr, address, page_lsn_prev


def apply_undo(page: Page, record: LogRecord, clr_lsn: int) -> bytes:
    """Undo ``record``'s update on ``page``; returns the CLR redo payload.

    The CLR's redo payload is exactly the undo operation performed, so
    that repeating history after a crash-during-rollback replays it.
    The page is stamped with the CLR's LSN (``clr_lsn``), which the
    caller obtained from the log manager when writing the CLR.
    """
    undo = inverse_op(record)
    apply_payload(page, record.slot, undo, clr_lsn)
    return undo


def inverse_op(record: LogRecord) -> bytes:
    """The undo payload of ``record`` (present for undoable kinds): its
    ``undo``, or for an ``XOR`` overwrite or a ``SLOTS`` record, its
    own redo."""
    undo = record.undo
    if undo:
        return undo
    redo = record.redo
    if redo and (redo[0] == PageOp.XOR or redo[0] == PageOp.SLOTS):
        return redo
    raise ValueError(f"record {record.lsn} has no undo information")
