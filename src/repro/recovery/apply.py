"""Applying logged operations to pages (redo and undo paths).

Operations are physiological (Section 1.4 lineage): they name a page
and slot, and the operation is replayed against the page's current
organisation.  The page_LSN test decides *whether* to apply; this
module only knows *how* — including the one CLR writer,
:func:`compensate`, which every rollback and restart undo goes through.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.common.lsn import Lsn
from repro.storage.page import Page, PageType
from repro.storage.space_map import SpaceMap
from repro.wal.records import LogRecord, PageOp, decode_op, encode_op, make_clr


def stamp_page_lsn(page: Page, lsn: Lsn) -> None:
    """Advance ``page``'s page_LSN to ``lsn`` (WAL bookkeeping).

    This is the *only* sanctioned way to move a page_LSN outside this
    module and the page class itself (lint rule R001): callers must
    have appended the covering log record first, passing the old
    page_LSN to the log manager so the USN rule can observe it.
    """
    page.page_lsn = lsn


def apply_op(page: Page, slot: int, op: PageOp, data: bytes) -> None:
    """Apply one operation to ``page`` (no LSN bookkeeping here)."""
    if op == PageOp.INSERT:
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
    apply_op(page, record.slot, op, data)
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
    apply_op(page, slot, op, data)
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
    clr = make_clr(txn_id=txn_id, system_id=0, page_id=record.page_id,
                   slot=record.slot, redo=record.undo,
                   undo_next_lsn=record.prev_lsn, prev_lsn=prev_lsn)
    address = log.append(clr, page_lsn=page_lsn_prev)
    apply_payload(page, record.slot, record.undo, clr.lsn)
    return clr, address, page_lsn_prev


def apply_undo(page: Page, record: LogRecord, clr_lsn: int) -> bytes:
    """Undo ``record``'s update on ``page``; returns the CLR redo payload.

    The CLR's redo payload is exactly the undo operation performed, so
    that repeating history after a crash-during-rollback replays it.
    The page is stamped with the CLR's LSN (``clr_lsn``), which the
    caller obtained from the log manager when writing the CLR.
    """
    op, data = decode_op(record.undo)
    apply_op(page, record.slot, op, data)
    page.page_lsn = clr_lsn
    return encode_op(op, data)


def inverse_op(record: LogRecord) -> bytes:
    """The undo payload of ``record`` (present for undoable kinds)."""
    if not record.undo:
        raise ValueError(f"record {record.lsn} has no undo information")
    return record.undo
